import pytest

# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the verdicts are visible without -s.
_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_log():
    return _acceptance_lines


@pytest.fixture
def cache_sizes():
    """A function returning the size of every lru_cache of the modules
    that define one, keyed by module and name; a cache another module
    imports is read once, from the module that defines it."""
    from eulerlab import distributions, mpoly

    def sizes():
        return {(m.__name__, name): obj.cache_info().currsize
                for m in (distributions, mpoly)
                for name, obj in vars(m).items()
                if hasattr(obj, "cache_info")
                and obj.__module__ == m.__name__}
    return sizes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
