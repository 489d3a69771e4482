import ast
import doctest
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import eulerlab
from eulerlab.distributions import FAMILIES

ROOT = Path(__file__).resolve().parent.parent

#: what ``import eulerlab.cli`` and building its parser load
STARTUP = ["eulerlab", "eulerlab.cli", "eulerlab.distributions",
           "eulerlab.mpoly"]


def test_every_export_is_its_defining_modules_object():
    for module, names in eulerlab._EXPORTS.items():
        home = import_module(f"eulerlab.{module}")
        for name in names:
            assert getattr(eulerlab, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from eulerlab import *", namespace)
    assert set(eulerlab.__all__) <= namespace.keys()


#: names that no command runs; the tests and perfbench's tracer import
#: them from their modules
UNEXPORTED = ("exact_divide", "canonical_vars", "binom_resum", "PermStats",
              "enumerate_perms", "stats", "inverse")


def test_test_oracles_are_not_exported():
    from eulerlab import series, univariate
    oracle = {name for module in (series, univariate)
              for name, obj in vars(module).items()
              if getattr(obj, "__module__", None) == module.__name__}
    assert {"USeries", "f_series", "RatFunc", "poly_gcd"} <= oracle
    assert not oracle & set(eulerlab.__all__)
    assert not set(UNEXPORTED) & set(eulerlab.__all__)
    for name in UNEXPORTED:
        assert not hasattr(eulerlab, name), name


def test_names_the_tracer_wraps_still_resolve():
    from eulerlab import (distributions, gfengine, mpoly, perms, series,
                          univariate)
    for fn in (series.USeries.__mul__, series.USeries.inverse,
               univariate.poly_gcd, mpoly.exact_divide, mpoly.MPoly.__mul__,
               mpoly.MPoly.__rmul__, mpoly.MPoly.subs, mpoly.MPoly.dumps,
               mpoly.MPoly.text, mpoly.MPoly.latex, gfengine.binom_resum,
               perms.stats, perms.inverse):
        assert callable(fn)
    # the tracer's builder list names xi twice; both must resolve
    assert distributions.xi_transposed is distributions.xi


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        eulerlab.nope
    assert not hasattr(eulerlab, "nope")


def test_dir_lists_every_export():
    assert set(eulerlab.__all__) <= set(dir(eulerlab))


def test_lookup_leaves_the_package_namespace_unchanged():
    # perfbench's tracer compares snapshots of this namespace
    before = dict(vars(eulerlab))
    for name in eulerlab.__all__:
        getattr(eulerlab, name)
    assert vars(eulerlab) == before


def _env() -> dict:
    """The environment with this checkout's sources first on the path."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def _probe(code: str, *flags: str) -> dict:
    """Run ``code`` in a fresh interpreter started with ``flags``; it
    prints one JSON line last."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: standard modules that only rationals or JSON output need
LAZY = ("fractions", "decimal", "json")

# The probe reads sys.modules before it imports json to print its report.
_JOBS = """
import contextlib, io, sys
preloaded = set(sys.modules)
from eulerlab import cli
cli.build_parser()
for argv in {jobs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded = set(sys.modules) - preloaded
import json
print(json.dumps({{
    "loaded": sorted(m for m in loaded if m.split(".")[0] == "eulerlab"),
    "lazy": [m for m in {lazy!r} if m in loaded],
    "dataclasses": "dataclasses" in loaded,
    "typing": "typing" in sys.modules}}))
"""


def _jobs(jobs: list, *flags: str) -> dict:
    return _probe(_JOBS.format(jobs=jobs, lazy=LAZY), *flags)


def test_parser_loads_only_the_startup_modules():
    got = _jobs([])
    assert got["loaded"] == STARTUP
    assert got["lazy"] == []


def test_poly_text_and_latex_load_no_rationals_or_json():
    jobs = [["poly", "--family", family, "--n", "5", "--format", fmt]
            for family in ("des_exc", "trivariate", "derangement_refined")
            for fmt in ("text", "latex")]
    got = _jobs(jobs)
    assert got["loaded"] == STARTUP
    assert got["lazy"] == []


def test_poly_and_export_load_no_other_module(tmp_path):
    got = _jobs(_family_jobs(tmp_path / "p.json"))
    assert got["loaded"] == STARTUP
    assert got["lazy"] == []
    assert not got["dataclasses"]


def _family_jobs(out: Path) -> list:
    """poly and export of every distribution family at n = 5."""
    extra = {"xi": ["--i", "2"], "exc_slice": ["--k", "1"]}
    jobs = []
    for family in FAMILIES:
        args = ["--family", family, "--n", "5", *extra.get(family, [])]
        jobs.append(["poly", *args, "--format", "json"])
        jobs.append(["export", *args, "--out", str(out)])
    return jobs


def test_no_command_loads_typing(tmp_path):
    # under python -S, so that no .pth file that site runs preloads typing
    jobs = _family_jobs(tmp_path / "p.json") + [
        ["verify", "--check", "all"], ["table", "--max-n", "4"],
        ["decompose", "--n", "5", "--s", "2"],
        ["gamma", "--family", "trivariate", "--n", "5", "--p", "3/2"],
        ["det", "--n", "3"], ["scan", "--max-n", "5"]]
    got = _jobs(jobs, "-S")
    assert got["typing"] is False


def _module_trees():
    """(path, syntax tree) of each module of the package."""
    for path in sorted((ROOT / "src" / "eulerlab").glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _at_import(body):
    """The statements of ``body`` that run when their module is imported,
    nested ones included: none inside a function or under the guard
    ``if TYPE_CHECKING:``, whose flag each module sets to False itself."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            yield from _at_import(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _at_import(getattr(node, field, ()))


def _modules_imported(node) -> list:
    """The absolute module names an import statement names; [] else."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_module_imports_typing_at_import_time():
    for path, tree in _module_trees():
        for node in _at_import(tree.body):
            for name in _modules_imported(node):
                assert name.split(".")[0] != "typing", (
                    f"{path.name}:{node.lineno}")


def test_perms_is_the_tests_oracle_alone():
    # the builders' cap and the stable subsets live in distributions
    import eulerlab.perms
    for name in ("MAX_ENUM_N", "check_n", "stable_subsets"):
        assert not hasattr(eulerlab.perms, name), name
    got = _probe("import json, sys\n"
                 "import eulerlab.perms\n"
                 "print(json.dumps(sorted(m for m in sys.modules\n"
                 "                        if m.startswith('eulerlab'))))")
    assert got == ["eulerlab", "eulerlab.perms"]
    # checks alone imports it, for perfbench's tracer
    importers = set()
    for path, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and (
                    node.module == "perms" or node.module is None and any(
                        alias.name == "perms" for alias in node.names)):
                importers.add(path.name)
            if "eulerlab.perms" in _modules_imported(node):
                importers.add(path.name)
    assert importers == {"checks.py"}


@pytest.mark.parametrize("argv", [
    ["table", "--max-n", "3"],
    ["decompose", "--n", "4"],
    ["gamma", "--n", "4"],
    ["det", "--n", "2"],
    ["scan", "--max-n", "3"],
], ids=lambda argv: argv[0])
def test_the_other_commands_load_their_module(argv):
    got = _jobs([argv])
    assert "eulerlab._commands" in got["loaded"]


def test_the_commands_module_never_imports_cli():
    # under python -m eulerlab.cli that module is __main__: importing it
    # by name would compile it a second time
    got = _probe("import json, sys\n"
                 "import eulerlab._commands\n"
                 "print(json.dumps(sorted(sys.modules)))")
    assert "eulerlab.cli" not in got
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "eulerlab.cli", "table",
         "--max-n", "2"], env=_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()]
    assert "eulerlab._commands" in imported
    assert "eulerlab.cli" not in imported


def test_integer_json_round_trip_loads_no_fractions():
    got = _probe("import json, sys\n"
                 "from eulerlab.distributions import trivariate\n"
                 "from eulerlab.mpoly import MPoly\n"
                 "f = trivariate(5)\n"
                 "assert MPoly.loads(f.dumps()) == f\n"
                 "print(json.dumps({'fractions': 'fractions' in sys.modules}))")
    assert got == {"fractions": False}


def test_verify_loads_checks():
    got = _jobs([["verify", "--check", "gf", "--max-n", "2"]])
    assert "eulerlab.checks" in got["loaded"]


def test_verify_loads_only_its_suites_modules():
    jobs = [["verify", "--check", name, "--max-n", "3"]
            for name in ("macmahon", "thm01", "fubini", "li-binomial",
                         "counts")]
    got = _jobs(jobs)
    assert "eulerlab.symmetry" not in got["loaded"]
    assert "eulerlab.gfengine" not in got["loaded"]
    assert "eulerlab.detformula" in got["loaded"]
    assert got["lazy"] == []


def test_verify_eq1_loads_no_symmetry_or_fractions():
    # eq1 reads only f_nkr and its closed form; verify_foata imports the
    # a-parts itself
    got = _jobs([["verify", "--check", "eq1"]])
    assert "eulerlab.gfengine" in got["loaded"]
    assert "eulerlab.symmetry" not in got["loaded"]
    assert "fractions" not in got["lazy"]


# the a-parts, gamma vectors and their checks are integer work: none of
# these loads fractions (nor decimal, which fractions imports)
@pytest.mark.parametrize("argv", [
    ["verify", "--check", "thm20"],
    ["verify", "--check", "gf"],
    ["verify", "--check", "thT1"],
    ["verify", "--check", "all"],
    ["decompose", "--family", "des_exc", "--n", "6"],
    ["gamma", "--family", "trivariate", "--n", "5"],
    ["export", "--family", "a_part", "--n", "6"],
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_integer_commands_load_no_fractions(argv, tmp_path):
    if argv[0] == "export":
        argv = [*argv, "--out", str(tmp_path / "a.json")]
    got = _jobs([argv])
    assert "fractions" not in got["lazy"]
    assert "decimal" not in got["lazy"]


@pytest.mark.parametrize("argv", [
    ["scan", "--max-n", "4"],
    ["decompose", "--n", "5", "--s", "2"],
], ids=["scan", "decompose-s"])
def test_rational_commands_load_fractions(argv):
    got = _jobs([argv])
    assert "fractions" in got["lazy"]
    assert "decimal" in got["lazy"]


def test_checks_imports_its_suite_modules_eagerly():
    # perfbench's tracer imports eulerlab.checks and eulerlab.series, then
    # wraps functions of these modules, reached as attributes of the package;
    # checks loads detformula and perms itself (perms only for the tracer's
    # perms.stats and perms.inverse), series loads gfengine and symmetry
    got = _probe("import json, sys, eulerlab.checks, eulerlab.series\n"
                 "print(json.dumps({'loaded': sorted(sys.modules)}))")
    for module in ("detformula", "perms", "gfengine", "symmetry", "series",
                   "univariate"):
        assert f"eulerlab.{module}" in got["loaded"]


def test_verify_loads_no_dataclasses_or_series_oracle():
    from eulerlab.checks import CHECKS
    jobs = [["verify", "--check", name, "--max-n", str(first)]
            for name, (_, (first, _, _)) in CHECKS.items()]
    got = _jobs(jobs)
    assert not got["dataclasses"]
    assert "eulerlab._commands" not in got["loaded"]
    assert "eulerlab.series" not in got["loaded"]
    assert "eulerlab.univariate" not in got["loaded"]


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "all"],
    ["poly", "--family", "xi", "--n", "6", "--i", "2"],
])
def test_perfbench_traced_cli_runs_unchanged(argv, tmp_path):
    # the benchmark's traced jobs wrap the package from outside; an import
    # change that breaks them fails here
    env = _env()
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
         str(spans), "0", "--", *argv],
        env=env, capture_output=True, text=True, timeout=300)
    plain = subprocess.run([sys.executable, "-m", "eulerlab.cli", *argv],
                           env=env, capture_output=True, text=True,
                           timeout=300)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(spans.read_text(encoding="utf-8"))["restored"] is True


def test_readme_quickstart_runs():
    failed, attempted = doctest.testfile(str(ROOT / "README.md"),
                                         module_relative=False)
    assert attempted and not failed


def test_library_is_stdlib_only_and_float_free():
    # the library imports only the standard library and has no floats
    stdlib = sys.stdlib_module_names
    for path, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                tops = []
            for top in tops:
                assert top in stdlib, f"{path.name}:{node.lineno}: {top}"
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (
                    f"{path.name}:{node.lineno}: {node.value!r}")
            if isinstance(node, ast.Name):
                assert node.id != "float", f"{path.name}:{node.lineno}"
