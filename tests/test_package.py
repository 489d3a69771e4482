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
           "eulerlab.mpoly", "eulerlab.perms"]


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
              "enumerate_perms", "stats", "inverse", "is_derangement")


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


def _probe(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
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
    "dataclasses": "dataclasses" in loaded}}))
"""


def _jobs(jobs: list) -> dict:
    return _probe(_JOBS.format(jobs=jobs, lazy=LAZY))


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
    extra = {"xi": ["--i", "2"], "exc_slice": ["--k", "1"]}
    jobs = []
    for family in FAMILIES:
        args = ["--family", family, "--n", "5", *extra.get(family, [])]
        jobs.append(["poly", *args, "--format", "json"])
        jobs.append(["export", *args, "--out", str(tmp_path / "p.json")])
    got = _jobs(jobs)
    assert got["loaded"] == STARTUP
    assert got["lazy"] == []
    assert not got["dataclasses"]


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
    # checks loads detformula itself, series loads gfengine and symmetry
    got = _probe("import json, sys, eulerlab.checks, eulerlab.series\n"
                 "print(json.dumps({'loaded': sorted(sys.modules)}))")
    for module in ("detformula", "gfengine", "symmetry", "series",
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
    for path in sorted((ROOT / "src" / "eulerlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
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
