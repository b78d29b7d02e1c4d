"""Package-level contracts: the README's library snippet runs, __all__ is honest,
and imports stay light."""

import importlib
import inspect
import json
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ritusfw
from child_env import child_env

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [f"ritusfw.{m.name}" for m in pkgutil.iter_modules(ritusfw.__path__)]


def test_readme_library_snippet_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(n) for n, _ in rows] == list(range(9))
    assert max(float(r) for _, r in rows) < 1e-6


def test_all_lists_exactly_the_public_api():
    wrong = {}
    assert {"ritusfw.cli", "ritusfw.operators", "ritusfw.problem"} <= set(MODULES)
    for name in MODULES:
        module = importlib.import_module(name)
        listed = set(getattr(module, "__all__", ()))
        if not listed:
            continue
        public = {n for n, obj in vars(module).items()
                  if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__}
        missing = {n for n in listed if not hasattr(module, n)}
        if missing or public - listed:
            wrong[name] = {"missing": sorted(missing), "unlisted": sorted(public - listed)}
    assert wrong == {}


def loaded_in_child(imports, names, then="pass"):
    """Which of ``names`` are in sys.modules of a fresh interpreter after ``imports``
    and the statement ``then``."""
    code = (f"import sys, {', '.join(imports)}; {then}; "
            f"print(*[n for n in {names!r} if n in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_no_numerics():
    # main() pins BLAS to one thread, which works only before numpy loads
    assert loaded_in_child(["ritusfw.cli"], ("numpy", "scipy")) == []


def test_submodule_imports_load_numpy_and_no_scipy():
    # each scipy.linalg kernel is imported by the function that calls it, so
    # scipy loads at a run's first solve; a submodule of scipy implies scipy
    assert loaded_in_child(MODULES, ("numpy", "scipy")) == ["numpy"]


@pytest.mark.parametrize("config,absent", [
    ({"mass": 0.0}, ("numpy", "scipy")),
    ({"n_max": 400}, ("numpy", "scipy")),
    # binds 4 levels in the zero-mode channel and 3 in its partner: validation
    # builds the field, so numpy loads
    ({"profile": {"kind": "exponential", "B": 1.0, "alpha": 0.5}, "n_max": 3}, ("scipy",)),
], ids=["mass-0", "levels-400", "exponential-binds-too-few"])
def test_refused_config_loads_no_scipy(tmp_path, config, absent):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = ["spectrum", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    then = f"assert ritusfw.cli.main({argv!r}) == 2"
    assert loaded_in_child(["ritusfw.cli"], absent, then) == []
    assert not (tmp_path / "out").exists()


def test_a_spectrum_run_loads_scipy_linalg(tmp_path):
    # the same path as the refusals above, so their empty lists are not vacuous
    argv = ["spectrum", "--out", str(tmp_path / "out")]
    then = f"assert ritusfw.cli.main({argv!r}) == 0"
    assert loaded_in_child(["ritusfw.cli"], ("scipy.linalg",), then) == ["scipy.linalg"]
    assert (tmp_path / "out" / "report.json").is_file()


UNUSED_SCIPY = ("scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.spatial",
                "scipy.fft")


def test_package_import_leaves_out_scipy_interpolate():
    # importing the package loads no scipy subpackage that it does not use
    assert loaded_in_child(MODULES, UNUSED_SCIPY) == []


def test_tabulated_all_leaves_out_unused_scipy(tmp_path):
    # the table's spline is the package's own: a full run on a table loads
    # none of the scipy subpackages that scipy.interpolate pulls in
    table = tmp_path / "table.csv"
    xs = [-16.0 + 0.2 * i for i in range(161)]
    table.write_text("x,W\n" + "".join(f"{x!r},{x + 0.003 * math.sin(0.5 * x)!r}\n" for x in xs))
    then = (f"cfg = ritusfw.cli.RunConfig(profile_kind='tabulated', "
            f"profile_params={{'path': {str(table)!r}}}); "
            f"assert ritusfw.cli.run('all', cfg)[1]")
    assert loaded_in_child(["ritusfw.cli"], UNUSED_SCIPY, then) == []



def test_all_imports_no_scipy_sparse(tmp_path):
    # every operator is a band and the channel solve is the package's own
    # Lanczos: a full default run, CSV files included, never imports
    # scipy.sparse (nor ARPACK, which lives under it)
    code = ("import pathlib, sys, ritusfw.cli as cli; "
            f"report, ok = cli.run('all', cli.RunConfig(), pathlib.Path({str(tmp_path)!r})); "
            "assert ok; "
            "print(*[n for n in sys.modules if n.split('.')[:2] == ['scipy', 'sparse']])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
    assert (tmp_path / "levels.csv").is_file()
