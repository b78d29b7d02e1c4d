"""Package-level contracts: the README's library snippet runs, __all__ is honest,
and imports stay light."""

import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import ritusfw
from child_env import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(n) for n, _ in rows] == list(range(9))
    assert max(float(r) for _, r in rows) < 1e-6


def test_all_lists_exactly_the_public_api():
    wrong = {}
    for name in ritusfw._SUBMODULES:
        module = importlib.import_module(f"ritusfw.{name}")
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


def loaded_in_child(imports, names):
    """Which of ``names`` are in sys.modules of a fresh interpreter after ``imports``."""
    code = f"import sys, {', '.join(imports)}; print(*[n for n in {names!r} if n in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_no_numerics():
    # main() caps the BLAS threads from RFW_THREADS before numpy loads
    assert loaded_in_child(["ritusfw.cli"], ("numpy", "scipy")) == []


def test_package_import_leaves_out_scipy_interpolate():
    # only a tabulated profile needs CubicSpline
    modules = [f"ritusfw.{name}" for name in ritusfw._SUBMODULES]
    assert loaded_in_child(modules, ("scipy.interpolate",)) == []
