"""Package-level contracts: the README's library snippet runs, and __all__ is honest."""

import importlib
import inspect
import re
from pathlib import Path

import ritusfw

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
