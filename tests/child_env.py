"""Environment for tests that run the package in a child process.

The CLI tests and acceptance criterion 10 start ``python -m ritusfw.cli``
with a temporary directory as the working directory, so that a run from an
unrelated directory is what gets checked.  A relative ``PYTHONPATH`` entry
such as ``src`` would resolve against that directory in the child, so the
child gets the absolute location of the ``ritusfw`` package this process
imported, ahead of the entries already on ``PYTHONPATH``.  That location is
``src/`` in a source checkout and ``site-packages`` for an install.
"""

import os
from pathlib import Path

import ritusfw


def child_env():
    """``os.environ`` plus the package location on PYTHONPATH."""
    package_root = str(Path(ritusfw.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([package_root, inherited]) if inherited else package_root
    return dict(os.environ, PYTHONPATH=path)
