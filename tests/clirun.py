"""Start the twoexact CLI in a child process.

The child runs ``python -m twoexact`` on the interpreter of the test process,
with the directory of the package this process imported at the head of
``PYTHONPATH``, so it runs the same code from any working directory and needs
no installed console script.
"""

import os
import subprocess
import sys
from pathlib import Path

import twoexact

PACKAGE_ROOT = str(Path(twoexact.__file__).resolve().parents[1])


def child_env():
    """The environment of a child process that imports this package."""
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [PACKAGE_ROOT, inherited] if inherited else [PACKAGE_ROOT]))


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "twoexact", *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())
