"""The environment of a Python child process that a test starts: this
checkout's `src` goes first on PYTHONPATH, so the child imports the `unicoh`
under test, whatever else is installed."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
