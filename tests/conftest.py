"""Child interpreters started by the tests import this checkout's sources,
as the test process does through pytest's `pythonpath` setting."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
