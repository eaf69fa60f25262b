"""Run the CLI subprocesses against this checkout's src/ as well.

pytest puts src/ on sys.path (pyproject.toml), which child interpreters do
not inherit; PYTHONPATH does.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
