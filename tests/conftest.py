"""Let the CLI subprocesses that some tests start import the package from
this checkout, as pytest itself does through ``pythonpath`` in
pyproject.toml, so ``python3 -m pytest`` needs no install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path)
