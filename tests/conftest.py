"""Runs the suite on the checkout's own source: src goes first on sys.path
and on the PYTHONPATH the CLI child processes inherit, so a bare
`python -m pytest` collects and runs as `PYTHONPATH=src python -m pytest`
does."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
