#!/usr/bin/env python3
"""Delegates to ``repro bench``, the one ledger driver (docs/PERFORMANCE.md)."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
