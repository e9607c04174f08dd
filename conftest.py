"""Repository-root pytest configuration.

Puts ``src/`` on ``sys.path`` so the test and benchmark suites run against
the checkout even when the package has not been installed, and
``tests/support/`` so every test directory can import the test-support
modules (``from scan_oracle import ScanSimulator``).
"""

import os
import sys

_ROOT = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(_ROOT, "tests", "support"))
sys.path.insert(0, os.path.join(_ROOT, "src"))
