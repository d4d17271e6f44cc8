"""Path set-up for the benchmark's own tests.

Not on the tier-1 ``testpaths``; run with::

    python -m pytest benchmarks/e2e/tests -q
"""

import os
import sys

E2E_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))

for path in (os.path.join(REPO_ROOT, "src"), E2E_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
