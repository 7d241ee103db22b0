"""One cold start of the in-process system; prints ``ready`` when usable.

Usage: ``python3 coldstart.py session|store STORE_PATH`` with the checkout's
``src`` on ``PYTHONPATH``.  ``session`` readiness is the import plus an
``AdvisorSession``; ``store`` also opens a fresh ``SQLiteResultCache`` at
``STORE_PATH`` behind the session, as redeploy-watch does.
"""

import sys

from repro.api import AdvisorSession
from repro.store import SQLiteResultCache


def main() -> int:
    mode, path = sys.argv[1], sys.argv[2]
    store = SQLiteResultCache(path) if mode == "store" else None
    AdvisorSession(result_cache=store)
    print("ready", flush=True)
    if store is not None:
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
