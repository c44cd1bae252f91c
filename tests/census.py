"""The full census: every central arrangement of 3 to 13 of the 13 planes with normals in {-1, 0, 1}^3.

The planes are taken up to sign, so there are 8,100 arrangements over Q.
Each one gets the checks of ``test_census.py`` (``oracles.census_tally``)
with the criteria on its deconing at every H0, 53,079 deconings in all,
and the int path of ``arr3`` against its oracles
(``oracles.int_path_failures``).  pytest does not collect this file.  Run
it from the root of a checkout:

    PYTHONPATH=src python tests/census.py

It prints one row of counts for each h, the total, and the CPU seconds of
the census checks and of the oracle comparisons, and exits 1 if any check
fails, after listing the failures.
"""

import sys
import time
from itertools import combinations

from oracles import CENSUS_NORMALS, census_tally, int_path_failures
from multiarr.arr3 import Arrangement3
from multiarr.exactalg import QQ

KEYS = ("arrangements", "free", "pb3", "deconings", "rest", "rest2", "equality")


def main() -> int:
    rows = []
    failures = []
    checks_s = oracles_s = 0.0
    for h in range(3, len(CENSUS_NORMALS) + 1):
        counts = dict.fromkeys(KEYS, 0)
        for planes in combinations(CENSUS_NORMALS, h):
            t0 = time.process_time()
            census_tally(planes, range(h), counts, failures)
            t1 = time.process_time()
            failures += [(planes, text) for text in int_path_failures(Arrangement3(QQ, planes))]
            checks_s += t1 - t0
            oracles_s += time.process_time() - t1
        rows.append((h, counts))
    total = {key: sum(counts[key] for _, counts in rows) for key in KEYS}
    print("| h | " + " | ".join(KEYS) + " |")
    print("| ---" * (len(KEYS) + 1) + " |")
    for h, counts in [*rows, ("all", total)]:
        print(f"| {h} | " + " | ".join(f"{counts[key]:,}" for key in KEYS) + " |")
    print(f"checks {checks_s:.1f} s, oracles {oracles_s:.1f} s (CPU)")
    for planes, text in failures:
        print(f"FAIL {planes}: {text}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
