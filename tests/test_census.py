"""A census slice: every central arrangement of 3 to 5 of the 13 planes with normals in {-1, 0, 1}^3.

The planes are taken up to sign, so there are 286 + 715 + 1287 = 2288
arrangements over Q.  On each one the freeness verdict, Terao's
factorisation, the paper's combinatorial class and the criteria on one
seeded deconing must agree (see ``oracles.census_tally``).  ``census.py``
runs the same checks on all 8,100 arrangements, at every H0.
"""

import random
from itertools import combinations

import pytest

from oracles import CENSUS_NORMALS, census_tally


@pytest.fixture(scope="module")
def census():
    """Counts over the slice, with the failures of each check listed by arrangement."""
    rng = random.Random(2288)
    counts = dict.fromkeys(("arrangements", "free", "pb3", "deconings", "rest", "rest2", "equality"), 0)
    failures = []
    for h in range(3, 6):
        for planes in combinations(CENSUS_NORMALS, h):
            census_tally(planes, [rng.randrange(h)], counts, failures)
    return counts, failures


def test_every_check_holds(census):
    _, failures = census
    assert failures == []


def test_counts(census):
    counts, _ = census
    assert counts == dict(arrangements=2288, free=1142, pb3=648, deconings=2288, rest=405, rest2=1551, equality=405)
