"""A census slice: every central arrangement of 3 to 5 of the 13 planes with normals in {-1, 0, 1}^3.

The planes are taken up to sign, so there are 286 + 715 + 1287 = 2288
arrangements over Q.  On each one the freeness verdict, Terao's
factorisation, the paper's combinatorial class and the criteria on one
seeded deconing must agree.
"""

import random
from itertools import combinations, product

import pytest

from multiarr.arr3 import (
    Arrangement3,
    CharPoly,
    char_poly,
    decone,
    is_free,
    pb3_membership,
    thm_fc_check,
    thm_rest2_check,
    thm_rest_check,
)
from multiarr.exactalg import QQ

NORMALS = [v for v in product((-1, 0, 1), repeat=3) if v > (0, 0, 0)]  # first nonzero entry positive


@pytest.fixture(scope="module")
def census():
    """Counts over the slice, with the failures of each check listed by arrangement."""
    rng = random.Random(2288)
    counts = dict.fromkeys(("arrangements", "free", "pb3", "rest2", "equality"), 0)
    failures = []
    for h in range(3, 6):
        for planes in combinations(NORMALS, h):
            arr = Arrangement3(QQ, planes)
            counts["arrangements"] += 1
            verdicts = {(v.free, v.exponents) for v in (is_free(arr, h0) for h0 in range(h))}
            if len(verdicts) != 1:
                failures.append((planes, f"verdict depends on H0: {verdicts}"))
                continue
            ((free, exps),) = verdicts
            if free:
                counts["free"] += 1
                # Terao's factorisation (Invent. Math. 63, 1981), with the exponent 0 of a non-essential arrangement
                want = CharPoly((1,))
                for e in exps:
                    want = want * CharPoly((1, -e))
                if char_poly(arr) != want:
                    failures.append((planes, f"chi = {char_poly(arr)} does not factor by the exponents {exps}"))
            if pb3_membership(arr).member:
                counts["pb3"] += 1
                if not free:
                    failures.append((planes, "pb3 member is not free"))
            aff = decone(arr, rng.randrange(h))
            if not thm_rest_check(aff).passed:
                failures.append((planes, "thm_rest_check failed"))
            rest2 = thm_rest2_check(aff)
            if not rest2.passed:
                failures.append((planes, f"thm_rest2_check failed: {rest2}"))
            if rest2.applicable:
                counts["rest2"] += 1
                counts["equality"] += rest2.equality
                if thm_fc_check(aff).applies != rest2.equality:
                    failures.append((planes, "the chamber equality case is not the product shape"))
    return counts, failures


def test_every_check_holds(census):
    _, failures = census
    assert failures == []


def test_counts(census):
    counts, _ = census
    assert counts == dict(arrangements=2288, free=1142, pb3=648, rest2=1551, equality=405)
