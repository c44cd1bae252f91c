"""The desk acceptance suite: every structural law checked end to end.

Each criterion is an independent function returning a
:class:`CriterionResult`; :func:`run_suite` runs them all, in the order
they are declared.  The suite is deterministic (fixed seeds) and exact,
and some criteria carry wall-time limits that are part of the contract.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from . import arr3, corpus, lattice, multiarr2, shift
from .exactalg import QQ, BinaryForm, LinearForm2
from .multiarr2 import Arrangement2, Derivation2

__all__ = ["CriterionResult", "run_suite", "CRITERIA"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    limit: float | None
    detail: str
    expected_violation: bool = False

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = " [EXPECTED-VIOLATION recorded]" if self.expected_violation else ""
        lim = f", limit {self.limit:.0f}s" if self.limit else ""
        return (
            f"criterion {self.index} {self.name}: {status}{extra} "
            f"({self.elapsed:.2f}s{lim}) — {self.detail}"
        )


CRITERIA = []


def _criterion(name, limit=None):
    """Register the next criterion, timed and failed at its limit; it returns (ok, detail[, expected_violation])."""
    index = len(CRITERIA) + 1

    def register(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            started = time.perf_counter()
            ok, detail, *expected = body()
            elapsed = time.perf_counter() - started
            if limit is not None and elapsed >= limit:
                ok = False
                detail += f"; exceeded the {limit:.0f}s budget ({elapsed:.2f}s)"
            return CriterionResult(index, name, ok, elapsed, limit, detail, *expected)

        CRITERIA.append(criterion)
        return criterion

    return register


def _scan_regions():
    return [
        lattice.LatticeRegion(corpus.arrangement("a2"), (4, 4, 4)),
        lattice.LatticeRegion(corpus.arrangement("b2_lines"), (3, 3, 3, 3)),
        lattice.LatticeRegion(corpus.arrangement("four_lines"), (3, 3, 3, 3)),
        lattice.LatticeRegion(corpus.arrangement("five_lines"), (3, 3, 3, 3, 3)),
    ]


@_criterion("simple-arrangement baseline", 1.0)
def criterion_simple_baseline():
    """Random simple arrangements have exponents (1, h-1) and Euler below."""
    rng = random.Random(20260810)
    trials = 20
    for _ in range(trials):
        h = rng.randint(3, 8)
        forms = []
        seen = set()
        while len(forms) < h:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if (a, b) == (0, 0):
                continue
            f = LinearForm2(QQ, a, b)
            if f not in seen:
                seen.add(f)
                forms.append(f)
        arr = Arrangement2(QQ, forms)
        ones = (1,) * h
        e = multiarr2.exponents(arr, ones)
        if e.pair != (1, h - 1):
            return False, f"exponents {e.pair} != (1, {h - 1}) on {arr!r}"
        theta = multiarr2.lower_degree_basis(arr, ones)
        c = theta.proportional_scalar(Derivation2.euler(QQ))
        if c is None or not c:
            return False, f"lower basis {theta.render()} is not a multiple of the Euler derivation"
    return True, f"{trials} random arrangements, all (1, h-1) with Euler-proportional lower basis"


@_criterion("balanced gap bound scan", 60.0)
def criterion_gap_bound_scan():
    """Balanced gaps never exceed h - 2 (the gap has the parity of |m| by construction)."""
    checked = 0
    balanced = 0
    for region in _scan_regions():
        report = lattice.verify_theorem_limit(region)
        checked += report.points_total
        balanced += report.balanced_count
        if not report.passed:
            return False, f"violations {report.violations[:3]}"
    return True, f"{checked} lattice points ({balanced} balanced), no violations, parity law holds"


@_criterion("characteristic-2 gap-bound breakdown")
def criterion_char2_remark():
    """Characteristic 2 breaks the gap bound exactly as documented."""
    arr = corpus.arrangement("remark_f2")
    field = arr.field
    m = (4, 4, 4)
    e = multiarr2.exponents(arr, m)
    problems = []
    if e.pair != (4, 8):
        problems.append(f"exponents {e.pair} != (4, 8)")
    theta1 = multiarr2.lower_degree_basis(arr, m)
    x1_4 = BinaryForm(field, 4, (0, 0, 0, 0, 1))
    x2_4 = BinaryForm(field, 4, (1, 0, 0, 0, 0))
    expected1 = Derivation2(x1_4, x2_4)
    c = theta1.proportional_scalar(expected1)
    if c is None or not c:
        problems.append(f"lower basis {theta1.render()} is not x1^4*d1 + x2^4*d2 up to scalar")
    # the documented pair must itself be a basis: tangent plus determinant
    x1_8 = BinaryForm(field, 8, (0,) * 8 + (1,))
    x2_8 = BinaryForm(field, 8, (1,) + (0,) * 8)
    expected2 = Derivation2(x1_8, x2_8)
    tangent, scal = multiarr2.saito_criterion(arr, m, expected1, expected2)
    if not tangent:
        problems.append("documented pair is not tangent")
    if not scal:
        problems.append("documented pair fails the determinant criterion")
    report = lattice.verify_theorem_limit(lattice.LatticeRegion(arr, (4, 4, 4)))
    if report.hypothesis_met:
        problems.append("characteristic-2 scan not flagged")
    if ((4, 4, 4), 4) not in report.violations:
        problems.append("gap 4 > h - 2 = 1 not recorded as a violation")
    ok = not problems
    return ok, "; ".join(problems) or "exponents (4, 8), documented basis verified, violation recorded", ok


@_criterion("3-line parity law")
def criterion_a2_parity_law():
    """On the 3-line arrangement, balanced gaps are exactly |m| mod 2."""
    arr = corpus.arrangement("a2")
    checked = 0
    for total in range(16):
        for m1 in range(total + 1):
            for m2 in range(total - m1 + 1):
                m = (m1, m2, total - m1 - m2)
                if not multiarr2.is_balanced(arr, m):
                    continue
                checked += 1
                want = total % 2
                got = multiarr2.exponents(arr, m).delta
                if got != want:
                    return False, f"gap {got} != {want} at {m}"
    return True, f"{checked} balanced multiplicities with |m| <= 15, gap = |m| mod 2"


@_criterion("lattice structure scan")
def criterion_lattice_structure():
    """Unit steps change the gap by one; components are balls around unique peaks."""
    details = []
    for region in _scan_regions()[:2]:
        one = lattice.verify_lemma_one(region)
        if not one.passed:
            return False, f"adjacent-gap law failed: {one.failures[:3]}"
        strrep = lattice.verify_theorem_str(region)
        if not strrep.passed:
            return False, f"component structure failed: {strrep.failures[:3]}"
        if not strrep.components:
            return False, "no fully-enclosed component verified (vacuous scan)"
        details.append(
            f"{region.arrangement.h}-line: {one.pairs_checked} steps, "
            f"{len(strrep.components)} components, {len(strrep.clipped)} clipped"
        )
    return True, "; ".join(details)


@_criterion("shift certificates", 10.0)
def criterion_shift_certificates():
    """The connection against the lower basis maps bases to bases for 0/1 shifts."""
    cert_b2 = shift.shift_isomorphism_check(corpus.arrangement("b2_lines"), (1, 1, 1, 1))
    cert_a2 = shift.shift_isomorphism_check(corpus.arrangement("a2"), (2, 2, 1))
    problems = []
    if not (cert_b2.passed and len(cert_b2.checked_shifts) == 16 and cert_b2.mode == "exhaustive"):
        problems.append(f"4-line certificate: {len(cert_b2.failures())} failures")
    if not (cert_a2.passed and len(cert_a2.checked_shifts) == 8):
        problems.append(f"3-line certificate: {len(cert_a2.failures())} failures")
    if not (cert_b2.degree_identity_ok and cert_a2.degree_identity_ok):
        problems.append("degree bookkeeping identity failed")
    return not problems, "; ".join(problems) or "16 + 8 shifts certified via the determinant criterion"


@_criterion("dihedral constant-odd exponents")
def criterion_dihedral_constant_odd():
    """Constant odd multiplicity on the dihedral 3- and 4-line arrangements."""
    for arr, h in ((corpus.arrangement("a2"), 3), (corpus.arrangement("b2_lines"), 4)):
        for k in range(3):
            m = (2 * k + 1,) * h
            e = multiarr2.exponents(arr, m)
            want = (h * k + 1, h * k + h - 1)
            if e.pair != want:
                return False, f"h={h}, m={2 * k + 1}: exponents {e.pair} != {want}"
            if e.delta != h - 2:
                return False, f"h={h}, m={2 * k + 1}: gap {e.delta} != {h - 2}"
    return True, "constant multiplicity 1, 3, 5 gives gap h - 2 with exponents (hk+1, hk+h-1)"


@_criterion("freeness decisions", 5.0)
def criterion_freeness_decisions():
    """Freeness verdicts with certificates, independent of the chosen hyperplane."""
    problems = []
    braid, generic, boolean, pencil = (
        corpus.arrangement(name) for name in ("braid3", "generic4", "boolean3", "near_pencil5")
    )
    v = arr3.is_free(braid)
    if not (v.free and v.exponents == (1, 2, 3) and v.coker_dim == 0):
        problems.append(f"braid verdict wrong: {v}")
    fc = arr3.thm_fc_check(corpus.arrangement("braid_deconing"))
    if not (fc.applies and fc.free and fc.h == 3 and fc.d == 2):
        problems.append(f"product-shape check on the braid deconing: {fc}")
    g = arr3.is_free(generic)
    if g.free or g.coker_dim != 1:
        problems.append(f"generic-4 verdict wrong: {g}")
    b = arr3.is_free(boolean)
    if not (b.free and b.exponents == (1, 1, 1)):
        problems.append(f"boolean verdict wrong: {b}")
    for arr in (braid, generic, boolean, pencil):
        verdicts = [arr3.is_free(arr, h0) for h0 in range(arr.h)]
        if len({(w.free, w.exponents) for w in verdicts}) != 1:
            problems.append(f"verdict depends on the hyperplane choice for {arr!r}")
    summary = "braid free (1,2,3) via product shape; generic-4 not free; verdicts hyperplane-independent"
    return not problems, "; ".join(problems) or summary


@_criterion("coning factorisation and chambers")
def criterion_coning_zaslavsky():
    """Coning multiplies the polynomial by (t - 1); braid deconing has |chi(-1)| = 12 chambers."""
    problems = []
    t_minus_1 = arr3.CharPoly((1, -1))
    samples = [
        corpus.arrangement("braid_deconing"),
        corpus.arrangement("b2_deform_a"),
        corpus.arrangement("b2_deform_b"),
        corpus.arrangement("generic5_lines"),
        arr3.decone(corpus.arrangement("boolean3"), 2),
    ]
    for aff in samples:
        coned, _ = arr3.cone(aff)
        if arr3.char_poly(coned).coeffs != (t_minus_1 * arr3.char_poly(aff)).coeffs:
            problems.append(f"coning factorisation fails for {aff!r}")
    bd = corpus.arrangement("braid_deconing")
    if arr3.chamber_count(bd) != 12:
        problems.append("braid deconing chamber count is not 12")
    r2 = arr3.thm_rest2_check(bd)
    if not (r2.applicable and r2.equality and r2.freeness_confirmed):
        problems.append(f"chamber-bound equality did not confirm freeness: {r2}")
    summary = f"{len(samples)} conings factor exactly; 12 chambers; equality case confirms freeness"
    return not problems, "; ".join(problems) or summary


@_criterion("algebraic property suite")
def criterion_property_suite():
    """Saito's criterion on bases, descent of lower bases, crossing independence."""
    problems = []
    regions = _scan_regions()  # one object per arrangement, so a state cache hit compares no forms
    # Saito's criterion: basis raises on a pair that fails it
    basis_count = 0
    basis_pool = [
        lattice.LatticeRegion(regions[0].arrangement, (2, 2, 2)),
        lattice.LatticeRegion(regions[1].arrangement, (2, 2, 2, 2)),
    ]
    for region in basis_pool:
        arr = region.arrangement
        for m in region.points():
            if sum(m) == 0:
                continue
            multiarr2.basis(arr, m)
            basis_count += 1
    # the connection lowers lower bases into the reduced module
    descent_count = 0
    for region in regions:
        arr = region.arrangement
        for m in region.points():
            if sum(m) == 0:
                continue
            rep = shift.nabla_descent_check(arr, m)
            if not rep.passed:
                problems.append(f"descent fails at {m} on {arr!r}")
                break
            descent_count += 1
    # crossing pairs: both lower bases independent
    pair_count = 0
    for region in regions[1:]:
        arr = region.arrangement
        h = arr.h
        for base in region.points():
            for i in range(h):
                for j in range(i + 1, h):
                    m1 = tuple(v + (1 if t == i else 0) for t, v in enumerate(base))
                    m2 = tuple(v + (1 if t == j else 0) for t, v in enumerate(base))
                    if m1 not in region or m2 not in region:
                        continue
                    rep = shift.proposition_next_check(arr, m1, m2)
                    pair_count += rep.hypotheses_met
                    if not rep.passed:
                        problems.append(f"crossing pair {m1}/{m2} on {arr!r}: lower bases are dependent")
    summary = f"{basis_count} bases, {descent_count} descents, {pair_count} crossing pairs verified"
    return not problems, "; ".join(problems[:3]) or summary


def run_suite() -> list:
    """Run all criteria in order; expected violations count as passes."""
    return [fn() for fn in CRITERIA]
