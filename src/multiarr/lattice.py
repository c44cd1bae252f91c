"""The multiplicity lattice of a fixed 2-arrangement.

Multiplicities (tuples of nonnegative integers) are classified by their
exponent gap: gap zero, finite component (balanced, nonzero gap) or the
infinite cone where one hyperplane outweighs all others.  Exhaustive
scans over finite regions machine-check the structural laws: adjacent
gaps differ by exactly one, balanced gaps are bounded by h - 2, and each
fully-enclosed component is the open L1-ball around its peak with the
linear law gap(mu) = gap(peak) - d(peak, mu).  The three scans share one
walk by unit steps per region, which tables the exponents of its points
and of the points one step past it (see :func:`_region_table`).  The
structure scan joins the stratum into components in one pass over that
table and checks the law on the members of each (see
:func:`_ball_failures`); only a component clipped by the region takes a
greedy gap-ascent to its peak, from its highest point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .exactalg import char_warning
from .multiarr2 import Arrangement2, Multiplicity, _balanced, _region_walk, exponents
from .stats import counts

__all__ = [
    "LatticeRegion",
    "ComponentTag",
    "LatticeClassification",
    "ComponentReport",
    "LemmaOneReport",
    "LimitReport",
    "StrReport",
    "ComponentVerification",
    "lattice_distance",
    "classify",
    "component_of",
    "exponent_map",
    "verify_lemma_one",
    "verify_theorem_limit",
    "verify_theorem_str",
]


@dataclass(frozen=True)
class LatticeRegion:
    """A finite window 0 <= m(H) <= caps[H] (optionally with a bound on |m|)."""

    arrangement: Arrangement2
    caps: tuple
    total: int | None = None

    def __post_init__(self):
        caps = tuple(map(operator.index, self.caps))
        object.__setattr__(self, "caps", caps)
        if self.total is not None:
            object.__setattr__(self, "total", operator.index(self.total))
        if len(caps) != self.arrangement.h:
            raise ValueError("caps length disagrees with the arrangement")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be nonnegative")
        if self.total is not None and self.total < 0:
            raise ValueError("total cap must be nonnegative")

    def points(self) -> Iterator[Multiplicity]:
        """The points in lexicographic order; with total, the prefixes are pruned by what is left of it."""
        if self.total is None:
            return product(*(range(c + 1) for c in self.caps))
        pts = [((), self.total)]
        for cap in self.caps:
            pts = [(m + (v,), left - v) for m, left in pts for v in range(min(cap, left) + 1)]
        return (m for m, _ in pts)

    def __contains__(self, m) -> bool:
        return (
            len(m) == len(self.caps)
            and all(0 <= v <= c for v, c in zip(m, self.caps))
            and (self.total is None or sum(m) <= self.total)
        )

    def size(self) -> int:
        """The number of points, counted without listing them.

        With total, counts[s] is the number of prefixes of |m| = s, built one
        cap at a time over s <= min(total, sum(caps)).
        """
        if self.total is None:
            return math.prod(c + 1 for c in self.caps)
        top = min(self.total, sum(self.caps))
        counts = [1] + [0] * top
        for cap in self.caps:
            run = 0  # counts[s - cap] + ... + counts[s] before this cap
            new = []
            for s, n in enumerate(counts):
                run += n - (counts[s - cap - 1] if s > cap else 0)
                new.append(run)
            counts = new
        return sum(counts)


class ComponentTag(Enum):
    ZERO_DELTA = "ZERO_DELTA"
    FINITE_COMPONENT = "FINITE_COMPONENT"
    INFINITE_COMPONENT = "INFINITE_COMPONENT"


@dataclass(frozen=True)
class LatticeClassification:
    tag: ComponentTag
    k_index: int | None
    delta_value: int


def lattice_distance(m1: Sequence[int], m2: Sequence[int]) -> int:
    """L1 distance between two multiplicities on the same arrangement."""
    if len(m1) != len(m2):
        raise ValueError("multiplicity length mismatch")
    return sum(abs(a - b) for a, b in zip(m1, m2))


def classify(arr: Arrangement2, m: Sequence[int]) -> LatticeClassification:
    """Partition the lattice: gap zero / finite component / infinite cone at K.

    The unbalanced test is purely combinatorial; the gap itself always
    comes from the exact solver.
    """
    mt = arr.check_multiplicity(m)
    dv = exponents(arr, mt).delta
    total = sum(mt)
    k_idx = next((i for i, v in enumerate(mt) if 2 * v > total), None)
    if k_idx is not None:
        return LatticeClassification(ComponentTag.INFINITE_COMPONENT, k_idx, dv)
    if dv == 0:
        return LatticeClassification(ComponentTag.ZERO_DELTA, None, dv)
    return LatticeClassification(ComponentTag.FINITE_COMPONENT, None, dv)


def _neighbours(m: Multiplicity) -> Iterator[Multiplicity]:
    """The neighbours of m in lexicographic order: m - e_i for i ascending, then m + e_i for i descending."""
    for i, v in enumerate(m):
        if v:
            yield m[:i] + (v - 1,) + m[i + 1 :]
    for i in range(len(m) - 1, -1, -1):
        yield m[:i] + (m[i] + 1,) + m[i + 1 :]


_ASCENT_LIMIT = 10_000


def _ascend(m: Multiplicity, peaks: dict, gap) -> Multiplicity:
    """Greedy gap-ascent inside the balanced nonzero-gap stratum.

    Ties go to the lexicographically smallest neighbour; the unique-peak
    structure makes the endpoint independent of this choice.  Neighbours
    are read in that order, so each step stops at the first balanced one
    whose gap rises, and reads no gap past it.  The ascent
    is deterministic, so every point of a walk ascends to the walk's end:
    peaks maps each point already walked to its end, the walk stops at the
    first point it holds, and its own points are added.  gap maps a
    multiplicity to its exponent gap.
    """
    walked = []
    cur = m
    for _ in range(_ASCENT_LIMIT):
        peak = peaks.get(cur)
        if peak is None:
            walked.append(cur)
            dv = gap(cur)
            # never false on exact gaps (see verify_theorem_str), but keeps a faulty gap map out of the unbalanced cone
            best = next((nb for nb in _neighbours(cur) if _balanced(nb) and gap(nb) > dv), None)
            if best is not None:
                cur = best
                continue
            peak = cur
        for mu in walked:
            peaks[mu] = peak
        counts["lattice.ascent_steps"] += len(walked)
        return peak
    raise RuntimeError(
        f"gap ascent from {m} did not terminate within {_ASCENT_LIMIT} steps; "
        "finite components should be bounded balls"
    )


def _ball_failures(peak: Multiplicity, radius: int, members: dict, gap) -> list:
    """Findings against the open-ball law of the component peaked at peak.

    members holds the component, the peak among them, in the order the
    findings take.  Every member must have gap(mu) = radius - d(peak, mu),
    so the members lie inside the open ball of that radius.  Every
    neighbour of a member whose wanted gap is above 1 must be a member, so,
    by induction outward from the peak, the ball lies inside the members.
    """
    failures = []
    outside = {}  # ball points that are not members, in the order found
    for mu in members:
        want = radius - lattice_distance(peak, mu)
        got = gap(mu)
        if got != want:
            failures.append(f"gap law fails at {mu}: gap {got} != {want} (peak {peak})")
        if want > 1:
            outside.update(dict.fromkeys(nb for nb in _neighbours(mu) if nb not in members))
    return failures + [f"ball point {nb} is not in the component of {peak}" for nb in outside]


@dataclass(frozen=True)
class ComponentReport:
    """A finite component: its peak, the peak gap, and all members with gaps."""

    peak: Multiplicity
    peak_delta: int
    members: tuple  # ((multiplicity, delta), ...) sorted

    @property
    def size(self) -> int:
        return len(self.members)


def component_of(arr: Arrangement2, m: Sequence[int]) -> ComponentReport:
    """Explore the finite component containing m.

    Walks uphill to the peak, then fills the component from it through
    exponents, over the balanced nonzero-gap points at distance at most the
    peak gap (a bound that keeps the fill finite on a faulty gap map), and
    checks the open-ball law on it as verify_theorem_str does.  A stratum
    point on the sphere joins the fill and fails the gap law.
    """
    mt = arr.check_multiplicity(m)
    cls = classify(arr, mt)
    if cls.tag is not ComponentTag.FINITE_COMPONENT:
        raise ValueError(f"{mt} is not in a finite component (tag {cls.tag.value})")

    def gap(mu):
        return exponents(arr, mu).delta

    peak = _ascend(mt, {}, gap)
    radius = gap(peak)
    found = {peak}
    todo = [peak]
    while todo:
        for nb in _neighbours(todo.pop()):
            if nb not in found and lattice_distance(peak, nb) <= radius and _balanced(nb) and gap(nb):
                found.add(nb)
                todo.append(nb)
    members = dict.fromkeys(sorted(found))
    failures = _ball_failures(peak, radius, members, gap)
    if failures:
        raise RuntimeError(f"component structure violated: {failures[0]}")
    return ComponentReport(peak, radius, tuple((mu, radius - lattice_distance(peak, mu)) for mu in members))


def exponent_map(region: LatticeRegion) -> dict:
    """Exponents of every point of the region, keyed by multiplicity (a fresh dict).

    The verifiers read their table through this copy as well: called by
    its module-global name, it is where a tracer that wraps the public
    functions (perfbench/layer_trace.py) counts the points they scan.  The
    copy costs under a thousandth of the walk that fills the table and its
    shell.
    """
    table = _region_table(region)[0]
    counts["lattice.points"] += len(table)
    return dict(table)


@lru_cache(maxsize=1)
def _region_table(region: LatticeRegion):
    """(table, shell) of the region, from one walk of multiarr2._region_walk.

    The table holds the exponents at each point of the region, the shell
    those at the points one step past it that a gap ascent reads.  The
    cache holds the last region, so the three verifiers on one region share
    one walk.
    """
    return _region_walk(region.arrangement, region.points(), region.caps, region.total)


_CHAR_CONSEQUENCE = "characteristic-zero hypotheses do not apply"


@dataclass
class LemmaOneReport:
    """Every region-internal step of length one changes the gap by exactly one."""

    region: LatticeRegion
    pairs_checked: int
    failures: list  # (m1, m2, delta1, delta2)
    char_warning: str | None

    @property
    def hypothesis_met(self) -> bool:
        return self.char_warning is None

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_lemma_one(region: LatticeRegion) -> LemmaOneReport:
    gaps = {m: e.delta for m, e in exponent_map(region).items()}  # each point's gap, read once
    failures = []
    checked = 0
    for m, d1 in gaps.items():
        for i in range(len(m)):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1 :]
            d2 = gaps.get(m2)
            if d2 is None:
                continue
            checked += 1
            if abs(d1 - d2) != 1:
                failures.append((m, m2, d1, d2))
    failures.sort()
    warning = char_warning(region.arrangement.field, _CHAR_CONSEQUENCE)
    return LemmaOneReport(region, checked, failures, warning)


@dataclass
class LimitReport:
    """Balanced gaps stay below h - 1; the gap has the parity of |m| by construction.

    Each unit step of the walk raises exactly one degree, so d1 + d2 = |m| throughout the table.
    """

    region: LatticeRegion
    points_total: int
    balanced_count: int
    violations: list  # (m, delta) with delta > h - 2
    maximizers: list  # balanced m with delta == h - 2
    char_warning: str | None
    parity_failures: list = dc_field(default_factory=list)  # always empty (see above); the JSON keeps it

    @property
    def hypothesis_met(self) -> bool:
        return self.char_warning is None and self.region.arrangement.h > 2

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def expected_violation(self) -> bool:
        return bool(self.violations) and not self.hypothesis_met


def verify_theorem_limit(region: LatticeRegion) -> LimitReport:
    arr = region.arrangement
    emap = exponent_map(region)
    h = arr.h
    violations = []
    maximizers = []
    balanced_count = 0
    for m, e in emap.items():
        if _balanced(m):
            balanced_count += 1
            if e.delta > h - 2:
                violations.append((m, e.delta))
            elif e.delta == h - 2:
                maximizers.append(m)
    return LimitReport(
        region,
        len(emap),
        balanced_count,
        sorted(violations),
        sorted(maximizers),
        char_warning(arr.field, _CHAR_CONSEQUENCE),
    )


@dataclass(frozen=True)
class ComponentVerification:
    peak: Multiplicity
    peak_delta: int
    size: int
    ok: bool


@dataclass
class StrReport:
    """Peaks, ball structure and the linear gap law over a finite region."""

    region: LatticeRegion
    components: list  # ComponentVerification, canonically sorted by peak
    clipped: list  # (peak, delta, members_in_region) for balls leaving the region
    failures: list  # human-readable findings
    char_warning: str | None
    notes: list = dc_field(default_factory=list)  # always empty (see verify_theorem_str); the JSON keeps it

    @property
    def hypothesis_met(self) -> bool:
        return self.char_warning is None

    @property
    def passed(self) -> bool:
        return not self.failures


def _ball_enclosed(region: LatticeRegion, peak: Multiplicity, radius: int) -> bool:
    if any(p + radius > c for p, c in zip(peak, region.caps)):
        return False
    return region.total is None or sum(peak) + radius <= region.total


def verify_theorem_str(region: LatticeRegion) -> StrReport:
    """Check that each finite component the region encloses is the open ball around its peak.

    Components join balanced points only, and need no more: a balanced m of nonzero gap has only
    balanced neighbours.  Else a line H0 carries exactly |m|/2 at m, where a theta with
    theta(alpha_H0) = 0 is f*D, D(alpha_H0) = 0, with prod_{H != H0} alpha_H^m(H) dividing f, and
    any other theta has alpha_H0^(|m|/2) dividing theta(alpha_H0); so d1 = d2 = |m|/2, in every field.

    A union-find joins the stratum along the in-region edges m - e_i.  A group's top (largest gap,
    ties to the lexicographically smallest) is its peak when its ball is enclosed: a higher neighbour
    would be balanced and in the region, so in the group.  Other tops ascend, and groups that reach
    one peak make one clipped entry.  _ball_failures on an enclosed group is exact:
    1. the gap law puts every member inside the open ball;
    2. every neighbour of a member of wanted gap above 1 is a member, so the ball is inside the group;
    3. a stratum point on the sphere is in the region next to a member, so in the group: the law fails.
    """
    arr = region.arrangement
    emap = exponent_map(region)
    shell = _region_table(region)[1]

    def gap(m):
        # an ascent that leaves the region past the shell reads exponents
        return (emap.get(m) or shell.get(m) or exponents(arr, m)).delta

    parent: dict = {}  # the union-find over the stratum; a root is its own parent

    def find(m):
        while parent[m] is not m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    # in points() order each m - e_i comes before m, so m is the root of every group it joins
    for m, e in emap.items():
        if e.delta and _balanced(m):
            parent[m] = m
            for i, v in enumerate(m):
                if v:
                    low = m[:i] + (v - 1,) + m[i + 1 :]
                    if low in parent:
                        parent[find(low)] = m
    groups: dict = {}
    for m in parent:
        groups.setdefault(find(m), []).append(m)

    enclosed = []
    clipped: dict = {}  # peak -> members in the region
    peaks: dict = {}
    for members in groups.values():
        top = max(members, key=gap)
        radius = gap(top)
        if _ball_enclosed(region, top, radius):
            enclosed.append((top, radius, members))
        else:
            peak = _ascend(top, peaks, gap)
            clipped[peak] = clipped.get(peak, 0) + len(members)

    components = []
    failures = []
    for peak, radius, members in sorted(enclosed):
        found = _ball_failures(peak, radius, dict.fromkeys(members), gap)
        failures += found
        components.append(ComponentVerification(peak, radius, len(members), not found))
    return StrReport(
        region,
        components,
        sorted((peak, gap(peak), size) for peak, size in clipped.items()),
        failures,
        char_warning(arr.field, _CHAR_CONSEQUENCE),
    )
