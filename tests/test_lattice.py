"""Classification, components and exhaustive verification of lattice laws."""

import math
import random
from itertools import product

import pytest

import oracles
from multiarr import corpus, lattice, multiarr2, stats
from multiarr.exactalg import GF, QQ
from multiarr.lattice import (
    ComponentTag,
    LatticeRegion,
    classify,
    component_of,
    lattice_distance,
    verify_lemma_one,
    verify_theorem_limit,
    verify_theorem_str,
)
from multiarr.multiarr2 import Arrangement2, Exponents2, exponents


def a2():
    return Arrangement2(QQ, [(1, 0), (0, 1), (1, 1)])


def b2():
    return Arrangement2(QQ, [(1, 0), (0, 1), (1, -1), (1, 1)])


class TestDistance:
    def test_values(self):
        assert lattice_distance((2, 2, 1), (2, 2, 1)) == 0
        assert lattice_distance((2, 2, 1), (2, 2, 2)) == 1
        assert lattice_distance((1, 1, 1), (3, 0, 2)) == 4
        with pytest.raises(ValueError):
            lattice_distance((1, 2), (1, 2, 3))


class TestClassify:
    def test_examples(self):
        arr = a2()
        assert classify(arr, (2, 2, 2)).tag is ComponentTag.ZERO_DELTA
        got = classify(arr, (5, 1, 1))
        assert got.tag is ComponentTag.INFINITE_COMPONENT and got.k_index == 0
        assert classify(arr, (2, 2, 1)).tag is ComponentTag.FINITE_COMPONENT

    def test_partition_and_unique_cone(self):
        arr = a2()
        region = LatticeRegion(arr, (3, 3, 3))
        for m in region.points():
            cls = classify(arr, m)
            total = sum(m)
            heavy = [i for i, v in enumerate(m) if 2 * v > total]
            assert len(heavy) <= 1
            if heavy:
                assert cls.tag is ComponentTag.INFINITE_COMPONENT
                assert cls.k_index == heavy[0]
            elif cls.delta_value == 0:
                assert cls.tag is ComponentTag.ZERO_DELTA
            else:
                assert cls.tag is ComponentTag.FINITE_COMPONENT


class TestComponents:
    def test_singleton_a2(self):
        rep = component_of(a2(), (1, 1, 1))
        assert rep.peak == (1, 1, 1)
        assert rep.peak_delta == 1
        assert rep.members == (((1, 1, 1), 1),)

    def test_odd_balanced_a2_is_its_own_peak(self):
        rep = component_of(a2(), (2, 2, 1))
        assert rep.peak == (2, 2, 1) and rep.peak_delta == 1

    def test_b2_ball(self):
        rep = component_of(b2(), (1, 1, 1, 1))
        assert rep.peak == (1, 1, 1, 1)
        assert rep.peak_delta == 2
        assert rep.size == 9
        for m, dv in rep.members:
            assert dv == 2 - lattice_distance(rep.peak, m)

    def test_idempotent_from_members(self):
        rep = component_of(b2(), (1, 1, 1, 1))
        for m, _ in rep.members:
            assert component_of(b2(), m).peak == rep.peak

    def test_rejects_wrong_stratum(self):
        with pytest.raises(ValueError):
            component_of(a2(), (2, 2, 2))
        with pytest.raises(ValueError):
            component_of(a2(), (5, 1, 1))


class TestEnumeration:
    def test_lex_order(self):
        region = LatticeRegion(Arrangement2(QQ, [(1, 0), (0, 1)]), (1, 1))
        assert list(region.points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_single_cap(self):
        region = LatticeRegion(Arrangement2(QQ, [(1, 0)]), (2,))
        assert list(region.points()) == [(0,), (1,), (2,)]

    def test_total_cap(self):
        region = LatticeRegion(a2(), (1, 1, 1), total=1)
        assert list(region.points()) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]

    @pytest.mark.parametrize(
        "caps, total, exc, match",
        [
            ((2.7, 2, 2), None, TypeError, "'float' object cannot be interpreted as an integer"),
            (("2", 2, 2), None, TypeError, "'str' object cannot be interpreted as an integer"),
            ((2, 2, 2), 2.5, TypeError, "'float' object cannot be interpreted as an integer"),
            ((2, 2), None, ValueError, "caps length disagrees with the arrangement"),
            ((2, -1, 2), None, ValueError, "caps must be nonnegative"),
            ((2, 2, 2), -1, ValueError, "total cap must be nonnegative"),
        ],
        ids=["float-cap", "string-cap", "float-total", "length", "negative-cap", "negative-total"],
    )
    def test_caps_are_checked_not_truncated(self, caps, total, exc, match):
        with pytest.raises(exc, match=match):
            LatticeRegion(a2(), caps, total)

    def test_size(self):
        assert LatticeRegion(a2(), (4, 4, 4)).size() == 125
        assert LatticeRegion(a2(), (4, 4, 4), 3).size() == 20
        assert LatticeRegion(a2(), (4, 4, 4), 100).size() == 125

    def test_total_prunes_in_lexicographic_order(self):
        """points() under a total equals the filtered box, and size() counts it."""
        rng = random.Random(11)
        for _ in range(40):
            h = rng.randint(1, 5)
            arr = Arrangement2(QQ, RATIONAL_LINES[:h])
            caps = tuple(rng.randint(0, 4) for _ in range(h))
            total = rng.choice([None, rng.randint(0, sum(caps) + 1)])
            region = LatticeRegion(arr, caps, total)
            want = [m for m in product(*(range(c + 1) for c in caps)) if total is None or sum(m) <= total]
            assert list(region.points()) == want, (caps, total)
            assert region.size() == len(want), (caps, total)


class TestLemmaOne:
    def test_a2_caps3(self):
        report = verify_lemma_one(LatticeRegion(a2(), (3, 3, 3)))
        assert report.passed and report.pairs_checked == 144
        assert report.hypothesis_met

    def test_explicit_pair(self):
        assert abs(exponents(a2(), (2, 2, 1)).delta - exponents(a2(), (2, 2, 2)).delta) == 1

    def test_char2_flagged(self):
        arr = Arrangement2(GF(2), [(1, 0), (0, 1), (1, 1)])
        report = verify_lemma_one(LatticeRegion(arr, (2, 2, 2)))
        assert report.char_warning is not None
        assert not report.hypothesis_met


class TestTheoremLimit:
    def test_a2_caps4(self):
        report = verify_theorem_limit(LatticeRegion(a2(), (4, 4, 4)))
        assert report.passed
        assert report.points_total == 125
        assert (1, 1, 1) in report.maximizers
        assert not report.parity_failures

    def test_b2_caps3(self):
        report = verify_theorem_limit(LatticeRegion(b2(), (3, 3, 3, 3)))
        assert report.passed
        assert (1, 1, 1, 1) in report.maximizers

    def test_char2_expected_violation(self):
        arr = Arrangement2(GF(2), [(1, 0), (0, 1), (1, 1)])
        report = verify_theorem_limit(LatticeRegion(arr, (4, 4, 4)))
        assert not report.passed
        assert report.expected_violation
        assert ((4, 4, 4), 4) in report.violations
        # the parity law has no characteristic hypothesis
        assert not report.parity_failures


class TestTheoremStr:
    def test_a2_caps5(self):
        report = verify_theorem_str(LatticeRegion(a2(), (5, 5, 5)))
        assert report.passed
        assert report.components
        assert all(c.ok for c in report.components)

    def test_b2_caps3(self):
        report = verify_theorem_str(LatticeRegion(b2(), (3, 3, 3, 3)))
        assert report.passed
        peaks = {c.peak: c for c in report.components}
        assert (1, 1, 1, 1) in peaks
        assert peaks[(1, 1, 1, 1)].size == 9

    def test_clipping_reported(self):
        # caps 1 on the 4-line arrangement truncates the radius-2 ball
        report = verify_theorem_str(LatticeRegion(b2(), (1, 1, 1, 1)))
        assert report.passed
        assert any(peak == (1, 1, 1, 1) for peak, _, _ in report.clipped)

    def test_char2_region_still_checked(self):
        # the assertions run over any field; the report carries the flag
        arr = Arrangement2(GF(2), [(1, 0), (0, 1), (1, 1)])
        report = verify_theorem_str(LatticeRegion(arr, (4, 4, 4)))
        assert report.char_warning is not None
        assert not report.hypothesis_met
        assert report.components or report.clipped


# --- the region table against the per-point oracle ------------------------

TABLE_FIELDS = (QQ, GF(2), GF(3), GF(2**31 - 1))
RATIONAL_LINES = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1), (1, 3)]
MAX_CAP = {3: 5, 4: 3, 5: 2}  # keeps each seeded region near 200 points or fewer


def seeded_regions(fields=TABLE_FIELDS, per_field=3, seed=7):
    """per_field seeded small regions over each field, each drawn with and without a bound on |m|."""
    rng = random.Random(seed)
    out = []
    for field in fields:
        p = field.char
        pool = [(0, 1)] + [(1, t) for t in range(p)] if 0 < p < 8 else RATIONAL_LINES
        for _ in range(per_field):
            h = rng.randint(3, min(5, len(pool)))
            arr = Arrangement2(field, rng.sample(pool, h))
            caps = tuple(rng.randint(1, MAX_CAP[h]) for _ in range(h))
            out.append(LatticeRegion(arr, caps))
            out.append(LatticeRegion(arr, caps, rng.randint(1, sum(caps))))
    return out


# regions whose ascents walk past the shell, so the str verifier falls back
# to exponents, with the number of such calls
FALLBACK_REGIONS = [
    (LatticeRegion(corpus.arrangement("b2_lines"), (2,) * 4), 28),
    (LatticeRegion(corpus.arrangement("five_lines"), (2,) * 5), 64),
    (LatticeRegion(corpus.arrangement("five_lines"), (3,) * 5, 7), 60),
]
TABLE_REGIONS = seeded_regions() + [region for region, _ in FALLBACK_REGIONS]


def region_id(region):
    arr = region.arrangement
    return f"p{arr.field.char}-h{arr.h}-caps{''.join(map(str, region.caps))}-total{region.total}"


def up(m, i):
    return m[:i] + (m[i] + 1,) + m[i + 1 :]


def expected_shell(region, emap):
    """The m + e_i outside the region for m balanced with a nonzero gap in it."""
    arr = region.arrangement
    return {
        up(m, i)
        for m, e in emap.items()
        if e.delta and multiarr2.is_balanced(arr, m)
        for i in range(len(m))
        if up(m, i) not in region
    }


def stateless_leaves(region, emap):
    """The points m != 0 with no m + e_i in the region for i >= the last nonzero index of m, whose shell reads no state.

    No point of a walk steps from such a leaf, and the shell reads the state of a point only when it is
    balanced with a nonzero gap.
    """
    arr = region.arrangement
    out = []
    for m, e in emap.items():
        nonzero = [i for i, v in enumerate(m) if v]
        if nonzero and not any(up(m, i) in region for i in range(nonzero[-1], len(m))):
            if not (e.delta and multiarr2.is_balanced(arr, m)):
                out.append(m)
    return out


VERIFIERS = (verify_lemma_one, verify_theorem_limit, verify_theorem_str)


@pytest.fixture
def cold_caches():
    """Empty the multiarr memos (and zero the counters) before and after the test."""
    stats.reset()
    yield
    stats.reset()


@pytest.fixture
def steps(monkeypatch, cold_caches):
    """A one-item list: the number of multiarr2._unit_step calls so far."""
    calls = [0]
    real = multiarr2._unit_step

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(multiarr2, "_unit_step", counted)
    return calls


@pytest.fixture
def lattice_exponents(monkeypatch):
    """A list of the multiplicities lattice passes to exponents."""
    calls = []
    real = lattice.exponents

    def counted(arr, m):
        calls.append(m)
        return real(arr, m)

    monkeypatch.setattr(lattice, "exponents", counted)
    return calls


class TestRegionTable:
    @pytest.mark.parametrize("region", TABLE_REGIONS, ids=region_id)
    def test_table_and_shell_match_exponents(self, region):
        table, shell = lattice._region_table(region)
        emap = oracles.exponent_map(region)
        assert table == emap
        assert shell.keys() == expected_shell(region, emap)
        for mu, e in shell.items():
            assert e == exponents(region.arrangement, mu), mu

    @pytest.mark.parametrize("region", TABLE_REGIONS, ids=region_id)
    def test_one_step_per_point_but_the_stateless_leaves(self, region, steps):
        """A leaf takes its degrees from one residue, and builds its state only for its shell."""
        lattice._region_table(region)
        walked = steps[0]
        emap = oracles.exponent_map(region)
        assert walked == region.size() - 1 - len(stateless_leaves(region, emap))

    @pytest.mark.parametrize("region", TABLE_REGIONS, ids=region_id)
    def test_table_and_shell_share_one_exponents_per_pair(self, region):
        table, shell = lattice._region_table(region)
        values = [*table.values(), *shell.values()]
        assert len({id(e) for e in values}) == len({e.pair for e in values})

    @pytest.mark.parametrize("region", TABLE_REGIONS, ids=region_id)
    def test_reports_match_the_oracle(self, region, monkeypatch):
        got = [verify(region) for verify in VERIFIERS]
        # the same verifiers on the per-point map, an empty shell and the plain ascent
        monkeypatch.setattr(lattice, "_region_table", lambda region: (oracles.exponent_map(region), {}))
        monkeypatch.setattr(lattice, "_ascend", lambda m, peaks, gap: oracles.ascend(region.arrangement, m))
        assert got == [verify(region) for verify in VERIFIERS]

    @pytest.mark.parametrize("region", TABLE_REGIONS, ids=region_id)
    def test_clipped_peaks_match_the_plain_ascent(self, region, monkeypatch):
        """str ascends from one stratum point of each clipped group, to the peak the plain ascent reaches."""
        tops = {}
        real = lattice._ascend

        def recorded(m, peaks, gap):
            tops[m] = real(m, peaks, gap)
            return tops[m]

        monkeypatch.setattr(lattice, "_ascend", recorded)
        report = verify_theorem_str(region)
        arr = region.arrangement
        stratum = {m for m, e in oracles.exponent_map(region).items() if e.delta and multiarr2.is_balanced(arr, m)}
        assert set(tops) <= stratum
        assert set(tops.values()) == {peak for peak, _, _ in report.clipped}
        for m, peak in tops.items():
            assert peak == oracles.ascend(arr, m), m

    @pytest.mark.parametrize("region", TABLE_REGIONS, ids=region_id)
    def test_early_exit_ascent_walks_the_plain_path(self, region):
        """Stopping at the first rising neighbour in lexicographic order takes the neighbour min() takes."""
        arr = region.arrangement
        for m, e in oracles.exponent_map(region).items():
            if e.delta and multiarr2.is_balanced(arr, m):
                peaks = {}
                path = oracles.ascent_path(arr, m)
                assert lattice._ascend(m, peaks, lambda mu: exponents(arr, mu).delta) == path[-1], m
                assert peaks == dict.fromkeys(path, path[-1]), m

    def test_ascent_skips_an_unbalanced_neighbour_that_rises(self):
        """A true gap never rises into the unbalanced cone, so a made-up gap map tests the balance check."""
        def gap(mu):
            return 10 - lattice_distance(mu, (0, 1, 0))

        # (0, 1, 0) is the first neighbour of (1, 1, 0) and the only one that rises, but it is unbalanced
        assert lattice._ascend((1, 1, 0), {}, gap) == (1, 1, 0)

    def test_neighbours_come_in_lexicographic_order(self):
        for m in [(0,), (2,), (0, 0, 0), (1, 0, 2), (3, 1, 0, 1)]:
            assert list(lattice._neighbours(m)) == sorted(oracles.neighbours(m)), m

    @pytest.mark.parametrize("region", [r for r in TABLE_REGIONS if not r.arrangement.field.char], ids=region_id)
    def test_states_over_q_are_primitive(self, region, monkeypatch, cold_caches):
        """Every unit-step state is primitive, so alpha * theta needs no gcd (Gauss's lemma)."""
        states = []
        real = multiarr2._unit_step

        def recorded(*args):
            states.append(real(*args))
            return states[-1]

        monkeypatch.setattr(multiarr2, "_unit_step", recorded)
        lattice._region_table(region)
        arr = region.arrangement
        states += [multiarr2._unit_state(arr, m) for m in region.points()]
        assert len(states) > region.size()
        for d1, d2, t1, t2 in states:
            assert math.gcd(*t1[0], *t1[1]) == math.gcd(*t2[0], *t2[1]) == 1, (d1, d2, t1, t2)

    @pytest.mark.parametrize("region, calls", FALLBACK_REGIONS, ids=[region_id(r) for r, _ in FALLBACK_REGIONS])
    def test_ascents_past_the_shell_fall_back_to_exponents(self, region, calls, cold_caches, lattice_exponents):
        verify_theorem_str(region)
        assert len(lattice_exponents) == calls
        table, shell = lattice._region_table(region)
        assert not any(m in table or m in shell for m in lattice_exponents)

    def test_exponent_map_is_a_fresh_dict(self):
        region = LatticeRegion(b2(), (2, 2, 2, 2))
        emap = lattice.exponent_map(region)
        emap[(0, 0, 0, 0)] = emap[(1, 1, 1, 1)]
        emap.pop((2, 2, 2, 2))
        assert lattice.exponent_map(region) == oracles.exponent_map(region)
        assert lattice.exponent_map(region) is not lattice.exponent_map(region)


WALL_REGIONS = seeded_regions((QQ, GF(2), GF(3), GF(7), GF(2**31 - 1)), per_field=10, seed=20)


def on_wall(m):
    """Whether some line carries exactly half of |m|."""
    return 2 * max(m) == sum(m)


class TestWallLemma:
    """Where a line carries exactly |m|/2 the exponents are (|m|/2, |m|/2), in every characteristic.

    So a balanced point of nonzero gap has only balanced neighbours: the str
    verifier looks for no wider adjacency, and the shell of _region_walk
    holds every outward neighbour of such a point without a balance test.
    """

    @pytest.mark.parametrize("region", WALL_REGIONS, ids=region_id)
    def test_wall_points_have_gap_zero(self, region):
        for m, e in lattice.exponent_map(region).items():
            if on_wall(m):
                assert (e.d1, e.d2) == (sum(m) // 2, sum(m) // 2), m

    @pytest.mark.parametrize("region", WALL_REGIONS, ids=region_id)
    def test_balanced_nonzero_gaps_have_only_balanced_neighbours(self, region):
        arr = region.arrangement
        emap = lattice.exponent_map(region)
        for m, e in emap.items():
            if e.delta and multiarr2.is_balanced(arr, m):
                for nb in oracles.neighbours(m) & emap.keys():
                    assert multiarr2.is_balanced(arr, nb), (m, nb)

    def test_the_regions_reach_the_wall(self):
        """Both tests above read many points: nonzero wall points, and balanced pairs off the wall."""
        walls = pairs = 0
        for region in WALL_REGIONS:
            emap = lattice.exponent_map(region)
            walls += sum(1 for m in emap if any(m) and on_wall(m))
            pairs += sum(
                len(oracles.neighbours(m) & emap.keys())
                for m, e in emap.items()
                if e.delta and multiarr2.is_balanced(region.arrangement, m)
            )
        assert walls > 1000 and pairs > 5000, (walls, pairs)  # 1,561 and 7,138


class TestOpenBalls:
    @pytest.mark.parametrize("region", WALL_REGIONS, ids=region_id)
    def test_enclosed_components_are_the_open_balls(self, region):
        """component_of fills each enclosed component of str to the open ball, with the linear gaps."""
        arr = region.arrangement
        for c in verify_theorem_str(region).components:
            ball = oracles.open_ball(c.peak, c.peak_delta)
            assert c.size == len(ball), c
            want = tuple((mu, c.peak_delta - lattice_distance(c.peak, mu)) for mu in ball)
            assert component_of(arr, c.peak).members == want, c


class TestFaultyGapMaps:
    """Faulty gap maps around the radius-3 ball of (1, 1, 1, 1, 1) in five_lines at caps 4.

    The law check catches each.  The sphere point also joins four stratum points past the sphere to the ball,
    as two touching components would.
    """

    REGION = LatticeRegion(corpus.arrangement("five_lines"), (4,) * 5)
    PEAK = (1, 1, 1, 1, 1)
    MUTANTS = {
        "member_gap_off_by_2": (
            (1, 1, 1, 2, 2),
            3,
            "gap law fails at (1, 1, 1, 2, 2): gap 3 != 1 (peak (1, 1, 1, 1, 1))",
        ),
        "sphere_point_in_stratum": (
            (1, 1, 1, 1, 4),
            1,
            "gap law fails at (1, 1, 1, 1, 4): gap 1 != 0 (peak (1, 1, 1, 1, 1))",
        ),
        "missing_ball_point": (
            (1, 1, 1, 1, 2),
            0,
            "ball point (1, 1, 1, 1, 2) is not in the component of (1, 1, 1, 1, 1)",
        ),
    }

    @pytest.fixture(params=MUTANTS.values(), ids=MUTANTS.keys())
    def mutant(self, request, monkeypatch):
        """The first failure of one mutant, whose gap the region table and exponents both read."""
        point, g, first = request.param
        real_map, real_exponents = lattice.exponent_map, lattice.exponents

        def faulty(e):
            return Exponents2(e.d1, e.d1 + g)

        def table(region):
            emap = real_map(region)
            emap[point] = faulty(emap[point])
            return emap

        def exponents(arr, m):
            e = real_exponents(arr, m)
            return faulty(e) if m == point else e

        monkeypatch.setattr(lattice, "exponent_map", table)
        monkeypatch.setattr(lattice, "exponents", exponents)
        return first

    def test_str_fails(self, mutant):
        report = verify_theorem_str(self.REGION)
        assert not report.passed
        assert report.failures[0] == mutant

    def test_component_of_raises(self, mutant):
        with pytest.raises(RuntimeError) as exc:
            component_of(self.REGION.arrangement, self.PEAK)
        assert str(exc.value) == f"component structure violated: {mutant}"

    def test_a_clipped_peak_treated_as_enclosed(self, monkeypatch):
        monkeypatch.setattr(lattice, "_ball_enclosed", lambda region, peak, radius: True)
        report = verify_theorem_str(self.REGION)
        assert not report.passed and not report.clipped
        assert report.failures[0] == "ball point (1, 3, 4, 5, 0) is not in the component of (1, 3, 4, 4, 0)"


class TestStepCounts:
    """The table makes one unit step per point past the first but the leaves whose shell reads no state.

    The 216 points at m(H_4) = 5 are the leaves; 121 of them are unbalanced or of gap zero.  The shell
    reads one residue per point.
    """

    REGION = LatticeRegion(b2(), (5, 5, 5, 5))
    POINTS, SHELL, STATELESS_LEAVES = 1296, 380, 121
    STRATUM, CLIPPED_TOPS = 497, 145

    def test_stateless_leaves(self):
        assert len(stateless_leaves(self.REGION, oracles.exponent_map(self.REGION))) == self.STATELESS_LEAVES

    @pytest.mark.parametrize("verify", VERIFIERS, ids=["one", "limit", "str"])
    def test_each_verifier_walks_the_table_and_shell_once(self, verify, steps):
        verify(self.REGION)
        table, shell = lattice._region_table(self.REGION)
        assert (len(table), len(shell)) == (self.POINTS, self.SHELL)
        assert steps == [self.POINTS - 1 - self.STATELESS_LEAVES] == [1174]

    @pytest.mark.parametrize("order", [VERIFIERS, VERIFIERS[::-1]], ids=["one-limit-str", "str-limit-one"])
    def test_three_verifiers_share_one_walk(self, order, steps):
        for verify in order:
            assert verify(self.REGION).passed
        assert steps == [self.POINTS - 1 - self.STATELESS_LEAVES] == [1174]

    @pytest.mark.parametrize("verify", VERIFIERS, ids=["one", "limit", "str"])
    def test_residue_counter_counts_each_residue_once(self, verify, monkeypatch, cold_caches):
        """A leaf that builds its state hands its first residue to the step, which does not read it again."""
        calls = []
        real = multiarr2._residue
        monkeypatch.setattr(multiarr2, "_residue", lambda *args: calls.append(args) or real(*args))
        verify(self.REGION)
        assert len(calls) == stats.snapshot()["multiarr2.residues"] == 2761

    def test_str_ascends_only_from_clipped_tops(self, monkeypatch):
        """One ascent per clipped group top, where one per stratum point was made before."""
        tops = []
        real = lattice._ascend
        monkeypatch.setattr(lattice, "_ascend", lambda m, peaks, gap: tops.append(m) or real(m, peaks, gap))
        report = verify_theorem_str(self.REGION)
        emap = lattice.exponent_map(self.REGION)
        assert sum(1 for m, e in emap.items() if e.delta and multiarr2._balanced(m)) == self.STRATUM
        assert len(tops) == len(report.clipped) == self.CLIPPED_TOPS

    @pytest.mark.parametrize(
        "region",
        [REGION, LatticeRegion(b2(), (3, 3, 3, 3)), LatticeRegion(a2(), (4, 4, 4))]
        + [LatticeRegion(corpus.arrangement("four_lines"), (c,) * 4) for c in (1, 2, 3, 4)],
        ids=region_id,
    )
    def test_ascents_inside_the_shell_make_no_exponents_call(self, region, cold_caches, lattice_exponents):
        verify_theorem_str(region)
        assert lattice_exponents == []


class TestBoundedAscent:
    @pytest.fixture
    def gap_grows_with_total(self, monkeypatch):
        """Every ascent reads gap(m) = |m|, so it climbs without end."""
        real = lattice._ascend
        monkeypatch.setattr(lattice, "_ascend", lambda m, peaks, gap: real(m, peaks, sum))

    def test_component_of(self, gap_grows_with_total):
        with pytest.raises(RuntimeError, match=r"did not terminate within 10000 steps"):
            component_of(b2(), (1, 1, 1, 1))

    def test_verify_theorem_str(self, gap_grows_with_total):
        with pytest.raises(RuntimeError, match=r"did not terminate within 10000 steps"):
            verify_theorem_str(LatticeRegion(b2(), (2, 2, 2, 2)))
