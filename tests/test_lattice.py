"""Classification, components and exhaustive verification of lattice laws."""

import pytest

from multiarr import lattice
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
from multiarr.multiarr2 import Arrangement2, exponents


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

    def test_every_member_must_ascend_to_the_peak(self, monkeypatch):
        # (1, 0, 1, 1) is a member of the radius-2 ball no sampled probe reached
        real = lattice._ascend
        stray = (1, 0, 1, 1)
        monkeypatch.setattr(lattice, "_ascend", lambda arr, m: (9, 9, 9, 9) if m == stray else real(arr, m))
        with pytest.raises(RuntimeError, match=r"ascent from member \(1, 0, 1, 1\) missed the peak"):
            component_of(b2(), (1, 1, 1, 1))

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

    def test_size_bound(self):
        assert LatticeRegion(a2(), (4, 4, 4)).size_bound() == 125


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
