"""Tidiness procedures, scale, contraction membership, and the nub."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import trajectory_contracts, vanish_set

from tdlcw import backend, tidy
from tdlcw.kernel import INF_LEVEL, UnsupportedElementError, conjugate
from tdlcw.linear import LinearModel, ShapeSubgroup, iwahori_shape
from tdlcw.epseq import EPSeq
from tdlcw.shift import (
    ShiftModel,
    ShiftOpen,
    lamp_element,
    shift_generator,
    w_subgroup,
)


@pytest.fixture
def shift():
    return ShiftModel(2)


@pytest.fixture
def linear():
    return LinearModel(2, 2)


@st.composite
def vanish_sets(draw):
    """A vanish set of rays and positions, or with periodic tails."""
    if draw(st.booleans()):
        return vanish_set(draw(st.sampled_from([None, -6, -3])), draw(st.sets(st.integers(-7, 4))),
                          draw(st.sampled_from([None, 2, 5])))
    tail = st.lists(st.integers(0, 1), min_size=1, max_size=3)
    return EPSeq.make(2, draw(tail), draw(st.lists(st.integers(0, 1), max_size=5)),
                      draw(st.integers(-4, 4)), draw(tail))


class TestTidyAbove:
    def test_vanish_subgroups_are_tidy_above(self, shift):
        g = shift_generator(2, 1)
        for k in range(3):
            U = w_subgroup(2, k)
            verdict, _, _ = tidy.is_tidy_above(shift, U, g, 3, tidy.u_parts(shift, U, g))
            assert verdict is True

    def test_iwahori_is_tidy_above(self, linear):
        g = linear.parse_element("2,0;0,1")
        U = ShapeSubgroup(linear.identity, iwahori_shape(2))
        verdict, _, _ = tidy.is_tidy_above(linear, U, g, 3, tidy.u_parts(linear, U, g))
        assert verdict is True

    def test_level0_gl2_is_not_tidy_above(self, linear):
        g = linear.parse_element("2,0;0,1")
        U = linear.reference()
        verdict, k, witness = tidy.is_tidy_above(linear, U, g, 2, tidy.u_parts(linear, U, g))
        assert verdict is False and k == 1 and witness is not None
        # The witness is a genuine element of the level-k image missed by
        # the product of the parts.
        assert witness in U.window_image(k).elements

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_first_untidy_level_matches_the_product_sets(self, linear, K):
        # The level found from orders alone is the first level k <= K whose
        # enumerated product set misses the image of U.
        g = linear.parse_element("2,0;0,1")
        for U in (linear.reference(), ShapeSubgroup(linear.identity, iwahori_shape(2))):
            parts = tidy.u_parts(linear, U, g)
            expected = next((k for k in range(linear.min_level, K + 1) if backend.product_set(
                linear.window(k), parts.u_plus.window_image(k).elements,
                parts.u_minus.window_image(k).elements) != set(U.window_image(k).elements)),
                None)
            assert tidy.untidy_above_level(linear, U, K, parts) == expected

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("fin, first", [((*range(-4, 2), 3), 2), ((*range(-4, 1), -6), 5)])
    def test_a_gap_fails_first_at_the_level_that_reaches_it(self, p, fin, first):
        # The vanish sets [-4, 1] + {3} and [-4, 0] + {-6} have a gap that
        # windows see only from level `first` on; the top level decides
        # every K below it, and the scan names `first` at every K above.
        model, g = ShiftModel(p), shift_generator(p, 1)
        U = ShiftOpen(p, vanish_set(fin=fin))
        parts = tidy.u_parts(model, U, g)
        for K in range(9):
            expected = first if K >= first else None
            assert tidy.untidy_above_level(model, U, K, parts) == expected
            assert oracles.untidy_above_level(model, U, K, parts) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=st.sampled_from([2, 3]), vanish=vanish_sets(),
           m=st.sampled_from([1, -1, 2, -2, 3, -5]), K=st.integers(0, 8))
    def test_top_level_first_equals_the_level_scan(self, p, vanish, m, K):
        model, g = ShiftModel(p), shift_generator(p, m)
        U = ShiftOpen(p, vanish)
        parts = tidy.u_parts(model, U, g)
        assert (tidy.untidy_above_level(model, U, K, parts)
                == oracles.untidy_above_level(model, U, K, parts))

    @pytest.mark.parametrize("p, n, g_text", [(2, 2, "2,0;0,1"), (3, 2, "1,0;0,3"),
                                              (2, 3, "4,0,0;0,2,0;0,0,1")])
    def test_linear_reference_and_iwahori_match_the_level_scan(self, p, n, g_text):
        # The reference subgroup fails at level 1, the first; the Iwahori
        # subgroup in g's eigenbasis is tidy above at every level.
        model = LinearModel(p, n)
        g = model.parse_element(g_text)
        iwahori = ShapeSubgroup(model.eigen_data(g)[0], iwahori_shape(n))
        for U, first in ((model.reference(), 1), (iwahori, None)):
            parts = tidy.u_parts(model, U, g)
            for K in range(9):
                expected = first if K >= model.min_level else None
                assert tidy.untidy_above_level(model, U, K, parts) == expected
                assert oracles.untidy_above_level(model, U, K, parts) == expected

    @pytest.mark.parametrize("model, g_text, U_text", [
        (LinearModel(2, 2), "2,0;0,1", None), (ShiftModel(2), "shift:1", "W:1")])
    def test_a_tidy_subgroup_costs_one_product_test(self, model, g_text, U_text, monkeypatch):
        g = model.parse_element(g_text)
        U = (model.parse_subgroup(U_text, g) if U_text
             else ShapeSubgroup(model.identity, iwahori_shape(2)))
        parts = tidy.u_parts(model, U, g)
        calls = []
        product_is = tidy.product_is
        monkeypatch.setattr(tidy, "product_is", lambda a, b, t: (
            calls.append(t) or product_is(a, b, t)))
        assert tidy.untidy_above_level(model, U, 8, parts) is None
        assert calls == [U.window_image(8)]

    def test_procedure_terminates_at_iwahori(self, linear):
        g = linear.parse_element("2,0;0,1")
        V, k, _ = tidy.tidy_above_procedure(linear, linear.reference(), g)
        assert k == 1
        assert V.shape == iwahori_shape(2)

    def test_procedure_returns_the_parts_of_its_subgroup(self, linear):
        g = linear.parse_element("2,0;0,1")
        V, _, parts = tidy.tidy_above_procedure(linear, linear.reference(), g)
        assert parts == tidy.u_parts(linear, V, g)

    def test_procedure_on_gapped_translates(self, shift):
        # The translates of W:0 by shift:2 leave gaps: U_+ vanishes on 0, 2,
        # 4, ..., U_- on 0, -2, ..., so U_+ U_- = W:0 and k = 0.
        V, k, parts = tidy.tidy_above_procedure(shift, w_subgroup(2, 0), shift_generator(2, 2))
        assert k == 0 and V == w_subgroup(2, 0)
        assert parts.u_plus.vanish == EPSeq.make(2, [0], [], 0, [1, 0])

    def test_procedure_raises_without_symbolic_parts(self, linear, monkeypatch):
        # A basis that does not diagonalise g has no shape parts; the raise
        # ends the search, so no later k is tried.
        g = linear.parse_element("2,0;0,1")
        U = ShapeSubgroup(linear.parse_element("1,1;0,1"), iwahori_shape(2))
        tried = []
        monkeypatch.setattr(linear, "conj_open", lambda *args: tried.append(args))
        with pytest.raises(UnsupportedElementError, match="does not diagonalize"):
            tidy.tidy_above_procedure(linear, U, g)
        assert not tried

    def test_procedure_is_instant_on_tidy_input(self, shift):
        g = shift_generator(2, 1)
        V, k, _ = tidy.tidy_above_procedure(shift, w_subgroup(2, 1), g)
        assert k == 0 and V.vanish == w_subgroup(2, 1).vanish


class TestTidyBelow:
    def test_vanish_subgroups_are_never_tidy_below(self, shift):
        # Their backward translates accumulate lamps arbitrarily far out.
        g = shift_generator(2, 1)
        for k in range(4):
            U = w_subgroup(2, k)
            parts = tidy.u_parts(shift, U, g)
            below, witness = tidy.is_tidy_below(shift, U, g, parts)
            assert below is False
            assert witness is not None
            assert not U.contains(witness) or not parts.u_minus.contains(witness)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vanish=vanish_sets(), m=st.sampled_from([1, -1, 2, -2, 3, -4]))
    def test_certificate_matches_window_images(self, vanish, m):
        # U_-- meets U beyond U_- exactly when some backward conjugate
        # g^-j U_- g^j, read at level K, has an element of U outside U_-.
        shift, K = ShiftModel(2), 4
        U, g = ShiftOpen(2, vanish), shift_generator(2, m)
        parts = tidy.u_parts(shift, U, g)
        u_img, um_img = U.window_image(K), parts.u_minus.window_image(K)
        found = set()
        for j in range(2 * K + 8):
            inside = shift.conj_open(parts.u_minus, g, -j).window_image(K) & u_img
            found |= {c for c in inside.elements if c not in um_img}
        below, witness = tidy.is_tidy_below(shift, U, g, parts)
        # A witness may lie outside the window, so only True is read off it.
        assert below is False or not found
        if below is False:
            assert U.contains(witness) and parts.u_mm.contains(witness)
            assert not parts.u_minus.contains(witness)
            if abs(witness.lamp.offset) <= K:
                assert shift.project(witness, K) in found

    @pytest.mark.parametrize("vanish, m, witness", [
        # A ray on the contracting side: U_- = U.
        (vanish_set(left=0), 1, None),
        (vanish_set(right=0), -1, None),
        # Only the position next to the bound lies in U_-'s ray outside V.
        (vanish_set(left=0, fin={2}), 1, "lamp:1"),
        (vanish_set(right=0, fin={-2}), -1, "lamp:-1"),
        # W(1): the witness the tidy-identities battery prints.
        (vanish_set(fin=range(-1, 2)), 1, "lamp:-2"),
        # Gapped: W(0) under shift:2 and shift:-3.
        (vanish_set(fin={0}), 2, "lamp:-2"),
        (vanish_set(fin={0}), -3, "lamp:3"),
        # Classes of S_- that are whole: U_-- meets U in U_- alone.
        (EPSeq.make(2, [1, 0], [], 0, [1, 0]), 2, None),
    ])
    def test_certificate_on_named_sets(self, shift, vanish, m, witness):
        U, g = ShiftOpen(2, vanish), shift_generator(2, m)
        below, found = tidy.is_tidy_below(shift, U, g, tidy.u_parts(shift, U, g))
        if witness is None:
            assert below is True
        else:
            assert below is False and shift.format_element(found) == witness

    def test_full_lamp_group_is_tidy(self, shift):
        g = shift_generator(2, 1)
        U = shift.reference()
        parts = tidy.u_parts(shift, U, g)
        below, _ = tidy.is_tidy_below(shift, U, g, parts)
        assert below is True

    def test_iwahori_is_tidy_below(self, linear):
        g = linear.parse_element("2,0;0,1")
        U = ShapeSubgroup(linear.identity, iwahori_shape(2))
        parts = tidy.u_parts(linear, U, g)
        below, _ = tidy.is_tidy_below(linear, U, g, parts)
        assert below is True


class TestFindTidyAndScale:
    def test_find_tidy(self, shift, linear):
        for model, g in ((shift, shift_generator(2, 1)),
                         (linear, linear.parse_element("2,0;0,1"))):
            V, parts = tidy.find_tidy(model, g)
            assert parts == tidy.u_parts(model, V, g)
            assert tidy.is_tidy_below(model, V, g, parts)[0] is True

    def test_scale_values(self, shift, linear):
        assert tidy.scale_index(shift, shift_generator(2, 1)) == 1
        assert tidy.scale_index(shift, shift.identity) == 1
        g = linear.parse_element("2,0;0,1")
        assert tidy.scale_index(linear, g) == 2
        assert tidy.scale_index(linear, g.inv()) == 2
        gg = linear.parse_element("2,0;0,1/2")
        assert tidy.scale_index(linear, gg) == 4

    def test_scale_matches_formula_for_rational_conjugates(self, linear):
        g = linear.parse_element("2,0;0,1")
        c = linear.parse_element("1,1;1,2")
        gc = conjugate(c, g)
        assert tidy.scale_index(linear, gc) == linear.scale_formula(gc) == 2

    def test_scale_of_elliptic_element(self, linear):
        assert tidy.scale_index(linear, linear.parse_element("0,1;-1,0")) == 1

    def test_scale_3x3(self):
        model = LinearModel(2, 3)
        g = model.parse_element("4,0,0;0,2,0;0,0,1")
        assert tidy.scale_index(model, g) == 16 == model.scale_formula(g)


class TestMembership:
    def test_con_membership_exact(self, shift):
        g = shift_generator(2, 1)
        assert tidy.con_membership(shift, g, lamp_element(2, {4: 1})) is True
        assert tidy.con_membership(shift, g, g) is False

    def test_par_membership(self, linear):
        g = linear.parse_element("2,0;0,1")
        assert tidy.par_membership(linear, g, linear.parse_element("1,1;0,1")) is True
        assert tidy.par_membership(linear, g, linear.parse_element("1,0;1,1")) is False

    def test_membership_without_an_oracle(self, linear):
        # The eigenvalues of g lie in Q_2 but not in Q: no exact oracle.
        g = linear.parse_element("0,-2;1,-1")
        x = linear.parse_element("1048577,0;0,1")
        assert tidy.con_membership(linear, g, x) == tidy.INCONCLUSIVE
        assert tidy.par_membership(linear, g, x) == tidy.INCONCLUSIVE
        assert tidy.con_membership(linear, g, linear.identity) is True
        assert tidy.par_membership(linear, g, linear.identity) is True

    def test_trajectory_contraction_at_resolution(self, linear):
        g = linear.parse_element("2,0;0,1")
        x = linear.parse_element("1,1;0,1")
        assert trajectory_contracts(linear, g, x, K=4, N=10)
        y = linear.parse_element("1,0;1,1")
        assert not trajectory_contracts(linear, g, y, K=4, N=10)


class TestNub:
    def test_shift_nub_is_full(self, shift):
        g = shift_generator(2, 1)
        image, report = tidy.nub_compute(shift, g, 3)
        assert all(report.values())
        assert image.elements == shift.reference().window_image(3).elements

    def test_lamp_nub_is_trivial(self, shift):
        image, report = tidy.nub_compute(shift, lamp_element(2, {0: 1}), 3)
        assert all(report.values()) and image.order == 1

    def test_linear_nubs_are_trivial(self, linear):
        for text in ["2,0;0,1", "2,0;0,1/2", "0,1;-1,0"]:
            image, report = tidy.nub_compute(linear, linear.parse_element(text), 2)
            assert all(report.values()) and image.order == 1


class TestIdentityReport:
    def test_shift_identities(self, shift):
        g = shift_generator(2, 1)
        for k in range(3):
            report = tidy.tidy_identity_report(shift, w_subgroup(2, k), g, 4)
            assert report["pass"]
            # W(k) is tidy above but not below, so the tidy-only forms are
            # excluded by the auto-detection.
            assert not report["tidy_form_checked"] or k > 10

    def test_linear_identities_with_tidy_forms(self, linear):
        g = linear.parse_element("2,0;0,1")
        U = ShapeSubgroup(linear.identity, iwahori_shape(2))
        report = tidy.tidy_identity_report(linear, U, g, 4)
        assert report["pass"] and report["tidy_form_checked"]
        assert {row["k"] for row in report["levels"]} == {1, 2, 3, 4}
        for row in report["levels"]:
            assert all(v for key, v in row.items() if key != "k")

    def test_identity_element_report(self, linear):
        report = tidy.tidy_identity_report(
            linear, linear.filtration(1), linear.identity, 2
        )
        assert report["pass"]


class TestSemiDecisionHonesty:
    def test_horizon_exhaustion_is_loud(self, linear):
        g = linear.parse_element("2,0;0,1")
        with pytest.raises(tidy.HorizonExceededError):
            tidy.tidy_above_procedure(linear, linear.reference(), g, max_k=0)
