"""Tidiness procedures, scale, contraction membership, and the nub."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import trajectory_contracts

from tdlcw import backend, tidy
from tdlcw.kernel import INF_LEVEL, UnsupportedElementError, conjugate
from tdlcw.linear import LinearModel, ShapeSubgroup, iwahori_shape
from tdlcw.shift import (
    ShiftModel,
    ShiftOpen,
    VanishSet,
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

    def test_procedure_terminates_at_iwahori(self, linear):
        g = linear.parse_element("2,0;0,1")
        V, k, _ = tidy.tidy_above_procedure(linear, linear.reference(), g)
        assert k == 1
        assert V.shape == iwahori_shape(2)

    def test_procedure_returns_the_parts_of_its_subgroup(self, linear):
        g = linear.parse_element("2,0;0,1")
        V, _, parts = tidy.tidy_above_procedure(linear, linear.reference(), g)
        assert parts == tidy.u_parts(linear, V, g)

    def test_procedure_raises_without_symbolic_parts(self, shift):
        # The translates of W:0 by shift:2 leave gaps, which vanish-set
        # parts cannot express; no later k is tried.
        with pytest.raises(UnsupportedElementError):
            tidy.tidy_above_procedure(shift, w_subgroup(2, 0), shift_generator(2, 2))

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
    @given(left=st.sampled_from([None, -3, -1]), right=st.sampled_from([None, 1, 3]),
           fin=st.sets(st.integers(-3, 3)), m=st.sampled_from([1, -1, 2, -2]))
    def test_certificate_matches_window_images(self, left, right, fin, m):
        # U_-- meets U beyond U_- exactly when some backward conjugate
        # g^-j U_- g^j, read at level K, has an element of U outside U_-.
        shift, K = ShiftModel(2), 4
        U, g = ShiftOpen(2, VanishSet.make(left, fin, right)), shift_generator(2, m)
        try:
            parts = tidy.u_parts(shift, U, g)
        except UnsupportedElementError:
            return
        u_img, um_img = U.window_image(K), parts.u_minus.window_image(K)
        found = set()
        for j in range(2 * K + 8):
            inside = shift.conj_open(parts.u_minus, g, -j).window_image(K) & u_img
            found |= {c for c in inside.elements if c not in um_img}
        below, witness = tidy.is_tidy_below(shift, U, g, parts)
        assert below is not found
        if below is False:
            assert U.contains(witness) and parts.u_mm.contains(witness)
            assert not parts.u_minus.contains(witness)
            if abs(witness.lamp.offset) <= K:
                assert shift.project(witness, K) in found

    @pytest.mark.parametrize("vanish, m, witness", [
        # A ray on the contracting side: U_- = U.
        (VanishSet.make(left=0), 1, None),
        (VanishSet.make(right=0), -1, None),
        # Only the position next to the bound lies in U_-'s ray outside V.
        (VanishSet.make(left=0, fin={2}), 1, "lamp:1"),
        (VanishSet.make(right=0, fin={-2}), -1, "lamp:-1"),
        # W(1): the witness the tidy-identities battery prints.
        (VanishSet.interval(-1, 1), 1, "lamp:-2"),
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
