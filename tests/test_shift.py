"""The lamp-shift model: group laws, vanish-set subgroups, and oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sample_reference

from tdlcw.epseq import EPSeq
from tdlcw.kernel import INF_LEVEL, conjugate
from tdlcw.shift import (
    ShiftElement,
    ShiftModel,
    ShiftOpen,
    VanishSet,
    forward_vanish_union,
    lamp_element,
    reference_open,
    restrict_left,
    restrict_right,
    shift_generator,
    shift_identity,
    w_subgroup,
)


@st.composite
def elements(draw, p=2):
    support = draw(
        st.dictionaries(st.integers(-5, 5), st.integers(1, p - 1), max_size=5)
    )
    shift = draw(st.integers(-3, 3))
    return ShiftElement(EPSeq.from_support(p, support), shift)


class TestGroupLaws:
    @settings(max_examples=150, deadline=None)
    @given(x=elements(), y=elements(), z=elements())
    def test_associativity(self, x, y, z):
        assert x.mul(y).mul(z) == x.mul(y.mul(z))

    @settings(max_examples=150, deadline=None)
    @given(x=elements())
    def test_inverses(self, x):
        e = shift_identity(2)
        assert x.mul(x.inv()) == e
        assert x.inv().mul(x) == e

    def test_semidirect_action(self):
        # Conjugating a lamp by the shift moves its support.
        g = shift_generator(2, 1)
        x = lamp_element(2, {0: 1})
        conj = g.mul(x).mul(g.inv())
        assert conj == lamp_element(2, {1: 1})

    def test_lamp_order_p(self):
        x = lamp_element(3, {2: 1})
        assert x.mul(x).mul(x) == shift_identity(3)


class TestVanishSet:
    def test_interval_and_membership(self):
        v = VanishSet.interval(-2, 2)
        assert all(i in v for i in range(-2, 3))
        assert -3 not in v and 3 not in v

    def test_rays_absorb_adjacent_points(self):
        v = VanishSet.make(left=0, fin={1, 5}, right=4)
        assert 1 in v and 5 in v
        assert v.fin == frozenset()
        assert v.left == 1 and v.right == 4

    def test_touching_rays_become_everything(self):
        v = VanishSet.make(left=2, right=3)
        assert v.everything

    def test_union_and_subset(self):
        a = VanishSet.interval(0, 2)
        b = VanishSet.make(right=5)
        u = a.union(b)
        assert a <= u and b <= u
        assert not u <= a

    def test_translate(self):
        v = VanishSet.interval(-1, 1).translate(3)
        assert v.fin == frozenset({2, 3, 4})


class TestShiftOpen:
    def test_membership_matches_vanishing(self):
        U = w_subgroup(2, 1)
        assert U.contains(lamp_element(2, {3: 1}))
        assert not U.contains(lamp_element(2, {0: 1}))
        assert not U.contains(shift_generator(2, 1))

    def test_ray_conditions_check_the_whole_tail(self):
        U = ShiftOpen(2, VanishSet.make(right=2))
        periodic = ShiftElement(EPSeq.make(2, (0,), (), 0, (0, 1)), 0)
        assert not U.contains(periodic)
        assert U.contains(lamp_element(2, {-4: 1, 1: 1}))

    def test_window_image_orders(self):
        # W(k) at resolution K leaves 2K - 2k free coordinates.
        for k in range(3):
            img = w_subgroup(2, k).window_image(3)
            assert img.order == 2 ** (2 * 3 - 2 * k)
        assert reference_open(2).window_image(2).order == 2**5

    def test_nesting(self):
        assert w_subgroup(2, 2) <= w_subgroup(2, 1)
        assert not w_subgroup(2, 1) <= w_subgroup(2, 2)


class TestRestrictions:
    @settings(max_examples=150, deadline=None)
    @given(x=elements(), cutoff=st.integers(-6, 6))
    def test_restrict_splits_pointwise(self, x, cutoff):
        a = x.lamp
        high = restrict_right(a, cutoff)
        low = restrict_left(a, cutoff - 1)
        for i in range(-12, 13):
            assert high.value_at(i) == (a.value_at(i) if i >= cutoff else 0)
            assert low.value_at(i) == (a.value_at(i) if i < cutoff else 0)
        assert low.add(high) == a

    def test_restrict_keeps_periodic_tails(self):
        a = EPSeq.make(2, (1,), (0, 1, 1), -1, (0, 1))
        high = restrict_right(a, 0)
        assert high.left_tail_is_zero()
        for i in range(0, 12):
            assert high.value_at(i) == a.value_at(i)


class TestForwardVanishUnion:
    def test_interval_becomes_ray(self):
        v = VanishSet.interval(-1, 1)
        out = forward_vanish_union(v, 1)
        assert out.right == -1 and out.left is None
        back = forward_vanish_union(v, -1)
        assert back.left == 1 and back.right is None

    def test_zero_step_is_identity(self):
        v = VanishSet.interval(0, 3)
        assert forward_vanish_union(v, 0) == v


class TestOracles:
    def test_con_oracle(self):
        con_oracle = ShiftModel(2).con_oracle
        g = shift_generator(2, 1)
        assert con_oracle(g, lamp_element(2, {5: 1}))
        periodic_right = ShiftElement(EPSeq.make(2, (0,), (), 0, (1, 0)), 0)
        assert con_oracle(g, periodic_right)
        periodic_left = ShiftElement(EPSeq.make(2, (1, 0), (), 0, (0,)), 0)
        assert not con_oracle(g, periodic_left)
        assert con_oracle(g.inv(), periodic_left)
        assert not con_oracle(g, shift_generator(2, 1))
        assert not con_oracle(shift_identity(2), lamp_element(2, {0: 1}))

    def test_con_oracle_matches_trajectories(self):
        model = ShiftModel(2)
        g = shift_generator(2, 1)
        rng = random.Random(5)
        for x in sample_reference(model, rng, 40):
            expected = x.lamp.left_tail_is_zero()
            assert model.con_oracle(g, x) == expected

    def test_nub_image_full_iff_shifting(self):
        model = ShiftModel(2)
        full = model.reference().window_image(2)
        assert model.nub_image(shift_generator(2, 1), 2).elements == full.elements
        assert model.nub_image(lamp_element(2, {0: 1}), 2).order == 1


class TestTranslateUnions:
    """U_-- and U_++ against their definitions: the unions of the
    g^-i U_- g^i and of the g^i U_+ g^-i over i >= 0."""

    @staticmethod
    def lamps(rng, count):
        """Lamps on [-6, 6], a third of them with a periodic tail of ones
        on the right from 7 and a third on the left up to -8."""
        out = [shift_identity(2), lamp_element(2, {-5: 1}), lamp_element(2, {5: 1})]
        for _ in range(count):
            lamp = EPSeq.from_support(2, {i: 1 for i in range(-6, 7) if rng.random() < 0.3})
            tail = rng.randrange(3)
            if tail == 1:
                lamp = lamp.add(EPSeq.make(2, (0,), (), 7, (1,)))
            elif tail == 2:
                lamp = lamp.add(EPSeq.make(2, (1,), (), -7, (0,)))
            out.append(ShiftElement(lamp, 0))
        return out

    @pytest.mark.parametrize("m", [1, -1, 2, -2])
    @pytest.mark.parametrize("vanish", [
        VanishSet.make(right=1), VanishSet.make(left=-1), VanishSet.make(left=-2, right=2),
        VanishSet.interval(-1, 1), VanishSet.interval(0, 3), VanishSet.empty(),
    ], ids=repr)
    def test_unions_match_the_definition(self, vanish, m):
        # A ray of the vanish set on the expanding side makes U_- (or U_+)
        # trivial, and then its union is trivial too.
        parts = ShiftModel(2).u_parts_symbolic(ShiftOpen(2, vanish), shift_generator(2, m))
        for x in self.lamps(random.Random(3), 40):
            # x lies in g^-i U_- g^i iff g^i x g^-i lies in U_-.
            in_mm = any(parts.u_minus.contains(conjugate(shift_generator(2, i * m), x))
                        for i in range(20))
            in_pp = any(parts.u_plus.contains(conjugate(shift_generator(2, -i * m), x))
                        for i in range(20))
            assert (parts.u_mm.contains(x), parts.u_pp.contains(x)) == (in_mm, in_pp)


class TestModelAdapter:
    def test_proximity_level(self):
        model = ShiftModel(2)
        assert model.proximity_level(model.identity) == INF_LEVEL
        assert model.proximity_level(shift_generator(2, 1)) == -1
        assert model.proximity_level(lamp_element(2, {0: 1})) == -1
        assert model.proximity_level(lamp_element(2, {3: 1})) == 2
        assert model.proximity_level(lamp_element(2, {-3: 1})) == 2

    def test_project_and_project_image(self):
        model = ShiftModel(2)
        x = lamp_element(2, {-1: 1, 2: 1})
        assert model.project(x, 3) == (0, 0, 1, 0, 0, 1, 0)
        img = w_subgroup(2, 1).window_image(3)
        down = img.project(2)
        assert down.elements == w_subgroup(2, 1).window_image(2).elements
        # Oracle: slice the middle five digits of every level-3 element.
        assert down.elements == {c[1:6] for c in img.elements}

    def test_parse_format_roundtrip(self):
        model = ShiftModel(2)
        for text in ["shift:1", "lamp:0,3", "lamp-ep:0|11@-1|10", "lamp:2*shift:-2"]:
            x = model.parse_element(text)
            assert model.parse_element(model.format_element(x)) == x

    def test_power(self):
        model = ShiftModel(2)
        g = shift_generator(2, 1).mul(lamp_element(2, {0: 1}))
        assert model.power(g, 3) == g.mul(g).mul(g)
        assert model.power(g, -2) == g.inv().mul(g.inv())
        assert model.power(g, 0) == model.identity

    def test_net_schedule_shape(self):
        model = ShiftModel(2)
        schedule = model.net_schedule(shift_generator(2, 1), 4)
        for n, U, u in schedule:
            assert U.contains(u)
            assert model.proximity_level(u) == n


def test_unsupported_prime_rejected():
    with pytest.raises(ValueError):
        ShiftModel(11)


def _contains_oracle(U, x):
    """Membership read one position at a time with `value_at`.  Past a
    period beyond every boundary the digits and the vanish set repeat, so
    the window [-B, B] decides."""
    if x.shift != 0:
        return False
    a, v = x.lamp, U.vanish
    ends = [a.offset, a.end, *v.fin, *(e for e in (v.left, v.right) if e is not None)]
    bound = max(map(abs, ends)) + len(a.left) + len(a.right) + 1
    return all(a.value_at(i) == 0 for i in range(-bound, bound + 1) if i in v)


@st.composite
def vanish_cases(draw):
    """(U, x): a vanish set with optional rays and a contiguous or gapped
    finite part, and a lamp configuration with periodic tails."""
    p = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        lo = draw(st.integers(-6, 6))
        fin = range(lo, lo + draw(st.integers(0, 6)))
    else:
        fin = draw(st.frozensets(st.integers(-8, 8), max_size=6))
    left = draw(st.one_of(st.none(), st.integers(-12, 4)))
    right = draw(st.one_of(st.none(), st.integers(-4, 12)))
    U = ShiftOpen(p, VanishSet.make(left, fin, right))
    digits = st.lists(st.integers(0, p - 1), max_size=3)
    tail = st.one_of(st.just([0]), digits)
    lamp = EPSeq.make(p, draw(tail), draw(st.lists(st.integers(0, p - 1), max_size=8)),
                      draw(st.integers(-8, 8)), draw(tail))
    return U, ShiftElement(lamp, draw(st.sampled_from([0, 0, 0, 1])))


@settings(max_examples=400, deadline=None)
@given(case=vanish_cases())
def test_contains_matches_per_position_oracle(case):
    U, x = case
    assert U.contains(x) == _contains_oracle(U, x)


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_w_subgroup_checks_both_ends_of_its_interval(k):
    U = w_subgroup(3, k)
    for i in range(-k - 2, k + 3):
        assert U.contains(lamp_element(3, {i: 2})) == (abs(i) > k)
