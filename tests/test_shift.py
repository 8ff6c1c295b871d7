"""The lamp-shift model: group laws, vanish-set subgroups, and oracles."""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import sample_reference, vanish_set

from tdlcw.epseq import EPSeq
from tdlcw.kernel import INF_LEVEL, conjugate
from tdlcw.shift import (
    EVERYWHERE,
    NOWHERE,
    ShiftElement,
    ShiftModel,
    ShiftOpen,
    cleared,
    forward_union,
    lamp_element,
    reference_open,
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

    @settings(max_examples=100, deadline=None)
    @given(factors=st.lists(elements(p=3), min_size=2, max_size=5))
    def test_multi_factor_mul_is_the_chained_product(self, factors):
        x, rest = factors[0], factors[1:]
        chained = x
        for factor in rest:
            chained = chained.mul(factor)
        out = x.mul(*rest)
        assert out == chained
        # (a, m)(b, n) = (a + sigma^m b, m + n), position by position.
        before = [0, *accumulate(f.shift for f in factors)]
        assert out.shift == before[-1]
        for i in range(-20, 21):
            assert out.lamp.value_at(i) == sum(
                f.lamp.value_at(i - m) for f, m in zip(factors, before)) % 3

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


@st.composite
def periodic_sets(draw):
    """A vanish set with periodic tails of period 1 to 3 (a third of them
    rays or no tail) around a core of up to 6 positions in [-8, 8]."""
    tail = st.one_of(st.sampled_from([[0], [1]]), st.lists(st.integers(0, 1), min_size=1,
                                                          max_size=3))
    return EPSeq.make(2, draw(tail), draw(st.lists(st.integers(0, 1), max_size=6)),
                      draw(st.integers(-8, 8)), draw(tail))


class TestVanishSets:
    def test_interval_and_membership(self):
        v = w_subgroup(2, 2).vanish
        assert v == vanish_set(fin=range(-2, 3))
        assert all(v.value_at(i) for i in range(-2, 3))
        assert not v.value_at(-3) and not v.value_at(3)

    def test_rays_absorb_adjacent_points(self):
        v = vanish_set(left=0, fin={1, 5}, right=4)
        assert v == vanish_set(left=1, right=4)
        assert v.value_at(1) and not v.value_at(2) and not v.value_at(3) and v.value_at(5)

    def test_touching_rays_become_everything(self):
        assert vanish_set(left=2, right=3) == EVERYWHERE
        assert ShiftOpen(2, vanish_set(left=2, right=3)) == ShiftModel(2).parse_subgroup(
            "W:all", None)

    def test_union_and_subset(self):
        a, b = ShiftOpen(2, vanish_set(fin=range(0, 3))), ShiftOpen(2, vanish_set(right=5))
        u = a.intersect(b)
        assert u <= a and u <= b
        assert not a <= u
        assert u.vanish == vanish_set(fin=range(0, 3), right=5)

    def test_translate(self):
        v = ShiftModel(2).conj_open(w_subgroup(2, 1), shift_generator(2, 1), 3).vanish
        assert v == vanish_set(fin={2, 3, 4})

    @settings(max_examples=300, deadline=None)
    @given(v=periodic_sets(), w=periodic_sets())
    def test_union_and_subset_are_positionwise(self, v, w):
        u = ShiftOpen(2, v).intersect(ShiftOpen(2, w)).vanish
        span = range(-30, 31)
        assert [u.value_at(i) for i in span] == [v.value_at(i) | w.value_at(i) for i in span]
        assert (ShiftOpen(2, v) <= ShiftOpen(2, w)) == all(
            v.value_at(i) >= w.value_at(i) for i in span)

    @settings(max_examples=300, deadline=None)
    @given(v=periodic_sets(), w=periodic_sets())
    def test_format_tells_sets_apart(self, v, w):
        model = ShiftModel(2)
        texts = model.format_subgroup(ShiftOpen(2, v)), model.format_subgroup(ShiftOpen(2, w))
        assert (texts[0] == texts[1]) == (v == w)
        # Only a tail period above 1 needs the periodic form.
        periodic = len(v.left) > 1 or len(v.right) > 1
        assert texts[0].startswith("vanish-ep:") == periodic

    def test_format_of_named_sets(self):
        model = ShiftModel(2)
        for vanish, text in [
                (w_subgroup(2, 0).vanish, "W:0"), (w_subgroup(2, 3).vanish, "W:3"),
                (NOWHERE, "W:none"), (EVERYWHERE, "W:all"),
                (vanish_set(fin={0, 1}), "vanish:None,[0, 1],None"),
                (vanish_set(fin={-1, 1}), "vanish:None,[-1, 1],None"),
                (vanish_set(left=-1, fin={2}, right=4), "vanish:-1,[2],4"),
                # 0, 2, 4, ...: the empty core's boundary slides left to -1.
                (forward_union(w_subgroup(2, 0).vanish, 2), "vanish-ep:0|@-1|01"),
                (EPSeq.make(2, [1, 0], [0, 0, 1], 3, [0]), "vanish-ep:10|001@3|0")]:
            assert model.format_subgroup(ShiftOpen(2, vanish)) == text


class TestShiftOpen:
    def test_membership_matches_vanishing(self):
        U = w_subgroup(2, 1)
        assert U.contains(lamp_element(2, {3: 1}))
        assert not U.contains(lamp_element(2, {0: 1}))
        assert not U.contains(shift_generator(2, 1))

    def test_ray_conditions_check_the_whole_tail(self):
        U = ShiftOpen(2, vanish_set(right=2))
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


class TestCleared:
    @settings(max_examples=150, deadline=None)
    @given(x=elements(p=3), tails=st.lists(st.integers(0, 2), min_size=1, max_size=3),
           v=periodic_sets())
    def test_cleared_splits_pointwise(self, x, tails, v):
        # Finite lamps, and the same with a periodic tail on each side.
        for a in (x.lamp, x.lamp.add(EPSeq.make(3, tails, [], 0, tails[::-1]))):
            off = cleared(a, v)
            on = off.neg().add(a)
            for i in range(-30, 31):
                assert off.value_at(i) == (0 if v.value_at(i) else a.value_at(i))
                assert on.value_at(i) == (a.value_at(i) if v.value_at(i) else 0)

    def test_cleared_keeps_periodic_tails(self):
        a = EPSeq.make(2, (1,), (0, 1, 1), -1, (0, 1))
        high = cleared(a, vanish_set(left=-1))
        assert high.left_tail_is_zero()
        for i in range(0, 12):
            assert high.value_at(i) == a.value_at(i)


class TestForwardUnion:
    def test_interval_becomes_ray(self):
        v = vanish_set(fin=range(-1, 2))
        assert forward_union(v, 1) == vanish_set(right=-1)
        assert forward_union(v, -1) == vanish_set(left=1)

    def test_gaps_give_periodic_tails(self):
        # W(0) under shift:2: U_+ vanishes on 0, 2, 4, ..., U_- on 0, -2, ...
        v = w_subgroup(2, 0).vanish
        assert forward_union(v, 2) == EPSeq.make(2, [0], [], 0, [1, 0])
        assert forward_union(v, -2) == EPSeq.make(2, [1, 0], [1], 0, [0])

    @settings(max_examples=400, deadline=None)
    @given(v=periodic_sets(), m=st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
    def test_closed_form_is_the_union_of_translates(self, v, m):
        span = range(-45, 46)
        union = forward_union(v, m)
        assert tuple(union.value_at(x) for x in span) == oracles.forward_union(v, m, span)


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
        vanish_set(right=1), vanish_set(left=-1), vanish_set(left=-2, right=2),
        vanish_set(fin=range(-1, 2)), vanish_set(fin=range(0, 4)), NOWHERE,
    ], ids=lambda v: ShiftModel(2).format_subgroup(ShiftOpen(2, v)))
    def test_unions_match_the_definition(self, vanish, m):
        # A ray of the vanish set on the expanding side makes U_- (or U_+)
        # trivial, and then its union is trivial too.
        g = shift_generator(2, m)
        parts = ShiftModel(2).u_parts_symbolic(ShiftOpen(2, vanish), g)
        for x in self.lamps(random.Random(3), 40):
            assert (parts.u_mm.contains(x), parts.u_pp.contains(x)) == (
                oracles.in_translate_unions(parts, g, x, 20))

    @pytest.mark.parametrize("m", [2, -2, 3, -3])
    def test_the_deciding_member_has_passed_the_lamp(self, m):
        # W(0) under shift:m: U_- vanishes on 0, -m, -2m, ...; a lamp at
        # -m j leaves the translates of that set only past the lamp, and a
        # lamp in another class mod m lies in U_- already.
        g = shift_generator(2, m)
        parts = ShiftModel(2).u_parts_symbolic(w_subgroup(2, 0), g)
        for i in range(-9, 10):
            x = lamp_element(2, {i: 1})
            assert (parts.u_mm.contains(x), parts.u_pp.contains(x)) == (
                oracles.in_translate_unions(parts, g, x)) == (True, True)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), vanish=periodic_sets(), p=st.sampled_from([2, 3]),
           m=st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
    def test_unions_of_periodic_sets_match_the_conjugates(self, data, vanish, p, m):
        g = shift_generator(p, m)
        parts = ShiftModel(p).u_parts_symbolic(ShiftOpen(p, vanish), g)
        digits = st.lists(st.integers(0, p - 1), max_size=3)
        tail = st.one_of(st.just([0]), digits.filter(bool))
        for _ in range(3):
            lamp = EPSeq.make(p, data.draw(tail), data.draw(digits), data.draw(st.integers(-8, 8)),
                              data.draw(tail))
            x = ShiftElement(lamp, 0)
            assert (parts.u_mm.contains(x), parts.u_pp.contains(x)) == (
                oracles.in_translate_unions(parts, g, x))


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
    common period beyond every boundary the digits and the vanish set
    repeat, so the window [-B, B] decides."""
    if x.shift != 0:
        return False
    a, v = x.lamp, U.vanish
    ends = [a.offset, a.end, v.offset, v.end]
    periods = len(a.left) * len(v.left) + len(a.right) * len(v.right)
    bound = max(map(abs, ends)) + periods + 1
    return all(a.value_at(i) == 0 for i in range(-bound, bound + 1) if v.value_at(i))


@st.composite
def vanish_cases(draw):
    """(U, x): a vanish set with rays or periodic tails and a contiguous or
    gapped core, and a lamp configuration with periodic tails."""
    p = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        if draw(st.booleans()):
            lo = draw(st.integers(-6, 6))
            fin = range(lo, lo + draw(st.integers(0, 6)))
        else:
            fin = draw(st.frozensets(st.integers(-8, 8), max_size=6))
        left = draw(st.one_of(st.none(), st.integers(-12, 4)))
        right = draw(st.one_of(st.none(), st.integers(-4, 12)))
        vanish = vanish_set(left, fin, right)
    else:
        vanish = draw(periodic_sets())
    U = ShiftOpen(p, vanish)
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
