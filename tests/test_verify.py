"""Tits-core images, quotient anisotropy, and the normal-closure witness."""

import random

import pytest
from oracles import quotient_contains

from tdlcw import backend, verify
from tdlcw.epseq import EPSeq
from tdlcw.kernel import (
    DEFAULT_CAP,
    SubgroupImage,
    UnsupportedElementError,
    VectorWindow,
    subgroup_closure,
)
from tdlcw.linear import LinearModel
from tdlcw.shift import (
    CoordinateImage,
    ShiftElement,
    ShiftModel,
    lamp_element,
    shift_generator,
)


@pytest.fixture
def shift():
    return ShiftModel(2)


class TestTitsCore:
    def test_shift_core_is_full_at_every_level(self, shift):
        g = shift_generator(2, 1)
        for K in range(4):
            image = verify.tits_core_image(shift, K, [g, g.inv()])
            full = shift.reference().window_image(K)
            assert image.elements == full.elements

    def test_linear_core_contains_sl2(self):
        model = LinearModel(2, 2)
        schedule = [
            model.parse_element("2,0;0,1"),
            model.parse_element("1,0;0,2"),
        ]
        image = verify.tits_core_image(model, 1, schedule)
        sl2 = subgroup_closure(model.window(1), [((1, 1), (0, 1)), ((1, 0), (1, 1))])
        assert sl2.elements <= image.elements

    def test_empty_schedule_gives_trivial_core(self, shift):
        image = verify.tits_core_image(shift, 2, [])
        assert image.order == 1

    def test_nested_images_give_the_top_one(self):
        # Con-closure images nested by their free coordinates: the core is
        # the largest, returned as it is, with no closure formed.
        model = _StubModel({0: {3}, 1: {2, 3}, 2: {3}, 3: set()})
        image = verify.tits_core_image(model, 3, [0, 1, 2, 3])
        assert image is model.images[1]

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_incomparable_images_give_their_closure(self, K):
        window = VectorWindow(2, 2 * K + 1)
        model = _StubModel({0: {0}, 1: {1, 2}, 2: {2}}, K)
        image = verify.tits_core_image(model, K, [0, 1, 2])
        gens = set().union(*(im.elements for im in model.images.values()))
        assert image.elements == frozenset(backend.closure(window, list(gens), DEFAULT_CAP))
        assert image.order == 8


class _StubModel:
    """A model whose con-closure image of each schedule key is the
    coordinate image free on the given positions."""

    def __init__(self, free, K=3):
        self.K = K
        self.images = {key: CoordinateImage(self.window(K), frozenset(f))
                       for key, f in free.items()}

    def window(self, K):
        return VectorWindow(2, 2 * K + 1)

    def con_closure_image(self, g, K):
        assert K == self.K
        return self.images[g]


class TestQuotientDescriptor:
    def test_lamp_quotient(self, shift):
        q = verify.QuotientDescriptor(shift, "lamp")
        assert quotient_contains(q, lamp_element(2, {0: 1}))
        assert not quotient_contains(q, shift_generator(2, 1))
        assert q.quotient_con_trivial(shift_generator(2, 1), 3)

    def test_trivial_quotient(self, shift):
        q = verify.QuotientDescriptor(shift, "trivial")
        assert quotient_contains(q, shift.identity)
        assert not quotient_contains(q, lamp_element(2, {0: 1}))
        assert not q.quotient_con_trivial(shift_generator(2, 1), 3)
        assert q.quotient_con_trivial(lamp_element(2, {0: 1}), 3)

    @pytest.mark.parametrize("kind, reason", [
        ("lamp", "N is the kernel of x -> x.shift"), ("trivial", "N = {1}")])
    def test_normality_decided(self, shift, kind, reason):
        q = verify.QuotientDescriptor(shift, kind)
        assert q.normal_check() == {"pass": True, "reason": reason}

    @pytest.mark.parametrize("model", [ShiftModel(2), LinearModel(2, 2)],
                             ids=["shift", "linear"])
    def test_trivial_n_image(self, model):
        # N = 1 has the trivial image at every level.
        q = verify.QuotientDescriptor(model, "trivial")
        for K in range(model.min_level, 4):
            assert q.n_image(K) == SubgroupImage(model.window(K))

    def test_unknown_kind_rejected(self, shift):
        with pytest.raises(UnsupportedElementError):
            verify.QuotientDescriptor(shift, "mystery")

    def test_lamp_kind_needs_shift_model(self):
        with pytest.raises(UnsupportedElementError):
            verify.QuotientDescriptor(LinearModel(2, 2), "lamp")


class TestQuotientAnisotropy:
    def test_bidirectional(self, shift):
        g = shift_generator(2, 1)
        schedule = [g, g.inv(), g.mul(lamp_element(2, {0: 1}))]
        # Core inside N <=> all quotient contraction groups trivial, in
        # both directions: true/true for the lamp quotient, false/false
        # for the trivial one.
        lamp_q = verify.QuotientDescriptor(shift, "lamp")
        report = verify.quotient_anisotropy_check(lamp_q, schedule, K=4)
        assert report["pass"]
        assert report["core_in_n"] and report["quotient_con_trivial"]

        triv_q = verify.QuotientDescriptor(shift, "trivial")
        report = verify.quotient_anisotropy_check(triv_q, schedule, K=4)
        assert report["pass"]
        assert not report["core_in_n"] and not report["quotient_con_trivial"]


    def test_trivial_pushforward_detects_incoherent_images(
            self, shift, monkeypatch):
        # A con-closure image that is wrong at level K + 1 only: projected
        # to level K it no longer matches, so the N = 1 pushforward fails.
        g = shift_generator(2, 1)
        schedule = [g, g.inv(), g.mul(lamp_element(2, {0: 1}))]
        q = verify.QuotientDescriptor(shift, "trivial")
        assert verify.quotient_anisotropy_check(q, schedule, K=4)["pass"]
        true_image = shift.con_closure_image

        def wrong_at_5(h, K):
            if K == 5:
                return SubgroupImage(shift.window(K))
            return true_image(h, K)

        monkeypatch.setattr(shift, "con_closure_image", wrong_at_5)
        report = verify.quotient_anisotropy_check(q, schedule, K=4)
        assert not any(r["pushforward"] for r in report["pushforward_rows"])
        assert report["equivalence"] and not report["pass"]


class TestNormalClosureWitness:
    def test_explicit_example(self):
        b = EPSeq.from_support(2, {0: 1})
        a, ok = verify.normal_closure_witness(b)
        assert ok
        # a is the indicator of [0, inf): a - shift(a) = b.
        assert a.value_at(0) == 1 and a.value_at(-1) == 0
        assert a.add(a.shift(1).neg()) == b

    def test_random_supports(self):
        rng = random.Random(13)
        for p in (2, 3):
            g = shift_generator(p, 1)
            for _ in range(50):
                support = {
                    i: rng.randrange(1, p)
                    for i in range(-10, 11)
                    if rng.random() < 0.3
                }
                b = EPSeq.from_support(p, support)
                a, ok = verify.normal_closure_witness(b)
                assert ok
                a_elem = ShiftElement(a, 0)
                lhs = a_elem.mul(g).mul(a_elem.inv()).mul(g.inv())
                assert lhs == ShiftElement(b, 0)

    def test_periodic_right_tail(self):
        b = EPSeq.make(3, (0,), (1,), 0, (1, 2))
        _, ok = verify.normal_closure_witness(b)
        assert ok

    def test_nonzero_left_tail_rejected(self):
        b = EPSeq.make(2, (1,), (), 0, (0,))
        with pytest.raises(UnsupportedElementError):
            verify.normal_closure_witness(b)

    def test_type_checked(self):
        with pytest.raises(TypeError):
            verify.normal_closure_witness(lamp_element(2, {0: 1}))
