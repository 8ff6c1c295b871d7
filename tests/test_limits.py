"""Conjugator construction, transports, and the convergence instruments."""

import json
import random
from fractions import Fraction

import pytest
from oracles import sample_con_elements, stage_conjugator

from tdlcw import cli, limits, tidy
from tdlcw import linear as linear_module
from tdlcw.kernel import SubgroupImage, TdlcwError, WindowMismatchError, conjugate
from tdlcw.linear import LinearModel, ShapeSubgroup, iwahori_shape
from tdlcw.shift import ShiftModel, lamp_element, shift_generator, w_subgroup


@pytest.fixture
def shift():
    return ShiftModel(2)


@pytest.fixture
def linear():
    return LinearModel(2, 2)


def replace(value, **changes):
    """A copy of a value-class instance with some fields changed, rebuilt
    positionally from its `__slots__`."""
    cls = type(value)
    assert changes.keys() <= set(cls.__slots__)
    return cls(*(changes.get(name, getattr(value, name)) for name in cls.__slots__))


def _iwahori(model, g):
    return ShapeSubgroup(model.eigen_data(g)[0], iwahori_shape(model.n))


class TestForwardConjugator:
    def test_shift_trace_replays(self, shift):
        g = shift_generator(2, 1)
        u = lamp_element(2, {2: 1})
        trace = limits.conjugator_forward(shift, g, u, w_subgroup(2, 1), 12)
        assert trace.replay(shift)
        parts = tidy.u_parts(shift, w_subgroup(2, 1), g)
        assert parts.u_plus.contains(trace.t)

    def test_linear_trace_replays(self, linear):
        g = linear.parse_element("2,0;0,1")
        U = _iwahori(linear, g)
        u = linear.parse_element("1,0;2,1")
        trace = limits.conjugator_forward(linear, g, u, U, 10)
        assert trace.replay(linear)
        assert tidy.u_parts(linear, U, g).u_plus.contains(trace.t)

    def test_u_outside_subgroup_rejected(self, shift):
        g = shift_generator(2, 1)
        with pytest.raises(limits.HypothesisError):
            limits.conjugator_forward(
                shift, g, lamp_element(2, {0: 1}), w_subgroup(2, 1), 5
            )

    def test_replay_detects_tampering(self, shift):
        g = shift_generator(2, 1)
        u = lamp_element(2, {2: 1})
        trace = limits.conjugator_forward(shift, g, u, w_subgroup(2, 1), 6)
        bad = replace(trace, t=lamp_element(2, {3: 1}))
        assert not bad.replay(shift)


#: (model, g, u, a nontrivial element of U) per model; U is W:1 for the
#: shift model and the Iwahori subgroup for g otherwise, and u lies in both
#: U and g^-1 U g.
CASES = {
    "shift-2": (ShiftModel(2), None, "lamp:2", "lamp:5"),
    "linear-2-2": (LinearModel(2, 2), "2,0;0,1", "1,0;4,1", "1,2;0,1"),
    "linear-2-3": (LinearModel(2, 3), "4,0,0;0,2,0;0,0,1",
                   "-1,2,-2;-2,1,-2;4,-2,-1", "1,2,0;0,1,0;0,0,1"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    model, g_text, u_text, v_text = CASES[request.param]
    if g_text is None:
        g, U = shift_generator(2, 1), w_subgroup(2, 1)
    else:
        g = model.parse_element(g_text)
        U = _iwahori(model, g)
    u, v = model.parse_element(u_text), model.parse_element(v_text)
    assert U.contains(v) and not v.is_identity()
    return model, g, u, U, v


def repeated(model, b, k):
    """b^k as the |k|-fold product of b or of b^-1, multiplied on the left:
    the test-side power oracle."""
    step = b if k >= 0 else b.inv()
    out = model.identity
    for _ in range(abs(k)):
        out = step.mul(out)
    return out


class TestPowerTable:
    def test_columns_are_repeated_products(self, case):
        model, g, u, _, _ = case
        gu = g.mul(u)
        table = limits.PowerTable.build(model, g, u, 9)
        for column in (table.gu, table.gu_inv, table.g, table.g_inv):
            assert len(column) == 10
        for k in range(10):
            assert table.gu[k] == repeated(model, gu, k)
            assert table.gu_inv[k] == repeated(model, gu, -k)
            assert table.g[k] == repeated(model, g, k)
            assert table.g_inv[k] == repeated(model, g, -k)

    def test_backward_columns_are_powers_of_the_inverses(self, case):
        model, g, u, _, _ = case
        gu_inv, g_inv = g.mul(u).inv(), g.inv()
        u_back = conjugate(g, u.inv())
        assert g_inv.mul(u_back) == gu_inv
        back = limits.PowerTable.build(model, g, u, 9).backward()
        assert back == limits.PowerTable.build(model, g_inv, u_back, 9)
        for k in range(10):
            assert back.gu[k] == repeated(model, gu_inv, k)
            assert back.gu_inv[k] == repeated(model, gu_inv, -k)
            assert back.g[k] == repeated(model, g_inv, k)
            assert back.g_inv[k] == repeated(model, g_inv, -k)


class TestCertificates:
    def test_power_is_the_repeated_product(self, case):
        model, g, u, _, _ = case
        for base in (g, g.mul(u)):
            for k in range(-30, 31):
                assert model.power(base, k) == repeated(model, base, k)

    def test_certificates_match_naive_powers(self, case):
        model, g, u, U, _ = case
        gu = g.mul(u)

        def naive(x, k):
            return x.inv().mul(repeated(model, gu, k)).mul(x).mul(repeated(model, g, -k))

        trace = limits.conjugator_forward(model, g, u, U, 6)
        assert len(trace.certificates) == 7
        for k, b in enumerate(trace.certificates):
            assert b == naive(trace.t, k)
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        assert list(two.certificates) == list(range(-5, 6))
        for k, b in two.certificates.items():
            assert b == naive(two.r, k)

    def test_replay_detects_a_changed_forward_certificate(self, case):
        model, g, u, U, v = case
        trace = limits.conjugator_forward(model, g, u, U, 6)
        assert trace.replay(model)
        certs = list(trace.certificates)
        certs[3] = certs[3].mul(v)
        bad = replace(trace, certificates=tuple(certs))
        assert not bad.replay(model)

    def test_replay_detects_a_changed_negative_certificate(self, case):
        model, g, u, U, v = case
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        assert two.replay(model)
        certs = dict(two.certificates)
        certs[-2] = certs[-2].mul(v)
        bad = replace(two, certificates=certs)
        assert not bad.replay(model)

    def test_replay_detects_a_changed_first_certificate(self, case):
        model, g, u, U, v = case
        trace = limits.conjugator_forward(model, g, u, U, 6)
        bad = replace(
            trace, certificates=(v,) + trace.certificates[1:])
        assert not bad.replay(model)
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        assert not replace(
            two, certificates={**two.certificates, 0: v}).replay(model)

    def test_induction_needs_b0_to_be_one(self, case):
        # b'_k = c^k v g^-k obeys every step b'_{k+1} = c b'_k g^-1 and lies
        # in U; only b'_0 = v != 1 is wrong.  (The closed-form check at k = N
        # would also reject it, so the induction is tested alone.)
        model, g, u, U, v = case
        trace = limits.conjugator_forward(model, g, u, U, 6)
        t = trace.t
        c = t.inv().mul(g.mul(u)).mul(t)
        shifted = {k: repeated(model, c, k).mul(v).mul(repeated(model, g, -k))
                   for k in range(7)}
        assert all(U.contains(b) for b in shifted.values())
        assert limits._induction_holds(
            model, trace, t, dict(enumerate(trace.certificates)), (1,))
        assert not limits._induction_holds(model, trace, t, shifted, (1,))
        bad = replace(
            trace, certificates=tuple(shifted[k] for k in range(7)))
        assert not bad.replay(model)

    def test_replay_detects_a_missing_or_extra_key(self, case):
        model, g, u, U, _ = case

        def next_certificate(x, b):
            # The true b_{k+1} = c b_k g^-1, c = x^-1 (gu) x.
            c = x.inv().mul(g.mul(u)).mul(x)
            return c.mul(b).mul(g.inv())

        trace = limits.conjugator_forward(model, g, u, U, 6)
        certs = trace.certificates
        b_7 = next_certificate(trace.t, certs[6])
        assert U.contains(b_7)
        for bad_certs in (certs[:-1], certs + (b_7,)):
            assert not replace(
                trace, certificates=bad_certs).replay(model)
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        missing = {k: b for k, b in two.certificates.items() if k != -3}
        extra = {**two.certificates,
                 6: next_certificate(two.r, two.certificates[5])}
        assert U.contains(extra[6])
        for bad_certs in (missing, extra):
            assert not replace(
                two, certificates=bad_certs).replay(model)

    def test_replay_detects_a_changed_conjugator(self, case):
        model, g, u, U, v = case
        trace = limits.conjugator_forward(model, g, u, U, 6)
        assert not replace(
            trace, t=trace.t.mul(v)).replay(model)
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        assert not replace(
            two, r=two.r.mul(v)).replay(model)

    @pytest.mark.parametrize("two_sided", [False, True])
    def test_escape_names_the_first_failing_k(self, monkeypatch, two_sided):
        # A split that never corrects t leaves b_k = (gu)^k g^-k, which
        # first escapes the Iwahori subgroup at k = 3.
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,1")
        u = model.parse_element("1,0;4,1")
        monkeypatch.setattr(LinearModel, "split",
                            lambda self, x, U, g, parts: (x, self.identity))
        build = limits.conjugator_two_sided if two_sided else limits.conjugator_forward
        with pytest.raises(limits.HypothesisError, match=r"^certificate b_3 escapes U$"):
            build(model, g, u, _iwahori(model, g), 8)

    def test_two_sided_escape_checks_k_below_zero_first(self, monkeypatch):
        # Both forward constructions succeed; the final split is replaced
        # by w_- = ((1,8),(0,1)) ((1,0),(1,1)) in U, so r = t w_- gives
        # certificates escaping at k = -3..-8 and at k = 1..8.  The k <= 0
        # side is checked first, from k = 0 down.
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,1")
        u = model.parse_element("1,0;4,1")
        U = _iwahori(model, g)
        w = model.parse_element("1,8;0,1").mul(model.parse_element("1,0;1,1"))
        assert U.contains(w)
        built = []
        construct, split = limits._stage_conjugator, LinearModel.split

        def counting_construct(*args, **kwargs):
            built.append(construct(*args, **kwargs))
            return built[-1]

        def final_split(self, x, U, g, parts):
            if len(built) == 2:
                return w, self.identity
            return split(self, x, U, g, parts)

        monkeypatch.setattr(limits, "_stage_conjugator", counting_construct)
        monkeypatch.setattr(LinearModel, "split", final_split)
        with pytest.raises(limits.HypothesisError, match=r"^certificate b_-3 escapes U$"):
            limits.conjugator_two_sided(model, g, u, U, 8)
        assert len(built) == 2

    def test_backward_escape_is_caught_by_r_at_the_same_k(self, monkeypatch):
        # The split of the backward run's last step (call 2N) is multiplied
        # by v = ((1,2),(0,1)) in U: its conjugator s passes every step and
        # the U_+ check, but b_-6(s) escapes U.  The backward run forms no
        # final certificates; r = s w_+^-1 escapes at the same k.
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,1")
        u = model.parse_element("1,0;4,1")
        U = _iwahori(model, g)
        v = model.parse_element("1,2;0,1")
        N = 6
        built, calls = [], []
        construct, split = limits._stage_conjugator, LinearModel.split

        def counting_construct(*args, **kwargs):
            built.append(construct(*args, **kwargs))
            return built[-1]

        def faulty_split(self, x, U, g, parts):
            calls.append(x)
            w_minus, w_plus = split(self, x, U, g, parts)
            if len(calls) == 2 * N:
                return w_minus, w_plus.mul(v)
            return w_minus, w_plus

        monkeypatch.setattr(limits, "_stage_conjugator", counting_construct)
        monkeypatch.setattr(LinearModel, "split", faulty_split)
        with pytest.raises(limits.HypothesisError, match=r"^certificate b_-6 escapes U$"):
            limits.conjugator_two_sided(model, g, u, U, N)
        assert len(built) == 2 and len(calls) == 2 * N + 1
        s = built[1]
        s_inv = s.inv()
        powers = limits.PowerTable.build(model, g, u, N)
        for k in range(0, -N, -1):
            powers.certificate(model, U, k, s, s_inv)
        with pytest.raises(limits.HypothesisError, match=r"^certificate b_-6 escapes U$"):
            powers.certificate(model, U, -N, s, s_inv)

    def test_right_factors_in_u_plus_keep_k_below_zero_membership(self, case):
        # For k <= 0 and w in U_+, b_k(x w) lies in U exactly when b_k(x)
        # does: why the backward run needs no final certificates.
        model, g, u, U, v = case
        gu = g.mul(u)

        def in_u(x, k):
            b = x.inv().mul(repeated(model, gu, k)).mul(x).mul(repeated(model, g, -k))
            return U.contains(b)

        u_plus = tidy.u_parts(model, U, g).u_plus
        candidates = (limits.conjugator_forward(model, g, u, U, 6).t,
                      conjugate(model.power(g, -5), u))
        ws = [w for w in candidates if u_plus.contains(w) and not w.is_identity()]
        assert ws
        verdicts = []
        for x in (model.identity, v, v.inv(), u, v.mul(u)):
            for k in range(0, -7, -1):
                verdicts.append(in_u(x, k))
                assert all(in_u(x.mul(w), k) == verdicts[-1] for w in ws)
        assert not all(verdicts)


class TestTwoSidedConjugator:
    def test_shift_two_sided(self, shift):
        g = shift_generator(2, 1)
        u = lamp_element(2, {2: 1})
        two = limits.conjugator_two_sided(shift, g, u, w_subgroup(2, 1), 10)
        assert two.replay(shift)
        assert set(two.certificates) == set(range(-10, 11))

    def test_linear_two_sided(self, linear):
        g = linear.parse_element("2,0;0,1")
        U = _iwahori(linear, g)
        u = linear.parse_element("1,0;4,1")
        two = limits.conjugator_two_sided(linear, g, u, U, 8)
        assert two.replay(linear)

    def test_hypothesis_checked(self, linear):
        g = linear.parse_element("2,0;0,1")
        U = _iwahori(linear, g)
        # In U but its conjugate escapes U (the (1,0) entry loses a level
        # of integrality): the two-sided hypothesis fails.
        u = linear.parse_element("1,0;1,1")
        assert U.contains(u) and not U.contains(conjugate(g, u))
        with pytest.raises(limits.HypothesisError):
            limits.conjugator_two_sided(linear, g, u, U, 6)


def _stage_family():
    """(model, g, U, u) over which the stage is held to its per-step oracle:
    shift and 2x2 elements at every p, 2x2 elements whose eigenbasis is not
    the identity, and diagonal elements whose valuations are not sorted,
    with U in the identity basis, so that the split's permutation is real."""
    out = []
    for p in (2, 3, 5, 7):
        model = ShiftModel(p)
        for g_text in ("shift:1", "shift:3", "lamp:0*shift:1"):
            g = model.parse_element(g_text)
            for u_text in ("lamp:2", "lamp:3,5", "lamp:-8,-7,-5,-3,2,4,6,7", "lamp:-2", "lamp:1"):
                out.append((model, g, model.default_subgroup(g), model.parse_element(u_text)))
        model = LinearModel(p, 2)
        for g_text in sorted({f"{p},0;0,1", "2,1;0,1", f"{p},1;0,1", f"1,0;0,{p}"}):
            g = model.parse_element(g_text)
            out += _linear_cases(model, g, model.default_subgroup(g))
        out += _linear_cases(model, model.parse_element(f"1,0;0,{p}"),
                             ShapeSubgroup(model.identity, ((0, 0), (1, 0))))
    model = LinearModel(2, 3)
    g = model.parse_element("4,0,0;0,2,0;0,0,1")
    out += _linear_cases(model, g, model.default_subgroup(g))
    out.append((model, g, model.default_subgroup(g),
                model.parse_element("-1,2,-2;-2,1,-2;4,-2,-1")))
    model = LinearModel(3, 3)
    g = model.parse_element("1,0,0;0,9,0;0,0,3")
    # The Iwahori shape of the eigenbasis (e_1, e_2, e_0), in the identity
    # basis: the same subgroup, reached through a permutation in the split.
    permuted = ShapeSubgroup(model.identity, ((0, 0, 0), (1, 0, 1), (1, 0, 0)))
    assert permuted.window_image(2) == model.default_subgroup(g).window_image(2)
    for U in (model.default_subgroup(g), permuted):
        out += _linear_cases(model, g, U)
    return out


def _linear_cases(model, g, U):
    """(model, g, U, u) for u = I + c E_(n-1, 0) in g's eigencoordinates,
    c = p^2, p, 1: in U and g^-1 U g, or not."""
    return [(model, g, U, model.unipotent(g, model.p ** e)) for e in (2, 1, 0)]


def _outcome(build, stage, *args):
    """The stages built and the result of build(*args) with `stage` as the
    package's stage, or the class and message of the error it raised."""
    built = []

    def spy(*stage_args):
        built.append(stage(*stage_args))
        return built[-1]

    real = limits._stage_conjugator
    limits._stage_conjugator = spy
    try:
        return built, build(*args)
    except TdlcwError as exc:
        return built, (type(exc), str(exc))
    finally:
        limits._stage_conjugator = real


def _both_outcomes(build, *args):
    """`_outcome` of the package's stage and of the per-step oracle."""
    return (_outcome(build, limits._stage_conjugator, *args),
            _outcome(build, stage_conjugator, *args))


class TestStageAgainstOracle:
    """The stage carries h = g w_- g^-1 and P = P w_+^-1 g^-1 from step to
    step; the oracle forms h from the powers of gu and g and checks each
    b_n explicitly.  t, s, r, the certificates and the first failure must
    be the same."""

    @pytest.mark.parametrize("N", [0, 1, 2, 12, 24])
    def test_stage_equals_the_per_step_oracle(self, N):
        outcomes = set()
        for model, g, U, u in _stage_family():
            for build in (limits.conjugator_forward, limits.conjugator_two_sided):
                ours, oracle = _both_outcomes(build, model, g, u, U, N)
                assert ours == oracle, (model.name, model.p, g, u, U, build.__name__)
                outcomes.add(type(ours[1]).__name__)
                if build is limits.conjugator_two_sided and isinstance(ours[1], limits.TwoSidedTrace):
                    assert len(ours[0]) == 2 and ours[0][0] == ours[1].forward.t
        # The family holds successful runs of both builders and failures.
        assert outcomes == {"ConjugatorTrace", "TwoSidedTrace", "tuple"}

    @pytest.mark.parametrize("model", [ShiftModel(2), LinearModel(2, 2)], ids=["shift", "linear"])
    @pytest.mark.parametrize("side", ["forward", "backward"])
    def test_escape_at_a_chosen_step_matches_the_oracle(self, model, side, monkeypatch):
        # Step n0's split returns (w_- v, v^-1 w_+) with v in U_+ of its run
        # and g v g^-1 outside U: the product is right and t stays in U_+,
        # but the next step's input u h leaves U, so b_(n0+1) escapes.  At
        # n0 = N - 1 no step follows, and the final certificates catch it.
        N = 6
        g = model.default_element()
        U = model.default_subgroup(g)
        u = (lamp_element(2, {2: 1}) if model.name == "shift"
             else model.parse_element("1,0;4,1"))
        parts = tidy.u_parts(model, U, g)
        h, plus = (g, parts.u_plus) if side == "forward" else (g.inv(), parts.u_minus)
        candidates = ([lamp_element(2, {i: 1}) for i in range(-4, 5)] if model.name == "shift"
                      else [model.parse_element(x) for x in ("1,2;0,1", "1,0;1,1")])
        v = next(v for v in candidates if plus.contains(v) and not U.contains(conjugate(h, v)))
        split = type(model).split
        for n0 in (0, 1, 3, N - 1):
            calls = []
            chosen = n0 if side == "forward" else N + n0

            def faulty_split(self, x, U, g, parts):
                calls.append(x)
                w_minus, w_plus = split(self, x, U, g, parts)
                if len(calls) == chosen + 1:
                    return w_minus.mul(v), v.inv().mul(w_plus)
                return w_minus, w_plus

            monkeypatch.setattr(type(model), "split", faulty_split)
            builds = ((limits.conjugator_forward, limits.conjugator_two_sided)
                      if side == "forward" else (limits.conjugator_two_sided,))
            for build in builds:
                results = []
                for stage in (limits._stage_conjugator, stage_conjugator):
                    calls.clear()
                    results.append(_outcome(build, stage, model, g, u, U, N)[1])
                k = -N if side == "backward" and n0 == N - 1 else n0 + 1
                expected = (limits.HypothesisError, f"certificate b_{k} escapes U")
                assert results == [expected, expected], (n0, build.__name__)


def _battery_transport(model):
    """(g, u, t) of the transport battery's contraction-group check."""
    g = model.default_element()
    U = model.default_subgroup(g)
    u = (lamp_element(model.p, {3: 1}) if model.name == "shift"
         else model.unipotent(g, model.p))
    trace = limits.conjugator_forward(model, g, u, U, 12)
    t, _, _ = model.adjust_to_contraction(trace.t, U, g, tidy.u_parts(model, U, g))
    return g, u, t


BATTERY_MODELS = cli.battery_models(cli.RunConfig())


class TestBackwardStageShortcuts:
    """The backward stage of the two-sided conjugator reads the forward
    run's U-parts swapped and its tidy-above check; each shortcut against
    its from-scratch oracle."""

    @staticmethod
    def subgroups(model, g):
        """default_subgroup and every U_n of net_schedule(g, 8), plus the
        reference subgroup, which is not tidy above for the linear g."""
        return ([model.default_subgroup(g), model.reference()]
                + [U for _, U, _ in model.net_schedule(g, 8)])

    @pytest.mark.parametrize("model", BATTERY_MODELS, ids=lambda m: f"{m.name}-{m.p}")
    def test_swapped_parts_are_the_parts_of_the_inverse(self, model):
        g = model.default_element()
        g_inv = g.inv()
        for U in self.subgroups(model, g):
            parts = tidy.u_parts(model, U, g)
            swapped = tidy.UParts(parts.u_minus, parts.u_plus, parts.u_zero,
                                  parts.u_pp, parts.u_mm)
            assert swapped == tidy.u_parts(model, U, g_inv)

    @pytest.mark.parametrize("model", BATTERY_MODELS, ids=lambda m: f"{m.name}-{m.p}")
    def test_tidy_above_verdict_is_the_same_for_the_inverse(self, model):
        g = model.default_element()
        K = max(model.min_level, 1)

        def above(U, h):
            return tidy.is_tidy_above(model, U, h, K, tidy.u_parts(model, U, h))[:2]

        verdicts = [(above(U, g), above(U, g.inv())) for U in self.subgroups(model, g)]
        assert all(forward == backward for forward, backward in verdicts)
        # Both verdicts occur: the reference subgroup fails in the linear
        # models at level 1.
        untidy = [forward for forward, _ in verdicts if forward[0] is not True]
        assert untidy == ([(False, 1)] if model.name == "linear" else [])

    def test_untidy_subgroup_still_fails_the_two_sided_conjugator(self, linear):
        # The reference subgroup is not tidy above for diag(2, 1), though u
        # lies in it and in g^-1 U g; the forward run's check raises, after
        # the check of u.
        g = linear.parse_element("2,0;0,1")
        u = linear.parse_element("1,0;4,1")
        U = linear.reference()
        assert U.contains(u) and U.contains(conjugate(g, u))
        for build in (limits.conjugator_two_sided, limits.conjugator_forward):
            with pytest.raises(limits.HypothesisError,
                               match=r"^U is not tidy above for g \(level 1\)$"):
                build(linear, g, u, U, 6)
            # u outside U is reported first, as before the check moved.
            with pytest.raises(limits.HypothesisError, match=r"^u must lie in U$"):
                build(linear, g, linear.parse_element("1,1/2;0,1"), U, 6)


def test_split_changes_coordinates_once_in_and_once_per_factor(monkeypatch):
    # U's basis, g's eigenbasis, is not the identity; the backward stage
    # reads it as the eigenbasis of g^-1 in the other column order.
    model = LinearModel(2, 2)
    g = model.parse_element("2,1;0,1")
    u, U, N = model.unipotent(g, 4), model.default_subgroup(g), 24
    assert not U.basis.is_identity()
    parts = tidy.u_parts(model, U, g)
    powers = limits.PowerTable.build(model, g, u, N)
    backward = tidy.UParts(parts.u_minus, parts.u_plus, parts.u_zero, parts.u_pp, parts.u_mm)
    model.eigen_data(g.inv())  # computed here: the eigenbasis check changes coordinates
    counts = {}
    for name in ("_coords", "_from_coords"):
        def counted(basis, x, change=getattr(linear_module, name), name=name):
            counts[name] += 1
            return change(basis, x)
        monkeypatch.setattr(linear_module, name, counted)
    for stage in ((g, u, U, N, parts, powers),
                  (g.inv(), conjugate(g, u).inv(), U, N, backward, powers.backward())):
        counts.update(_coords=0, _from_coords=0)
        limits._stage_conjugator(model, *stage)
        # Per step: x into U's coordinates, w_- and w_+ out; plus the
        # final check of t in U_+.
        assert counts == {"_coords": N + 1, "_from_coords": 2 * N}


class TestTransport:
    def test_con_transport_both_models(self, shift, linear):
        g = shift_generator(2, 1)
        u = lamp_element(2, {3: 1})
        U = w_subgroup(2, 1)
        trace = limits.conjugator_forward(shift, g, u, U, 12)
        report = limits.con_transport_check(shift, g, u, trace.t)
        assert report == {"resolution": limits.TRANSPORT_K, "pass": True}

        gl = linear.parse_element("2,0;0,1")
        Ul = _iwahori(linear, gl)
        ul = linear.parse_element("1,0;2,1")
        tr = limits.conjugator_forward(linear, gl, ul, Ul, 12)
        parts = tidy.u_parts(linear, Ul, gl)
        t, _, adjusted = linear.adjust_to_contraction(tr.t, Ul, gl, parts)
        assert adjusted
        report = limits.con_transport_check(linear, gl, ul, t)
        assert report["pass"]

    def test_transport_error_carries_counterexample(self, linear):
        g = linear.parse_element("2,0;0,1")
        u = linear.parse_element("1,0;2,1")
        # A deliberately wrong "conjugator": the coordinate swap maps the
        # contracting (upper) unipotents onto the expanding (lower) ones,
        # which the level-1 images already tell apart.
        bad_t = linear.parse_element("0,1;1,0")
        with pytest.raises(limits.TransportError) as exc:
            limits.con_transport_check(linear, g, u, bad_t)
        assert exc.value.witness == 1
        assert str(exc.value) == ("t closure(con g) t^-1 differs from closure(con gu) "
                                  "at level 1")

    @pytest.mark.parametrize("model", BATTERY_MODELS, ids=lambda m: f"{m.name}-{m.p}")
    def test_window_transport_agrees_with_sampled_oracle(self, model):
        # Elements of con(g) carried by t, and of con(gu) carried back, lie
        # in the other side's images at every level the check compares.
        g, u, t = _battery_transport(model)
        assert limits.con_transport_check(model, g, u, t)["pass"]
        gu, t_inv = g.mul(u), t.inv()
        rng = random.Random(5)
        for h, target, x, x_inv in ((g, gu, t, t_inv), (gu, g, t_inv, t)):
            for c in sample_con_elements(model, h, rng, 40):
                moved = x.mul(c).mul(x_inv)
                for k in range(model.min_level, limits.TRANSPORT_K + 1):
                    assert model.project(moved, k) in model.con_closure_image(target, k)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("model", BATTERY_MODELS[1:], ids=lambda m: f"linear-{m.p}")
    def test_perturbed_conjugator_fails_at_the_next_level(self, model, j):
        # t x for x = 1 mod p^j (a lower unipotent, which moves the
        # contracting upper unipotents) first differs at level j + 1; at
        # j = 2 that is the top level TRANSPORT_K.
        g, u, t = _battery_transport(model)
        x = model.parse_element(f"1,0;{model.p ** j},1")
        assert model.proximity_level(x) == j
        with pytest.raises(limits.TransportError) as exc:
            limits.con_transport_check(model, g, u, t.mul(x))
        assert exc.value.witness == j + 1 <= limits.TRANSPORT_K

    def test_level_one_perturbation_fails_the_linear_row(self, monkeypatch, capsys):
        real = LinearModel.adjust_to_contraction

        def perturbed(model, t, U, g, parts):
            t, v, adjusted = real(model, t, U, g, parts)
            return t.mul(model.parse_element(f"1,0;{model.p},1")), v, adjusted

        monkeypatch.setattr(LinearModel, "adjust_to_contraction", perturbed)
        code = cli.main(["theorem-check", "--which", "transport", "--model", "linear"])
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1 and row["pass"] is False
        assert (row["kind"], row["counterexample"]) == ("transport", 2)

    def test_shift_row_fails_through_replay_not_transport(self):
        # closure(con g) is the whole lamp group for the shifting g, a
        # normal subgroup, so any t passes the window check; the row's
        # replay still rejects a wrong t.
        model = BATTERY_MODELS[0]
        g = model.default_element()
        U = model.default_subgroup(g)
        u = lamp_element(model.p, {3: 1})
        trace = limits.conjugator_forward(model, g, u, U, 12)
        assert trace.replay(model)
        bad_t = model.parse_element("lamp:-2,0,5")
        assert bad_t != trace.t
        assert limits.con_transport_check(model, g, u, bad_t)["pass"]
        assert not replace(trace, t=bad_t).replay(model)

    def test_nub_transport(self, shift):
        g = shift_generator(2, 1)
        u = lamp_element(2, {4: 1})
        U = w_subgroup(2, 2)
        two = limits.conjugator_two_sided(shift, g, u, U, 10)
        report = limits.nub_transport_check(shift, g, u, two.r)
        assert report["pass"]


class TestChabauty:
    def _approxes(self, shift):
        g = shift_generator(2, 1)
        return [
            limits.con_closure_approx(shift, g, 3),
            limits.con_closure_approx(shift, lamp_element(2, {0: 1}), 3),
            limits.nub_approx(shift, g, 3),
            limits.nub_approx(shift, shift.identity, 3),
        ]

    def test_distance_axioms(self, shift):
        approxes = self._approxes(shift)
        for a in approxes:
            assert a.coherent()
            assert limits.chabauty_distance(a, a).indistinguishable
        for a in approxes:
            for b in approxes:
                dab = limits.chabauty_distance(a, b)
                dba = limits.chabauty_distance(b, a)
                assert dab.value == dba.value
                for c in approxes:
                    dac = limits.chabauty_distance(a, c)
                    dcb = limits.chabauty_distance(c, b)
                    assert dab.value <= max(dac.value, dcb.value)

    def test_distance_values(self, shift):
        a = limits.con_closure_approx(shift, shift_generator(2, 1), 3)
        b = limits.con_closure_approx(shift, lamp_element(2, {0: 1}), 3)
        d = limits.chabauty_distance(a, b)
        assert not d.indistinguishable
        assert d.value == Fraction(1, 2**d.level)
        assert d.as_json() == {"num": 1, "log2_denom": d.level}

    def test_resolution_mismatch_rejected(self, shift):
        a = limits.con_closure_approx(shift, shift_generator(2, 1), 3)
        b = limits.con_closure_approx(shift, shift_generator(2, 1), 2)
        with pytest.raises(WindowMismatchError):
            limits.chabauty_distance(a, b)


class TestNetExperiment:
    def _distance(self, cell):
        if isinstance(cell, str):
            assert cell.startswith("indist@")
            return Fraction(0)
        return Fraction(cell["num"], 2 ** cell["log2_denom"])

    @pytest.mark.parametrize("maker", [
        lambda: (ShiftModel(2), None),
        lambda: (LinearModel(2, 2), "2,0;0,1"),
        lambda: (LinearModel(3, 2), "3,0;0,1"),
        lambda: (LinearModel(2, 3), "4,0,0;0,2,0;0,0,1"),
    ])
    def test_schedules_converge(self, maker):
        model, g_text = maker()
        g = model.parse_element(g_text) if g_text else shift_generator(2, 1)
        rows = limits.net_experiment(model, g, model.net_schedule(g, 6), K=5)
        assert [row["n"] for row in rows] == list(range(1, 7))
        d_con = [self._distance(row["d_con"]) for row in rows]
        d_nub = [self._distance(row["d_nub"]) for row in rows]
        assert all(a >= b for a, b in zip(d_con, d_con[1:]))
        assert all(a >= b for a, b in zip(d_nub, d_nub[1:]))
        assert d_con[-1] == 0 and d_nub[-1] == 0
        for row in rows:
            assert row["level_t"] == "inf" or row["level_t"] >= row["n"] - 1

    @pytest.mark.parametrize("model, g_text", [(ShiftModel(2), "shift:1"),
                                               (LinearModel(2, 2), "2,0;0,1")])
    def test_transport_is_checked_at_the_top_level(self, model, g_text):
        # B differs from A at the top level only, so r = 1 carries A onto B
        # at every level below it: the check must reach the top level.
        a = limits.con_closure_approx(model, model.parse_element(g_text), 3)
        b = limits.ClosedSubgroupApprox(
            a.min_level, a.images[:-1] + (SubgroupImage(model.window(3)),))
        assert a.image_at(3).order > 1
        assert limits._transports(model, model.identity, a, a)
        assert not limits._transports(model, model.identity, a, b)

    def test_non_shrinking_schedule_rejected(self, shift):
        g = shift_generator(2, 1)
        schedule = [
            (1, w_subgroup(2, 2), lamp_element(2, {3: 1})),
            (2, w_subgroup(2, 1), lamp_element(2, {2: 1})),
        ]
        with pytest.raises(limits.HypothesisError):
            limits.net_experiment(shift, g, schedule, K=3)

    def _limits_rows(self, capsys, model_name):
        code = cli.main(["experiment", "limits", "--model", model_name, "--n-max", "3"])
        return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    @pytest.mark.parametrize("model_cls", [ShiftModel, LinearModel])
    def test_incoherent_con_closure_fails_every_row(self, model_cls, monkeypatch, capsys):
        # A con-closure image wrong at level 3 only: it is not the
        # projection of the level-4 image, so no row may pass.
        true_image = model_cls.con_closure_image

        def wrong_at_3(self, g, K):
            if K == 3:
                return SubgroupImage(self.window(K))
            return true_image(self, g, K)

        monkeypatch.setattr(model_cls, "con_closure_image", wrong_at_3)
        code, rows = self._limits_rows(capsys, model_cls.name)
        assert code == 1
        assert len(rows) == 3 and not any(row["pass"] for row in rows)

    def test_overstated_conjugator_level_fails_every_row(self, monkeypatch, capsys):
        # Report each conjugator r two levels closer to 1 than it is: the
        # con-closure distance, first distinguishing at the true level_r + 1,
        # then breaks the bound d_con <= 2^-(level_r + 1).
        code, rows = self._overstated_rows(monkeypatch, capsys, 2)
        assert code == 1
        assert [row["level_r"] for row in rows] == [4, 5, 6]
        assert not any(row["pass"] for row in rows)

    def test_distance_at_level_r_breaks_the_bound(self, monkeypatch, capsys):
        # One level closer: d_con first distinguishes exactly at the reported
        # level_r, which the bound (strictly above level_r) rejects.
        code, rows = self._overstated_rows(monkeypatch, capsys, 1)
        assert code == 1
        assert [row["level_r"] for row in rows] == [3, 4, 5]
        assert not any(row["pass"] for row in rows)

    def _overstated_rows(self, monkeypatch, capsys, by):
        conjugators = []
        build, true_level = limits.conjugator_two_sided, LinearModel.proximity_level

        def recording(*args, **kwargs):
            two = build(*args, **kwargs)
            conjugators.append(two.r)
            return two

        def overstated(self, x):
            level = true_level(self, x)
            return level + by if conjugators and x == conjugators[-1] else level

        monkeypatch.setattr(limits, "conjugator_two_sided", recording)
        monkeypatch.setattr(LinearModel, "proximity_level", overstated)
        return self._limits_rows(capsys, "linear")
