"""Conjugator construction, transports, and the convergence instruments."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from tdlcw import cli, limits, tidy
from tdlcw.kernel import DEFAULT_CAP, SubgroupImage, WindowMismatchError
from tdlcw.linear import LinearModel, ShapeSubgroup, iwahori_shape
from tdlcw.shift import ShiftModel, lamp_element, shift_generator, w_subgroup


@pytest.fixture
def shift():
    return ShiftModel(2)


@pytest.fixture
def linear():
    return LinearModel(2, 2)


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
        bad = dataclasses.replace(trace, t=lamp_element(2, {3: 1}))
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
    step = b if k >= 0 else model.inv(b)
    out = model.identity
    for _ in range(abs(k)):
        out = model.mul(step, out)
    return out


class TestPowerTable:
    def test_columns_are_repeated_products(self, case):
        model, g, u, _, _ = case
        gu = model.mul(g, u)
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
        gu_inv, g_inv = model.inv(model.mul(g, u)), model.inv(g)
        u_back = model.conjugate(g, model.inv(u))
        assert model.mul(g_inv, u_back) == gu_inv
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
        for base in (g, model.mul(g, u)):
            for k in range(-30, 31):
                assert model.power(base, k) == repeated(model, base, k)

    def test_certificates_match_naive_powers(self, case):
        model, g, u, U, _ = case
        gu = model.mul(g, u)

        def naive(x, k):
            return model.mul(
                model.mul(model.mul(model.inv(x), repeated(model, gu, k)), x),
                repeated(model, g, -k))

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
        certs[3] = model.mul(certs[3], v)
        bad = dataclasses.replace(trace, certificates=tuple(certs))
        assert not bad.replay(model)

    def test_replay_detects_a_changed_negative_certificate(self, case):
        model, g, u, U, v = case
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        assert two.replay(model)
        certs = dict(two.certificates)
        certs[-2] = model.mul(certs[-2], v)
        bad = dataclasses.replace(two, certificates=certs)
        assert not bad.replay(model)

    def test_replay_detects_a_changed_first_certificate(self, case):
        model, g, u, U, v = case
        trace = limits.conjugator_forward(model, g, u, U, 6)
        bad = dataclasses.replace(
            trace, certificates=(v,) + trace.certificates[1:])
        assert not bad.replay(model)
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        assert not dataclasses.replace(
            two, certificates={**two.certificates, 0: v}).replay(model)

    def test_induction_needs_b0_to_be_one(self, case):
        # b'_k = c^k v g^-k obeys every step b'_{k+1} = c b'_k g^-1 and lies
        # in U; only b'_0 = v != 1 is wrong.  (The closed-form check at k = N
        # would also reject it, so the induction is tested alone.)
        model, g, u, U, v = case
        trace = limits.conjugator_forward(model, g, u, U, 6)
        t = trace.t
        c = model.mul(model.mul(model.inv(t), model.mul(g, u)), t)
        shifted = {k: model.mul(model.mul(repeated(model, c, k), v),
                                repeated(model, g, -k)) for k in range(7)}
        assert all(U.contains(b) for b in shifted.values())
        assert limits._induction_holds(
            model, trace, t, dict(enumerate(trace.certificates)), (1,))
        assert not limits._induction_holds(model, trace, t, shifted, (1,))
        bad = dataclasses.replace(
            trace, certificates=tuple(shifted[k] for k in range(7)))
        assert not bad.replay(model)

    def test_replay_detects_a_missing_or_extra_key(self, case):
        model, g, u, U, _ = case

        def next_certificate(x, b):
            # The true b_{k+1} = c b_k g^-1, c = x^-1 (gu) x.
            c = model.mul(model.mul(model.inv(x), model.mul(g, u)), x)
            return model.mul(model.mul(c, b), model.inv(g))

        trace = limits.conjugator_forward(model, g, u, U, 6)
        certs = trace.certificates
        b_7 = next_certificate(trace.t, certs[6])
        assert U.contains(b_7)
        for bad_certs in (certs[:-1], certs + (b_7,)):
            assert not dataclasses.replace(
                trace, certificates=bad_certs).replay(model)
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        missing = {k: b for k, b in two.certificates.items() if k != -3}
        extra = {**two.certificates,
                 6: next_certificate(two.r, two.certificates[5])}
        assert U.contains(extra[6])
        for bad_certs in (missing, extra):
            assert not dataclasses.replace(
                two, certificates=bad_certs).replay(model)

    def test_replay_detects_a_changed_conjugator(self, case):
        model, g, u, U, v = case
        trace = limits.conjugator_forward(model, g, u, U, 6)
        assert not dataclasses.replace(
            trace, t=model.mul(trace.t, v)).replay(model)
        two = limits.conjugator_two_sided(model, g, u, U, 5)
        assert not dataclasses.replace(
            two, r=model.mul(two.r, v)).replay(model)

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
        w = model.mul(model.parse_element("1,8;0,1"),
                      model.parse_element("1,0;1,1"))
        assert U.contains(w)
        built = []
        forward, split = limits.conjugator_forward, LinearModel.split

        def counting_forward(*args, **kwargs):
            built.append(forward(*args, **kwargs))
            return built[-1]

        def final_split(self, x, U, g, parts):
            if len(built) == 2:
                return w, self.identity
            return split(self, x, U, g, parts)

        monkeypatch.setattr(limits, "conjugator_forward", counting_forward)
        monkeypatch.setattr(LinearModel, "split", final_split)
        with pytest.raises(limits.HypothesisError, match=r"^certificate b_-3 escapes U$"):
            limits.conjugator_two_sided(model, g, u, U, 8)
        assert len(built) == 2


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
        assert U.contains(u) and not U.contains(linear.conjugate(g, u))
        with pytest.raises(limits.HypothesisError):
            limits.conjugator_two_sided(linear, g, u, U, 6)


class TestTransport:
    def test_con_transport_both_models(self, shift, linear):
        rng = random.Random(11)
        g = shift_generator(2, 1)
        u = lamp_element(2, {3: 1})
        U = w_subgroup(2, 1)
        trace = limits.conjugator_forward(shift, g, u, U, 12)
        report = limits.con_transport_check(shift, g, u, U, trace.t, rng, samples=25)
        assert report["pass"]

        gl = linear.parse_element("2,0;0,1")
        Ul = _iwahori(linear, gl)
        ul = linear.parse_element("1,0;2,1")
        tr = limits.conjugator_forward(linear, gl, ul, Ul, 12)
        t, _, adjusted = limits.adjust_to_contraction(linear, tr.t, Ul, gl)
        assert adjusted
        report = limits.con_transport_check(linear, gl, ul, Ul, t, rng, samples=25)
        assert report["pass"]

    def test_transport_error_carries_counterexample(self, linear):
        g = linear.parse_element("2,0;0,1")
        u = linear.parse_element("1,0;2,1")
        U = _iwahori(linear, g)
        # A deliberately wrong "conjugator": the coordinate swap maps the
        # contracting (upper) unipotents onto the expanding (lower) ones.
        bad_t = linear.parse_element("0,1;1,0")
        rng = random.Random(0)
        with pytest.raises(limits.TransportError) as exc:
            limits.con_transport_check(linear, g, u, U, bad_t, rng, samples=10)
        assert exc.value.counterexample is not None

    def test_nub_transport(self, shift):
        g = shift_generator(2, 1)
        u = lamp_element(2, {4: 1})
        U = w_subgroup(2, 2)
        two = limits.conjugator_two_sided(shift, g, u, U, 10)
        report = limits.nub_transport_check(shift, g, u, U, two.r, K=3)
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

        def wrong_at_3(self, g, K, cap=DEFAULT_CAP):
            if K == 3:
                return SubgroupImage(self.window(K))
            return true_image(self, g, K, cap)

        monkeypatch.setattr(model_cls, "con_closure_image", wrong_at_3)
        code, rows = self._limits_rows(capsys, model_cls.name)
        assert code == 1
        assert len(rows) == 3 and not any(row["pass"] for row in rows)

    def test_overstated_conjugator_level_fails_every_row(self, monkeypatch, capsys):
        # Report each conjugator r two levels closer to 1 than it is: the
        # con-closure distance, first distinguishing at the true level_r + 1,
        # then breaks the bound d_con <= 2^-(level_r + 1).
        conjugators = []
        build, true_level = limits.conjugator_two_sided, LinearModel.proximity_level

        def recording(*args, **kwargs):
            two = build(*args, **kwargs)
            conjugators.append(two.r)
            return two

        def overstated(self, x):
            level = true_level(self, x)
            return level + 2 if conjugators and x == conjugators[-1] else level

        monkeypatch.setattr(limits, "conjugator_two_sided", recording)
        monkeypatch.setattr(LinearModel, "proximity_level", overstated)
        code, rows = self._limits_rows(capsys, "linear")
        assert code == 1
        assert [row["level_r"] for row in rows] == [4, 5, 6]
        assert not any(row["pass"] for row in rows)
