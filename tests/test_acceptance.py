"""End-to-end acceptance gate.

Each test here pins one externally visible guarantee of the package, at its
stated tolerance (exact unless a runtime bound is part of the guarantee).
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from tdlcw import cli, limits, tidy, verify
from tdlcw.epseq import EPSeq
from tdlcw.kernel import MatrixWindow, VectorWindow, conjugate, subgroup_closure
from tdlcw.linear import LinearModel, ShapeSubgroup, iwahori_shape
from tdlcw.shift import (
    ShiftElement,
    ShiftModel,
    lamp_element,
    shift_generator,
    w_subgroup,
)

SEED = 2024


def _iwahori(model):
    return ShapeSubgroup(model.identity, iwahori_shape(2))


def _sample_lamp_in(rng, p, vanish_lo, vanish_hi, span=8):
    support = {
        i: rng.randrange(1, p)
        for i in range(-span, span + 1)
        if not vanish_lo <= i <= vanish_hi and rng.random() < 0.4
    }
    return lamp_element(p, support)


def _sample_iwahori(rng, model, depth=1):
    p = model.p
    while True:
        a, d = rng.randrange(-6, 7), rng.randrange(-6, 7)
        b = p * rng.randrange(-3, 4)
        c = p**depth * rng.randrange(-3, 4) if depth else rng.randrange(-6, 7)
        det = a * d - b * c
        if det == 0 or a % p == 0 or d % p == 0 or det % p == 0:
            continue
        return model.parse_element(f"{a},{b};{c},{d}")


def _distance(cell):
    if isinstance(cell, str):
        assert cell.startswith("indist@")
        return Fraction(0)
    return Fraction(cell["num"], 2 ** cell["log2_denom"])


# -- 1: forward conjugator replay, 100 seeded pairs per model, N=20, <60s ----


def test_forward_replay_battery_within_time_budget():
    rng = random.Random(SEED)
    start = time.monotonic()

    shift = ShiftModel(2)
    g = shift_generator(2, 1)
    U = w_subgroup(2, 1)
    for _ in range(100):
        u = _sample_lamp_in(rng, 2, -1, 1)
        assert U.contains(u)
        trace = limits.conjugator_forward(shift, g, u, U, 20)
        assert trace.replay(shift)

    for p in (2, 3):
        model = LinearModel(p, 2)
        gl = model.parse_element(f"{p},0;0,1")
        Ul = _iwahori(model)
        for _ in range(100):
            u = _sample_iwahori(rng, model, depth=0)
            assert Ul.contains(u)
            trace = limits.conjugator_forward(model, gl, u, Ul, 20)
            assert trace.replay(model)

    assert time.monotonic() - start < 60


# -- 2: two-sided conjugator replay, 50 seeded pairs, |k| <= 10 --------------


def test_two_sided_replay_battery():
    rng = random.Random(SEED + 1)

    shift = ShiftModel(2)
    g = shift_generator(2, 1)
    U = w_subgroup(2, 1)
    for _ in range(20):
        # Membership in U and in g^-1 U g: support clear of [-2, 1].
        u = _sample_lamp_in(rng, 2, -2, 1)
        assert U.contains(u) and U.contains(conjugate(g, u))
        two = limits.conjugator_two_sided(shift, g, u, U, 10)
        assert two.replay(shift)
        assert set(two.certificates) == set(range(-10, 11))

    for p in (2, 3):
        model = LinearModel(p, 2)
        gl = model.parse_element(f"{p},0;0,1")
        Ul = _iwahori(model)
        for _ in range(15):
            u = _sample_iwahori(rng, model, depth=1)
            assert Ul.contains(u) and Ul.contains(conjugate(gl, u))
            two = limits.conjugator_two_sided(model, gl, u, Ul, 10)
            assert two.replay(model)


# -- 3: contraction and nub transport along the conjugators ------------------


def test_transport_battery():
    cfg = cli.RunConfig(samples=50).validate()
    rows = cli.CHECKS["transport"](cfg, random.Random(SEED + 2))
    assert len(rows) == 3
    for row in rows:
        assert row["con_transport"] and row["nub_transport"]
        assert row["replay"] and row["two_sided_replay"]
        assert row["pass"]


# -- 4 and 5: shrinking-schedule instrumentation -----------------------------


@pytest.fixture(scope="module")
def net_rows():
    rows = {}
    for model, g_text in [
        (ShiftModel(2), None),
        (LinearModel(2, 2), "2,0;0,1"),
        (LinearModel(3, 2), "3,0;0,1"),
    ]:
        g = model.parse_element(g_text) if g_text else shift_generator(2, 1)
        schedule = model.net_schedule(g, 8)
        rows[model.name, model.p] = limits.net_experiment(model, g, schedule, K=6)
    return rows


def test_net_conjugators_track_the_schedule(net_rows):
    # The construction itself asserts t_n in (U_n)_+; here the proximity
    # levels must keep pace with the schedule up to a constant c <= 1.
    for rows in net_rows.values():
        c = max(
            row["n"] - (10**9 if row["level_t"] == "inf" else row["level_t"])
            for row in rows
        )
        assert c <= 1
        assert [row["n"] for row in rows] == list(range(1, 9))


def test_net_distances_shrink_to_indistinguishable(net_rows):
    for rows in net_rows.values():
        d_con = [_distance(row["d_con"]) for row in rows]
        d_nub = [_distance(row["d_nub"]) for row in rows]
        assert all(a >= b for a, b in zip(d_con, d_con[1:]))
        assert all(a >= b for a, b in zip(d_nub, d_nub[1:]))
        # Certified indistinguishable at resolution 6 by stage n = 6.
        assert d_con[5] == 0 and d_nub[5] == 0


# -- 6: tidying procedure and the part/contraction identities ----------------


def test_tidying_procedure_from_level_zero():
    for p in (2, 3):
        model = LinearModel(p, 2)
        g = model.parse_element(f"{p},0;0,1")
        verdict, k_failed, witness = tidy.is_tidy_above(model, model.reference(), g, 2)
        assert verdict is False and k_failed == 1 and witness is not None
        V, k = tidy.tidy_above_procedure(model, model.reference(), g)
        assert k == 1 and V.shape == iwahori_shape(2)


def test_vanish_subgroups_tidy_above_never_below():
    model = ShiftModel(2)
    g = shift_generator(2, 1)
    for k in range(4):
        U = w_subgroup(2, k)
        parts = tidy.u_parts(model, U, g)
        above, _, _ = tidy.is_tidy_above(model, U, g, 3, parts=parts)
        below, witness = tidy.is_tidy_below(model, U, g, parts)
        assert above is True and below is False and witness is not None


def test_part_identities_hold_exactly():
    model = ShiftModel(2)
    g = shift_generator(2, 1)
    for k in range(3):
        report = tidy.tidy_identity_report(model, w_subgroup(2, k), g, 4)
        assert report["pass"]
    for p, k_top in [(2, 4), (3, 2)]:
        model = LinearModel(p, 2)
        g = model.parse_element(f"{p},0;0,1")
        report = tidy.tidy_identity_report(model, _iwahori(model), g, k_top)
        assert report["pass"] and report["tidy_form_checked"]


# -- 7: five nub characterizations agree on a battery of >= 6 elements -------


def test_nub_characterizations_agree_across_battery():
    for model in (ShiftModel(2), LinearModel(2, 2), LinearModel(3, 2)):
        battery = cli._nub_battery(model)
        assert len(battery) >= 6
        K = 4 if model.name == "shift" else min(4, model.default_resolution)
        for g in battery:
            image, report = tidy.nub_compute(model, g, K)
            assert all(report.values())
            if model.name == "shift":
                full = model.reference().window_image(K).order
                assert (image.order == full) == (g.shift != 0)
            else:
                assert image.order == 1


# -- 8: scale consistency, index oracle vs closed formula, < 30s -------------


def test_scale_battery_within_time_budget():
    start = time.monotonic()
    shift = ShiftModel(2)
    assert tidy.scale_index(shift, shift_generator(2, 1)) == 1
    assert tidy.scale_index(shift, shift.identity) == 1
    for p in (2, 3):
        model = LinearModel(p, 2)
        battery = [
            (model.parse_element(f"{p},0;0,1"), p),
            (model.parse_element(f"{p},0;0,1/{p}"), p * p),
            (model.identity, 1),
        ]
        c = model.parse_element("1,1;0,1")
        battery.append((conjugate(c, battery[0][0]), p))
        for g, expected in battery:
            assert tidy.scale_index(model, g) == expected == model.scale_formula(g)
    model3 = LinearModel(2, 3)
    g3 = model3.parse_element("4,0,0;0,2,0;0,0,1")
    assert tidy.scale_index(model3, g3) == 16 == model3.scale_formula(g3)
    assert time.monotonic() - start < 30


# -- 9: quotient anisotropy, both directions, K <= 4 -------------------------


def test_quotient_anisotropy_bidirectional():
    model = ShiftModel(2)
    g = shift_generator(2, 1)
    schedule = [g, g.inv(), g.mul(lamp_element(2, {0: 1}))]
    expectations = {"lamp": True, "trivial": False}
    for kind, both_sides in expectations.items():
        q = verify.QuotientDescriptor(model, kind)
        report = verify.quotient_anisotropy_check(q, schedule, K=4)
        assert report["pass"]
        assert report["core_in_n"] is both_sides
        assert report["quotient_con_trivial"] is both_sides


# -- 10: normal-closure witness, 100 random supports, p = 2 and 3 ------------


def test_normal_closure_witnesses():
    rng = random.Random(SEED + 3)
    for p in (2, 3):
        g = shift_generator(p, 1)
        for _ in range(100):
            support = {
                i: rng.randrange(1, p)
                for i in range(-10, 11)
                if rng.random() < 0.3
            }
            b = EPSeq.from_support(p, support)
            a, ok = verify.normal_closure_witness(b)
            assert ok
            a_elem = ShiftElement(a, 0)
            assert a_elem.mul(g).mul(a_elem.inv()).mul(g.inv()) == ShiftElement(b, 0)


# -- 11: kernel oracle equivalence and the ultrametric axioms ----------------


def _brute_closure(window, gens):
    elems = {window.identity}
    gens = set(gens) | {window.inv(g) for g in gens}
    while True:
        new = {window.mul(x, g) for x in elems for g in gens} - elems
        if not new:
            return elems
        elems |= new


@pytest.mark.parametrize(
    "window",
    [VectorWindow(2, 5), MatrixWindow(2, 2, 2)],
    ids=["vectors-of-length-5", "matrices-mod-4"],
)
def test_kernel_matches_exhaustive_enumeration(window):
    rng = random.Random(SEED + 4)
    elems = list(window.elements())
    for _ in range(20):
        gens = rng.sample(elems, rng.randrange(1, 4))
        image = subgroup_closure(window, gens)
        brute = _brute_closure(window, gens)
        assert image.elements == frozenset(brute)
        product = {window.mul(a, b) for a in brute for b in brute}
        from tdlcw import backend

        assert backend.product_set(window, sorted(brute), sorted(brute)) == product
        full = subgroup_closure(window, elems)
        from tdlcw.kernel import index

        assert index(full, image) == len(elems) // len(brute)


def test_chabauty_distance_is_an_ultrametric_on_the_battery():
    model = ShiftModel(2)
    approxes = []
    for g in cli._nub_battery(model):
        approxes.append(limits.con_closure_approx(model, g, 3))
        approxes.append(limits.nub_approx(model, g, 3))
    for a in approxes:
        assert a.coherent()
    for a in approxes:
        for b in approxes:
            dab = limits.chabauty_distance(a, b)
            assert dab.value == limits.chabauty_distance(b, a).value
            same = all(
                a.image_at(k).elements == b.image_at(k).elements
                for k in range(a.min_level, a.top_level + 1)
            )
            assert dab.indistinguishable == same
            for c in approxes:
                assert dab.value <= max(
                    limits.chabauty_distance(a, c).value,
                    limits.chabauty_distance(c, b).value,
                )


# -- 12: CLI determinism -----------------------------------------------------


#: stdout digest of default-resolution `theorem-check --which all --seed 7`.
THEOREM_CHECK_SHA256 = "f923f13f7997dd7db2704d1ba687ed133bf88ed9e9793cb1410a96387174ad82"


def test_theorem_check_is_deterministic_and_green():
    argv = [sys.executable, "-m", "tdlcw.cli", "theorem-check", "--which", "all",
            "--seed", "7"]
    # The child imports the same tdlcw as this process, installed or not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    first = subprocess.run(argv, capture_output=True, text=True, env=env)
    second = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    digest = hashlib.sha256(first.stdout.encode("utf-8")).hexdigest()
    assert digest == THEOREM_CHECK_SHA256
    rows = [json.loads(line) for line in first.stdout.splitlines()]
    assert rows and all(row["pass"] for row in rows)
    # Every battery contributes rows; the limits battery tags its rows with
    # the experiment name instead of a check name.
    kinds = {row.get("check") or row.get("experiment") for row in rows}
    assert kinds == (set(cli.CHECKS) - {"limits"}) | {"net-limit"}
