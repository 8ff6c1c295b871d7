"""Conjugator construction and convergence instrumentation.

Given g, a compact open U tidy above for g, and u in U, the inductive
algorithm builds a conjugator t in U_+ with

    t^-1 (gu)^k t = b_k g^k,   b_k in U,   for 0 <= k <= N,

entirely by exact arithmetic; the certificates b_k are kept and replay
independently of the construction.  A two-sided variant runs the same
induction for g^-1 and combines the results into r with the identity
holding for |k| <= N.

Because the construction is truncated at stage N rather than passed to a
limit, the conjugator transports contraction groups exactly at the shift
model (where the conjugator is a lamp and lamps commute) and *at finite
resolution* in the linear model: the transported samples contract to the
filtration level backed by the certificate horizon.  The Chabauty-distance
instrument quantifies exactly this: two closed subgroups of the reference
compact open are compared window-by-window, and the distance is 2^-m for
the first level m where they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tdlcw import tidy
from tdlcw.kernel import (
    DEFAULT_CAP,
    INF_LEVEL,
    WindowMismatchError,
)


class HypothesisError(ValueError):
    """A checked precondition of the construction fails."""


class TransportError(RuntimeError):
    """A transported sample escapes the target contraction group."""

    def __init__(self, message, counterexample):
        super().__init__(message)
        self.counterexample = counterexample


def _replay(model, trace, x, pairs):
    """Check x^-1 (gu)^k x = b_k g^k and b_k in U for every pair (k, b_k).

    The powers come from `model.power`, square-and-multiply in O(log |k|)
    products, not from the running products of the construction
    (`_certify`), so a fault in either makes the replay fail.
    """
    gu = model.mul(trace.g, trace.u)
    x_inv = model.inv(x)
    return all(
        model.mul(model.mul(x_inv, model.power(gu, k)), x)
        == model.mul(b, model.power(trace.g, k))
        and trace.U.contains(b)
        for k, b in pairs
    )


@dataclass(frozen=True)
class ConjugatorTrace:
    """Certificate of the forward construction; replayable independently."""

    model_name: str
    g: object
    u: object
    U: object
    horizon: int
    t: object
    certificates: tuple  # b_k for k = 0..horizon

    def replay(self, model):
        """Re-verify every certificate identity by exact multiplication."""
        return _replay(model, self, self.t, enumerate(self.certificates))


@dataclass(frozen=True)
class TwoSidedTrace:
    model_name: str
    g: object
    u: object
    U: object
    horizon: int
    forward: ConjugatorTrace      # for (g, u), yields t in U_+
    r: object
    certificates: dict            # k -> b_k for -horizon <= k <= horizon

    def replay(self, model):
        return _replay(model, self, self.r, self.certificates.items())


def _certify(model, g, gu, U, ks, x):
    """Yield (k, b_k, g^k, g^-k) for k in ks, a range from 0 with step 1 or
    -1, where b_k = x^-1 (gu)^k x g^-k for the conjugator x() at that k.

    (gu)^k, g^k and g^-k are running products, one multiplication each per
    k, so N certificates cost O(N) products.  Raises HypothesisError as
    soon as a b_k escapes U.
    """
    g_inv = model.inv(g)
    factors = (gu, g, g_inv) if ks.step > 0 else (model.inv(gu), g_inv, g)
    powers = (model.identity,) * 3
    x_k = None
    for k in ks:
        gu_k, g_k, g_minus_k = powers
        if x() is not x_k:
            x_k, x_inv = x(), model.inv(x())
        b = model.mul(model.mul(model.mul(x_inv, gu_k), x_k), g_minus_k)
        if not U.contains(b):
            raise HypothesisError(f"certificate b_{k} escapes U")
        yield k, b, g_k, g_minus_k
        powers = tuple(model.mul(p, f) for p, f in zip(powers, factors))


def conjugator_forward(model, g, u, U, N, parts=None, check_tidy=True):
    """Stage-N conjugator for the perturbation g -> gu, with certificates."""
    if not U.contains(u):
        raise HypothesisError("u must lie in U")
    if parts is None:
        parts = tidy.u_parts(model, U, g)
    if check_tidy:
        verdict, k, _ = tidy.is_tidy_above(model, U, g, max(model.min_level, 1))
        if verdict is not True:
            raise HypothesisError(f"U is not tidy above for g (level {k})")
    gu = model.mul(g, u)
    t = model.identity
    # Each step sets t <- t y, y = g^-n w_+^-1 g^n; x() reads the new t.
    for _, b, g_n, g_minus_n in _certify(model, g, gu, U, range(N), lambda: t):
        c = model.mul(model.mul(u, t), b)
        _w_minus, w_plus = model.split(c, U, g, parts)
        t = model.mul(t, model.mul(model.mul(g_minus_n, model.inv(w_plus)), g_n))
    if not parts.u_plus.contains(t):
        raise HypothesisError("constructed conjugator escapes U_+")
    certs = tuple(b for _, b, _, _ in _certify(
        model, g, gu, U, range(N + 1), lambda: t))
    return ConjugatorTrace(model.name, g, u, U, N, t, certs)


def adjust_to_contraction(model, t, U, g, parts=None):
    """Strip the U_0 part of t so the remainder contracts under g^-1.

    Returns (t', v, adjusted): t = t' * v with v in U_0 and t' in
    con(g^-1) ^ U_+ when the model can split; otherwise t unchanged with
    adjusted=False.
    """
    if parts is None:
        parts = tidy.u_parts(model, U, g)
    return model.adjust_to_contraction(t, U, g, parts)


def conjugator_two_sided(model, g, u, U, N, check_tidy=True):
    """Conjugator r with certificates on both sides of the horizon.

    Requires u in U and in g^-1 U g.  Runs the forward construction for
    (g, u) and for (g^-1, g u^-1 g^-1), splits t^-1 s = w_- w_+ in U, and
    combines r = t w_- (so that also r = s w_+^-1).
    """
    if not U.contains(u):
        raise HypothesisError("u must lie in U")
    if not U.contains(model.conjugate(g, u)):
        raise HypothesisError("u must lie in g^-1 U g")
    u_back = model.conjugate(g, model.inv(u))
    forward = conjugator_forward(model, g, u, U, N, check_tidy=check_tidy)
    s = conjugator_forward(
        model, model.inv(g), u_back, U, N, check_tidy=check_tidy).t
    t = forward.t
    parts = tidy.u_parts(model, U, g)
    w_minus, _w_plus = model.split(model.mul(model.inv(t), s), U, g, parts)
    r = model.mul(t, w_minus)
    gu = model.mul(g, u)
    below, above = (
        [(k, b) for k, b, _, _ in _certify(model, g, gu, U, ks, lambda: r)]
        for ks in (range(0, -N - 1, -1), range(N + 1)))
    certs = dict(below[::-1] + above)  # k = -N..N; b_0 is in both lists
    return TwoSidedTrace(model.name, g, u, U, N, forward, r, certs)


def _transported_member(model, h, x, K, N):
    """Is x in con(h), exactly or at resolution K over horizon N?"""
    verdict = tidy.con_membership(model, h, x, K, N)
    if verdict is True:
        return True
    return tidy.trajectory_contracts(model, h, x, K, N)


def con_transport_check(model, g, u, U, t, rng, samples=50, K=3, N=10):
    """Transport of contraction groups along t: samples of con(g) conjugated
    by t must land in con(gu), and vice versa.

    Membership on the target side is certified at resolution K over horizon
    N (exact where the model oracle applies); a failure raises
    TransportError with the counterexample.
    """
    gu = model.mul(g, u)
    t_inv = model.inv(t)
    checked = 0
    for c in model.sample_con_elements(g, rng, samples):
        x = model.mul(model.mul(t, c), t_inv)
        if not _transported_member(model, gu, x, K, N):
            raise TransportError("t con(g) t^-1 sample escapes con(gu)", c)
        checked += 1
    for c in model.sample_con_elements(gu, rng, samples):
        x = model.mul(model.mul(t_inv, c), t)
        if not _transported_member(model, g, x, K, N):
            raise TransportError("t^-1 con(gu) t sample escapes con(g)", c)
        checked += 1
    return {"samples": checked, "resolution": K, "horizon": N, "pass": True}


def nub_transport_check(model, g, u, U, r, K=3, cap=DEFAULT_CAP):
    """Window-image equality of r nub(g) r^-1 and nub(gu) at resolution K."""
    gu = model.mul(g, u)
    nub_g, _ = tidy.nub_compute(model, g, K, cap=cap)
    nub_gu, _ = tidy.nub_compute(model, gu, K, cap=cap)
    conjugated = nub_g.conjugated(model.project(r, K))
    if conjugated != nub_gu:
        raise TransportError(
            "conjugated nub image differs from nub(gu) image",
            (conjugated.sorted_codes(), nub_gu.sorted_codes()),
        )
    return {"resolution": K, "order": nub_gu.order, "pass": True}


# -- Chabauty instrumentation ------------------------------------------------


@dataclass(frozen=True)
class ChabautyDistance:
    """Either 2^-level (first window level that distinguishes) or certified
    indistinguishability at the comparison resolution."""

    indistinguishable: bool
    level: int

    @property
    def value(self):
        if self.indistinguishable:
            return Fraction(0)
        return Fraction(1, 2**self.level)

    def as_json(self):
        if self.indistinguishable:
            return f"indist@{self.level}"
        return {"num": 1, "log2_denom": self.level}

    def __le__(self, other):
        return self.value <= other.value


@dataclass(frozen=True)
class ClosedSubgroupApprox:
    """Per-level window images of a closed subgroup of the reference
    compact open; the finite-resolution stand-in for a Chabauty point."""

    label: str
    min_level: int
    images: tuple

    @classmethod
    def build(cls, model, label, image_fn, K):
        images = tuple(image_fn(k) for k in range(model.min_level, K + 1))
        return cls(label, model.min_level, images)

    @property
    def top_level(self):
        return self.min_level + len(self.images) - 1

    def image_at(self, k):
        return self.images[k - self.min_level]

    def coherent(self):
        """Images must project onto each other between adjacent levels."""
        return all(self.image_at(k + 1).project(k) == self.image_at(k)
                   for k in range(self.min_level, self.top_level))


def chabauty_distance(a: ClosedSubgroupApprox, b: ClosedSubgroupApprox):
    if a.min_level != b.min_level or a.top_level != b.top_level:
        raise WindowMismatchError("approximations compare only at equal resolution")
    for k in range(a.min_level, a.top_level + 1):
        if a.image_at(k) != b.image_at(k):
            return ChabautyDistance(False, k)
    return ChabautyDistance(True, a.top_level)


def con_closure_approx(model, g, K, cap=DEFAULT_CAP, label=None):
    return ClosedSubgroupApprox.build(
        model,
        label or "con-closure",
        lambda k: model.con_closure_image(g, k, cap),
        K,
    )


def nub_approx(model, g, K, cap=DEFAULT_CAP, label=None):
    return ClosedSubgroupApprox.build(
        model, label or "nub", lambda k: model.nub_image(g, k, cap), K
    )


# -- the convergence experiment ----------------------------------------------


def _level_json(level):
    return "inf" if level == INF_LEVEL else level


def _transports(model, r, a, b):
    """r A r^-1 = B at every level of the approximations A and B."""
    return all(a.image_at(k).conjugated(model.project(r, k)) == b.image_at(k)
               for k in range(a.min_level, a.top_level + 1))


def net_experiment(model, g, schedule, K, trace_horizon=None, cap=DEFAULT_CAP):
    """Instrument a shrinking schedule (n, U_n, u_n) of perturbations of g.

    For each n the two-sided conjugator r is built (its forward construction
    asserts t_n in (U_n)_+), and the contraction-closure and nub
    approximations of g u_n are compared against those of g with the
    Chabauty instrument.  Returns one JSON-ready row per n.

    The bound a row is checked against: r lies in U_n, inside the reference
    compact open, and r = 1 mod p^m for m = level_r (its image at every
    level k <= m is the identity).  Projection to level k is a homomorphism
    there, so the level-k image of r H r^-1 is r_k H_k r_k^-1, which is H_k
    for k <= m.  Hence if r closure(con g) r^-1 = closure(con g u_n), the
    two closures agree through level m: d_con is indistinguishable or first
    distinguishes above level_r.  The same holds for the nubs.  A row passes
    iff the four approximations are coherent, both conjugations by r hold at
    every level, and d_con and d_nub obey the bound.
    """
    if trace_horizon is None:
        trace_horizon = K + 4
    ref_con = con_closure_approx(model, g, K, cap)
    ref_nub = nub_approx(model, g, K, cap)
    ref_coherent = ref_con.coherent() and ref_nub.coherent()
    rows = []
    previous_U = None
    for n, U_n, u_n in schedule:
        if previous_U is not None and not (U_n <= previous_U):
            raise HypothesisError(f"schedule not shrinking at n={n}")
        previous_U = U_n
        if not U_n.contains(u_n):
            raise HypothesisError(f"u_{n} outside U_{n}")
        try:
            two = conjugator_two_sided(model, g, u_n, U_n, trace_horizon)
        except HypothesisError as exc:
            raise HypothesisError(f"schedule fails at n={n}: {exc}") from exc
        gu_n = model.mul(g, u_n)
        con = con_closure_approx(model, gu_n, K, cap)
        nub = nub_approx(model, gu_n, K, cap)
        d_con, d_nub = chabauty_distance(ref_con, con), chabauty_distance(ref_nub, nub)
        level_r = model.proximity_level(two.r)
        ok = (ref_coherent and con.coherent() and nub.coherent()
              and _transports(model, two.r, ref_con, con)
              and _transports(model, two.r, ref_nub, nub)
              and all(d.indistinguishable or d.level > level_r for d in (d_con, d_nub)))
        rows.append(
            {
                "experiment": "net-limit",
                "model": model.name,
                "n": n,
                "level_u": _level_json(model.proximity_level(u_n)),
                "level_t": _level_json(model.proximity_level(two.forward.t)),
                "level_r": _level_json(level_r),
                "d_con": d_con.as_json(),
                "d_nub": d_nub.as_json(),
                "pass": ok,
            }
        )
    return rows
