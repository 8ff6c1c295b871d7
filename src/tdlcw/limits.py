"""Conjugator construction and convergence instrumentation.

Given g, a compact open U tidy above for g, and u in U, the inductive
algorithm builds a conjugator t in U_+ with

    t^-1 (gu)^k t = b_k g^k,   b_k in U,   for 0 <= k <= N,

entirely by exact arithmetic.  A two-sided variant runs the same
induction for g' = g^-1 and u' = g u^-1 g^-1 and combines the results
into r with the identity holding for |k| <= N.

Every power a trace needs comes from one `PowerTable`: the running
products (gu)^k, (gu)^-k, g^k and g^-k for 0 <= k <= N, about 4N
products.  Since g'u' = (gu)^-1, the backward construction reads the same
table with its columns swapped.  The certificates b_k are kept and replay
independently of the table: with c = x^-1 (gu) x, the identity at k says
b_k = c^k g^-k, which holds for every |k| <= N exactly when b_0 = 1 and
b_{k+s} = c^s b_k g^-s for s = +-1 (induction on |k|), O(N) products
that never form (gu)^k.  The replay also evaluates the identity at
k = +-N by square-and-multiply (`model.power`); the induction already
implies it, so it catches no fault the induction misses, and it is kept
only so that the benchmark's `*.power.*` metrics keep measuring
`model.power`.

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


@dataclass(frozen=True)
class PowerTable:
    """(gu)^k, (gu)^-k, g^k and g^-k for 0 <= k <= N, as running products."""

    gu: tuple
    gu_inv: tuple
    g: tuple
    g_inv: tuple

    @classmethod
    def build(cls, model, g, u, N):
        def run(factor):
            out = [model.identity]
            for _ in range(N):
                out.append(model.mul(out[-1], factor))
            return tuple(out)

        gu = model.mul(g, u)
        return cls(run(gu), run(model.inv(gu)), run(g), run(model.inv(g)))

    def backward(self):
        """The table of g' = g^-1, u' = g u^-1 g^-1, where g'u' = (gu)^-1."""
        return PowerTable(self.gu_inv, self.gu, self.g_inv, self.g)

    def certificate(self, model, U, k, x, x_inv):
        """b_k = x^-1 (gu)^k x g^-k for -N <= k <= N; raises
        HypothesisError when b_k escapes U."""
        gu_k, g_minus_k = ((self.gu[k], self.g_inv[k]) if k >= 0
                           else (self.gu_inv[-k], self.g[-k]))
        b = model.mul(model.mul(model.mul(x_inv, gu_k), x), g_minus_k)
        if not U.contains(b):
            raise HypothesisError(f"certificate b_{k} escapes U")
        return b


def _induction_holds(model, trace, x, certs, signs):
    """b_0 = 1, the keys of certs are exactly s k for s in signs and
    0 <= k <= N, every b_k lies in U, and b_{k+s} = c^s b_k g^-s with
    c = x^-1 (gu) x.

    By induction on |k| this is x^-1 (gu)^k x = b_k g^k for every key.
    """
    N, g = trace.horizon, trace.g
    if (certs.keys() != {s * k for s in signs for k in range(N + 1)}
            or certs[0] != model.identity
            or not all(trace.U.contains(b) for b in certs.values())):
        return False
    c = model.mul(model.mul(model.inv(x), model.mul(g, trace.u)), x)
    for s in signs:
        c_s, g_minus_s = (c, model.inv(g)) if s > 0 else (model.inv(c), g)
        for k in range(0, s * N, s):
            if certs[k + s] != model.mul(model.mul(c_s, certs[k]), g_minus_s):
                return False
    return True


def _replay(model, trace, x, certs, signs):
    """The induction of `_induction_holds`, which decides the replay, plus
    the identity itself at k = s N by square-and-multiply.

    The closed-form check is implied by the induction and so catches no
    fault of its own; it is kept only so that the benchmark's
    `linear.power.*` and `shift.power.*` metrics keep measuring
    `model.power`.
    """
    if not _induction_holds(model, trace, x, certs, signs):
        return False
    gu, x_inv = model.mul(trace.g, trace.u), model.inv(x)
    return all(
        model.mul(model.mul(x_inv, model.power(gu, k)), x)
        == model.mul(certs[k], model.power(trace.g, k))
        for k in (s * trace.horizon for s in signs))


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
        return _replay(model, self, self.t, dict(enumerate(self.certificates)), (1,))


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
        return _replay(model, self, self.r, self.certificates, (1, -1))


def conjugator_forward(model, g, u, U, N, parts=None, check_tidy=True, powers=None):
    """Stage-N conjugator for the perturbation g -> gu, with certificates.

    `powers` is the `PowerTable` of (g, u) through N, built here when None.
    """
    if not U.contains(u):
        raise HypothesisError("u must lie in U")
    if parts is None:
        parts = tidy.u_parts(model, U, g)
    if check_tidy:
        verdict, k, _ = tidy.is_tidy_above(
            model, U, g, max(model.min_level, 1), parts=parts)
        if verdict is not True:
            raise HypothesisError(f"U is not tidy above for g (level {k})")
    if powers is None:
        powers = PowerTable.build(model, g, u, N)
    t = model.identity
    # Each step sets t <- t y, y = g^-n w_+^-1 g^n.
    for n in range(N):
        b = powers.certificate(model, U, n, t, model.inv(t))
        _w_minus, w_plus = model.split(model.mul(model.mul(u, t), b), U, g, parts)
        y = model.mul(model.mul(powers.g_inv[n], model.inv(w_plus)), powers.g[n])
        t = model.mul(t, y)
    if not parts.u_plus.contains(t):
        raise HypothesisError("constructed conjugator escapes U_+")
    t_inv = model.inv(t)
    certs = tuple(powers.certificate(model, U, k, t, t_inv) for k in range(N + 1))
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
    (g, u) and for (g^-1, g u^-1 g^-1), both reading one `PowerTable`,
    splits t^-1 s = w_- w_+ in U, and combines r = t w_- (so that also
    r = s w_+^-1).
    """
    if not U.contains(u):
        raise HypothesisError("u must lie in U")
    if not U.contains(model.conjugate(g, u)):
        raise HypothesisError("u must lie in g^-1 U g")
    u_back = model.conjugate(g, model.inv(u))
    parts = tidy.u_parts(model, U, g)
    powers = PowerTable.build(model, g, u, N)
    forward = conjugator_forward(
        model, g, u, U, N, parts, check_tidy=check_tidy, powers=powers)
    s = conjugator_forward(
        model, model.inv(g), u_back, U, N, check_tidy=check_tidy,
        powers=powers.backward()).t
    t = forward.t
    w_minus, _w_plus = model.split(model.mul(model.inv(t), s), U, g, parts)
    r = model.mul(t, w_minus)
    r_inv = model.inv(r)
    # k <= 0 first: an escape names the first failing k in this order.
    below = [powers.certificate(model, U, -k, r, r_inv) for k in range(N + 1)]
    above = [powers.certificate(model, U, k, r, r_inv) for k in range(1, N + 1)]
    certs = dict(zip(range(-N, N + 1), below[::-1] + above))
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
