"""Conjugator construction and convergence instrumentation.

Given g, a compact open U tidy above for g, and u in U, the inductive
algorithm builds a conjugator t in U_+ with

    t^-1 (gu)^k t = b_k g^k,   b_k in U,   for 0 <= k <= N,

entirely by exact arithmetic.  Step n splits y_n = u h_n = w_- w_+ in U,
where h_n = (gu)^n t_n g^-n, and passes the next split only
y_{n+1} = u g w_- g^-1 and Q_{n+1} = g w_+ Q_n, where Q_n = g^n t_n^-1
and Q_0 = 1.  Then t^-1 = g^-N Q_N, so a stage inverts one element, not
one a step.  The split's own input check is the step certificate
b_n = t_n^-1 h_n in U, and a stage plans its split once
(`model.splitter`).  A two-sided variant
runs the same induction for g' = g^-1 and u' = g u^-1 g^-1, on the forward
run's U-parts swapped and its tidy check (`conjugator_two_sided` proves
both apply), and combines the results into r with the identity holding
for |k| <= N.

A stage reads one power, g^N, from `model.power`.  The final
certificates follow the recurrence b_0 = 1 and b_{k+s} = c^s b_k g^-s for
s = +-1, with c = x^-1 (gu) x formed once per side, so no power of gu is
formed.  They replay independently of it: with e_k = x b_k, the identity
at k says e_k = (gu)^k x g^-k, which holds for every |k| <= N exactly
when b_0 = 1 and e_{k+s} = (gu)^s e_k g^-s (induction on |k|): per side
N + 1 products x b_k and N `mul` calls of two products each, none
forming c or x^-1.

The transport of contraction groups along a conjugator t is decided on
window images: t closure(con g) t^-1 and closure(con gu) are compared at
every level up to TRANSPORT_K, both images structural, and the first level
where they differ is the witness.  The Chabauty-distance instrument
compares two closed subgroups of the reference compact open the same way,
window by window, and the distance is 2^-m for the first level m where
they differ.
"""

from __future__ import annotations

from fractions import Fraction

from tdlcw import tidy
from tdlcw.kernel import (INF_LEVEL, ContainmentError, InputError, TdlcwError, Value,
                          WindowMismatchError)

#: Top window level of the contraction-group and nub transports.
TRANSPORT_K = 3


class HypothesisError(InputError):
    """A checked precondition of the construction fails."""


class TransportError(TdlcwError, RuntimeError):
    """A conjugated image differs from its target; the witness is the
    first level where the contraction-group images differ, or the two nub
    images as sorted lists of residues."""


def _induction_holds(model, trace, x, certs, signs):
    """b_0 = 1, the keys of certs are exactly s k for s in signs and
    0 <= k <= N, every b_k lies in U, and e_{k+s} = (gu)^s e_k g^-s for
    e_k = x b_k.

    By induction on |k| this is x^-1 (gu)^k x = b_k g^k for every key.
    The step is the certificate step b_{k+s} = c^s b_k g^-s, for
    c = x^-1 (gu) x, multiplied on the left by x: as x c^s = (gu)^s x,
    x b_{k+s} = x c^s b_k g^-s = (gu)^s (x b_k) g^-s, and as x is
    invertible the two equations hold together.  This form never makes
    x^-1, whose x x^-1 would otherwise cancel inside every product, and
    the lowest terms of each product would have to divide it back out.
    """
    N, g = trace.horizon, trace.g
    if (certs.keys() != {s * k for s in signs for k in range(N + 1)}
            or certs[0] != model.identity
            or not all(trace.U.contains(b) for b in certs.values())):
        return False
    gu = g.mul(trace.u)
    e = {k: x.mul(b) for k, b in certs.items()}
    for s in signs:
        gu_s, g_minus_s = (gu, g.inv()) if s > 0 else (gu.inv(), g)
        for k in range(0, s * N, s):
            if e[k + s] != gu_s.mul(e[k], g_minus_s):
                return False
    return True


class ConjugatorTrace(Value):
    """Certificate of the forward construction; replayable independently.
    `certificates` is the tuple of b_k for k = 0..horizon."""

    __slots__ = ("g", "u", "U", "horizon", "t", "certificates")

    def replay(self, model):
        """Re-verify every certificate identity by exact multiplication."""
        return _induction_holds(model, self, self.t, dict(enumerate(self.certificates)), (1,))


class TwoSidedTrace(Value):
    """Certificate of the two-sided construction: `forward` is the trace
    for (g, u), whose t lies in U_+, and `certificates` maps k to b_k for
    -horizon <= k <= horizon."""

    __slots__ = ("g", "u", "U", "horizon", "forward", "r", "certificates")

    def replay(self, model):
        return _induction_holds(model, self, self.r, self.certificates, (1, -1))


def conjugator_forward(model, g, u, U, N):
    """Stage-N conjugator for the perturbation g -> gu, with certificates.

    Checks the hypotheses, u in U and U tidy above for g, in that order.
    """
    if not U.contains(u):
        raise HypothesisError("u must lie in U")
    return _forward(model, g, g.inv(), u, U, N, tidy.u_parts(model, U, g))[0]


def _forward(model, g, g_inv, u, U, N, parts):
    """The forward trace for (g, u) and its t^-1, for u in U and the
    U-parts `parts` of (U, g); checks that U is tidy above for g."""
    k = tidy.untidy_above_level(model, U, max(model.min_level, 1), parts)
    if k is not None:
        raise HypothesisError(f"U is not tidy above for g (level {k})")
    t = _stage_conjugator(model, g, g_inv, u, U, N, parts)
    t_inv = t.inv()
    certs = _certificates(model, U, t_inv.mul(g, u, t), g_inv, N, 1)
    return ConjugatorTrace(g, u, U, N, t, tuple(certs)), t_inv


def _certificates(model, U, c_s, g_minus_s, N, s):
    """[b_0, b_s, ..., b_sN] for the side s = +-1 of x, by b_0 = 1 and
    b_{k+s} = c^s b_k g^-s, given c^s for c = x^-1 (gu) x and g^-s.

    Then b_k = x^-1 (gu)^k x g^-k, by induction on |k|: x^-1 (gu)^s x
    (x^-1 (gu)^k x g^-k) g^-s = x^-1 (gu)^(k+s) x g^-(k+s).  Raises
    HypothesisError at the first b_k, from k = 0 outward, that escapes U.
    """
    out = [model.identity]
    for k in range(s, s * (N + 1), s):
        b = c_s.mul(out[-1], g_minus_s)
        if not U.contains(b):
            raise HypothesisError(f"certificate b_{k} escapes U")
        out.append(b)
    return out


def _stage_conjugator(model, g, g_inv, u, U, N, parts):
    """The stage-N conjugator t in U_+ of the forward construction for
    (g, u), with the certificate of each step checked; the hypotheses and
    the final certificates are the caller's, and so is g_inv = g^-1.

    Step n splits y_n = u h_n = w_- w_+ with h_n = (gu)^n t_n g^-n and sets
    t_{n+1} = t_n g^-n w_+^-1 g^n.  Three identities spare every power but
    g^N and every inverse but one, for five products a step in two `mul`
    calls that each reduce to lowest terms once:
    1. h_{n+1} = (gu) h_n w_+^-1 g^-1 = g w_- g^-1 and h_0 = 1: expand
       t_{n+1} in h_{n+1}, then u h_n w_+^-1 = w_-.  So y_0 = u and
       y_{n+1} = u g w_- g^-1.
    2. Q_n = g^n t_n^-1 has Q_0 = 1 and Q_{n+1} = g w_+ Q_n: invert
       t_{n+1} = t_n g^-n w_+^-1 g^n and multiply on the left by
       g^(n+1).  So t = Q_N^-1 g^N, with g^N from `model.power`: the
       stage's one inverse.
    3. u h_n lies in U iff b_n = t_n^-1 h_n does, as u is in U and t_n in
       U_+ <= U: the split's input check is the step certificate.
    The split is planned once for the stage, by `model.splitter`.
    """
    split = model.splitter(U, g, parts)
    y, Q = u, model.identity
    for n in range(N):
        try:
            w_minus, w_plus = split(y)
        except ContainmentError:
            raise HypothesisError(f"certificate b_{n} escapes U") from None
        y = u.mul(g, w_minus, g_inv)
        Q = g.mul(w_plus, Q)
    t = Q.inv().mul(model.power(g, N))
    if not parts.u_plus.contains(t):
        raise HypothesisError("constructed conjugator escapes U_+")
    return t


def conjugator_two_sided(model, g, u, U, N):
    """Conjugator r with certificates on both sides of the horizon.

    Requires u in U and in g^-1 U g.  Runs the forward construction for
    (g, u) and the stage for (g^-1, g u^-1 g^-1), splits t^-1 s = w_- w_+
    in U, and combines r = t w_- (so that also r = s w_+^-1).

    The backward stage reuses the forward run's U-parts and tidy check.
    Conjugation by g^-1 expands what g contracts, so U_+(g^-1) = U_-(g),
    U_-(g^-1) = U_+(g), U_0(g^-1) = U_0(g), U_++(g^-1) = U_--(g) and
    U_--(g^-1) = U_++(g): the backward parts are the forward ones swapped.
    U tidy above for g^-1 means U = U_-(g) U_+(g), and inverting both sides
    of U = U_+(g) U_-(g) shows that this holds exactly when U is tidy above
    for g.  Its u' = g u^-1 g^-1, the inverse of the g u g^-1 the hypothesis
    check forms, lies in U as u is in g^-1 U g.  The identities 1-3 of
    `_stage_conjugator` hold for (g^-1, u'): y'_{n+1} = u' g^-1 w'_- g;
    s = Q'_N^-1 (g^-1)^N; and s_n lies in U_+(g^-1) = U_-(g) <= U, so the
    split's input check is b'_n in U.

    The backward stage checks its step certificates but forms no final
    certificates of its own, as r's imply them.  With
    b_k(x) = x^-1 (gu)^k x g^-k, those would be b_k(s) for -N <= k <= 0,
    and since r = s w_+^-1 with w_+ in U_+,

        b_k(r) = w_+ b_k(s) (g^k w_+^-1 g^-k),

    whose last factor lies in g^k U_+ g^-k <= U_+ for k <= 0.  So b_k(r)
    lies in U exactly when b_k(s) does, and the k <= 0 certificates of r,
    checked first from k = 0 down, fail at the same |k| as s's would.
    Those follow c^-1 = r^-1 (gu)^-1 r, where (gu)^-1 = g^-1 u'.
    """
    if not U.contains(u):
        raise HypothesisError("u must lie in U")
    g_inv = g.inv()
    gug = g.mul(u, g_inv)
    if not U.contains(gug):
        raise HypothesisError("u must lie in g^-1 U g")
    u_back = gug.inv()
    parts = tidy.u_parts(model, U, g)
    forward, t_inv = _forward(model, g, g_inv, u, U, N, parts)
    backward = tidy.UParts(parts.u_minus, parts.u_plus, parts.u_zero, parts.u_pp, parts.u_mm)
    s = _stage_conjugator(model, g_inv, g, u_back, U, N, backward)
    w_minus, _w_plus = model.splitter(U, g, parts)(t_inv.mul(s))
    r = forward.t.mul(w_minus)
    r_inv = r.inv()
    # k <= 0 first: an escape names the first failing k in this order.
    below = _certificates(model, U, r_inv.mul(g_inv, u_back, r), g, N, -1)
    above = _certificates(model, U, r_inv.mul(g, u, r), g_inv, N, 1)
    certs = dict(zip(range(-N, N + 1), below[::-1] + above[1:]))
    return TwoSidedTrace(g, u, U, N, forward, r, certs)


def con_transport_check(model, g, u, t):
    """Transport of contraction groups along t: t closure(con g) t^-1 =
    closure(con gu), as window images at every level from model.min_level
    to TRANSPORT_K.  Equal images give both inclusions; the first level
    where they differ raises TransportError with that level as witness.

    On the shift model the check holds for every t, so it cannot fail
    there: for a shifting g, closure(con g) is the whole lamp group, which
    is normal in G, and gu shifts as g does.  A shift row with a wrong t
    still fails, through the replay of its certificates.

    Every level is compared, not only the top one: the images here are
    computed level by level, independently, and nothing checks that they
    project onto each other, so the top level alone would not decide."""
    gu = g.mul(u)
    for k in range(model.min_level, TRANSPORT_K + 1):
        image = model.con_closure_image(g, k).conjugated(model.project(t, k))
        if image != model.con_closure_image(gu, k):
            raise TransportError(
                f"t closure(con g) t^-1 differs from closure(con gu) at level {k}", k)
    return {"resolution": TRANSPORT_K, "pass": True}


def nub_transport_check(model, g, u, r):
    """Window-image equality of r nub(g) r^-1 and nub(gu) at resolution
    TRANSPORT_K."""
    gu = g.mul(u)
    nub_g, _ = tidy.nub_compute(model, g, TRANSPORT_K)
    nub_gu, _ = tidy.nub_compute(model, gu, TRANSPORT_K)
    conjugated = nub_g.conjugated(model.project(r, TRANSPORT_K))
    if conjugated != nub_gu:
        raise TransportError(
            "conjugated nub image differs from nub(gu) image",
            (conjugated.sorted_codes(), nub_gu.sorted_codes()),
        )
    return {"resolution": TRANSPORT_K, "order": nub_gu.order, "pass": True}


# -- Chabauty instrumentation ------------------------------------------------


class ChabautyDistance(Value):
    """Either 2^-level (first window level that distinguishes) or certified
    indistinguishability at the comparison resolution."""

    __slots__ = ("indistinguishable", "level")

    @property
    def value(self):
        if self.indistinguishable:
            return Fraction(0)
        return Fraction(1, 2**self.level)

    def as_json(self):
        if self.indistinguishable:
            return f"indist@{self.level}"
        return {"num": 1, "log2_denom": self.level}


class ClosedSubgroupApprox(Value):
    """Per-level window images of a closed subgroup of the reference
    compact open; the finite-resolution stand-in for a Chabauty point."""

    __slots__ = ("min_level", "images")

    @classmethod
    def build(cls, model, image_fn, K):
        images = tuple(image_fn(k) for k in range(model.min_level, K + 1))
        return cls(model.min_level, images)

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


def con_closure_approx(model, g, K):
    return ClosedSubgroupApprox.build(model, lambda k: model.con_closure_image(g, k), K)


def nub_approx(model, g, K):
    return ClosedSubgroupApprox.build(model, lambda k: model.nub_image(g, k), K)


# -- the convergence experiment ----------------------------------------------


def level_json(level):
    return "inf" if level == INF_LEVEL else level


def _transports(model, r, a, b):
    """r A r^-1 = B at every level of the approximations A and B, which
    must be coherent (A_k the reduction of A_K to level k, and B_k of B_K).
    Then the top level K decides: reduction is a homomorphism, so
    r A_K r^-1 = B_K reduces to r_k A_k r_k^-1 = B_k.  With no levels
    (K below min_level) the identity holds vacuously."""
    k = a.top_level
    return k < a.min_level or a.image_at(k).conjugated(model.project(r, k)) == b.image_at(k)


def net_experiment(model, g, schedule, K):
    """Instrument a shrinking schedule (n, U_n, u_n) of perturbations of g.

    For each n the two-sided conjugator r is built through horizon K + 4
    (its forward construction asserts t_n in (U_n)_+), and the
    contraction-closure and nub approximations of g u_n are compared against
    those of g with the Chabauty instrument.  Returns one JSON-ready row per
    n.

    The bound a row is checked against: r lies in U_n, inside the reference
    compact open, and r = 1 mod p^m for m = level_r (its image at every
    level k <= m is the identity).  Projection to level k is a homomorphism
    there, so the level-k image of r H r^-1 is r_k H_k r_k^-1, which is H_k
    for k <= m.  Hence if r closure(con g) r^-1 = closure(con g u_n), the
    two closures agree through level m: d_con is indistinguishable or first
    distinguishes above level_r.  The same holds for the nubs.  A row passes
    iff the four approximations are coherent, both conjugations by r hold at
    every level, and d_con and d_nub obey the bound.  Coherence is checked
    first, and for coherent approximations the conjugation at the top level
    K projects to every level below it, so `_transports` compares level K
    alone.
    """
    ref_con = con_closure_approx(model, g, K)
    ref_nub = nub_approx(model, g, K)
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
            two = conjugator_two_sided(model, g, u_n, U_n, K + 4)
        except HypothesisError as exc:
            raise HypothesisError(f"schedule fails at n={n}: {exc}") from exc
        gu_n = g.mul(u_n)
        con = con_closure_approx(model, gu_n, K)
        nub = nub_approx(model, gu_n, K)
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
                "level_u": level_json(model.proximity_level(u_n)),
                "level_t": level_json(model.proximity_level(two.forward.t)),
                "level_r": level_json(level_r),
                "d_con": d_con.as_json(),
                "d_nub": d_nub.as_json(),
                "pass": ok,
            }
        )
    return rows
