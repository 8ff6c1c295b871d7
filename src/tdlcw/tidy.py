"""Model-generic subgroup dynamics for a conjugation automorphism.

Everything here is phrased against the model adapter surface, which the
`ShiftModel` docstring lists: given a compact open subgroup U and an
element g acting by conjugation, compute the parts

    U_+  = intersection of the forward conjugates  g^i U g^-i, i >= 0
    U_-  = intersection of the backward conjugates
    U_0  = U_+ intersect U_-
    U_-- = union of backward conjugates of U_-  (usually not closed)
    U_++ = union of forward conjugates of U_+

test whether U is *tidy above* (U = U_+ U_-) and *tidy below* (U_-- closed,
equivalently U_-- meets U in U_-), locate tidy subgroups, derive the scale
as the index [g U_+ g^-1 : U_+], decide contraction/parabolic membership,
and compute the nub through five independent characterizations that must
agree exactly.

Every answer is exact or says that it is inconclusive.  Membership in
con(g) and par(g) is the model's oracle, or "inconclusive" for a pair
(g, x) outside the oracle's class; tidy-above is decided from the parts
of (U, g), and a model that cannot build them raises.
"""

from __future__ import annotations

from tdlcw.kernel import (
    ContainmentError,
    TdlcwError,
    UnsupportedElementError,
    Value,
    index,
    product_is,
    product_set_equals,
)

#: The membership answer for an element outside the oracle's class.
INCONCLUSIVE = "inconclusive"


class HorizonExceededError(TdlcwError, RuntimeError):
    """No horizon within the cap produced a conclusive answer."""


class NubDisagreementError(TdlcwError, RuntimeError):
    """The nub characterizations disagree: a correctness tripwire, never a
    tolerance issue.  The witness maps each characterization to its order."""

    def __init__(self, images):
        orders = {name: im.order for name, im in images.items()}
        lines = ", ".join(f"{k}: order {order}" for k, order in orders.items())
        super().__init__(f"nub characterizations disagree ({lines})", orders)


class UParts(Value):
    """The subgroup parts attached to (U, g); see the module docstring.

    u_plus / u_minus / u_zero are compact open descriptors; u_mm / u_pp
    describe the (generally non-closed) unions and only promise membership
    tests plus window images.
    """

    __slots__ = ("u_plus", "u_minus", "u_zero", "u_mm", "u_pp")


def u_parts(model, U, g):
    """Symbolic parts when the model supports (U, g); raises otherwise.
    A forwarder, kept as the name the benchmark's trace wraps."""
    return model.u_parts_symbolic(U, g)


def is_tidy_above(model, U, g, K, parts):
    """Check image_k(U_+) * image_k(U_-) = image_k(U) for every k <= K,
    from the parts of (U, g); the identity at K implies it below K (see
    `untidy_above_level`), so a tidy U costs one check.

    Returns (True, None, None) or (False, k, witness) with the smallest
    failing k.
    """
    k = untidy_above_level(model, U, K, parts)
    if k is None:
        return True, None, None
    _, witness = product_set_equals(
        parts.u_plus.window_image(k), parts.u_minus.window_image(k), U.window_image(k))
    return False, k, witness


def untidy_above_level(model, U, K, parts):
    """The smallest level k <= K at which image_k(U_+) * image_k(U_-) is
    not image_k(U), or None; decided by orders, so no product is formed.

    Level K is decided first.  Reduction pi_k from level K to k <= K is a
    homomorphism and image_k(H) = pi_k(image_K(H)), so
    image_k(U_+) image_k(U_-) = pi_k(image_K(U_+) image_K(U_-)): the
    identity at K gives it at every level below.  Only when K fails are
    the levels scanned upwards for the smallest failure.
    """
    def tidy_at(k):
        return product_is(parts.u_plus.window_image(k), parts.u_minus.window_image(k),
                          U.window_image(k))

    if K < model.min_level or tidy_at(K):
        return None
    return next((k for k in range(model.min_level, K) if not tidy_at(k)), K)


def tidy_above_procedure(model, U, g, max_k=10, K=None):
    """Smallest k <= max_k such that the intersection V of the conjugates
    g^i U g^-i for 0 <= i <= k is tidy above; returns (V, k, parts), the
    parts those of (V, g).  A model that cannot build the parts of some V
    raises.

    Such a k always exists for a compact open U, but no a-priori bound is
    available, hence the search depth max_k.
    """
    if K is None:
        K = model.default_resolution
    V = U
    for k in range(max_k + 1):
        if k > 0:
            V = V.intersect(model.conj_open(U, g, k))
        parts = u_parts(model, V, g)
        verdict, _, _ = is_tidy_above(model, V, g, K, parts)
        if verdict is True:
            return V, k, parts
    raise HorizonExceededError(f"no tidy-above intersection within max_k={max_k}")


def is_tidy_below(model, U, g, parts):
    """Decide whether U_-- is closed, i.e. U_-- meets U in exactly U_-, by
    the model's exact certificate: (True, reason) or (False, witness), the
    witness an element of U and of U_-- outside U_-.  A forwarder, kept as
    the name the benchmark's trace wraps."""
    return model.tidy_below_certificate(U, g, parts)


def find_tidy(model, g, K=None):
    """A subgroup V tidy above and below for g, from the model's
    candidates, with the parts of (V, g): returns (V, parts)."""
    if K is None:
        K = model.default_resolution
    for U in model.tidy_candidates(g, K):
        try:
            V, _, parts = tidy_above_procedure(model, U, g, K=K)
        except (UnsupportedElementError, HorizonExceededError):
            continue
        below, _ = is_tidy_below(model, V, g, parts)
        if below is True:
            return V, parts
    raise HorizonExceededError("no tidy subgroup found among the candidates")


def scale_index(model, g, K=None):
    """The scale of g as the index [g U_+ g^-1 : U_+] at a tidy U.

    Since g U_+ g^-1 need not sit inside the reference compact open, the
    index is evaluated in the conjugation-equivalent form
    [U_+ : g^-1 U_+ g], whose terms are both inside U_+.

    K is the resolution of the tidy search (the model's default when None).
    The index is taken no coarser than K and than the finest level of
    either subgroup, where their window images see all of both, so it is
    exact whatever K is; image orders are closed-form.
    """
    _, parts = find_tidy(model, g, K)
    up = parts.u_plus
    down = model.conj_open(up, g, -1)
    if not down <= up:
        raise ContainmentError("g^-1 U_+ g escapes U_+; U is not tidy (internal bug)")
    K = max(K or 1, up.finest_level(), down.finest_level())
    return index(up.window_image(K), down.window_image(K))


def con_membership(model, g, x):
    """x in con(g)?  The model's exact oracle, or INCONCLUSIVE for a pair
    (g, x) outside its class; the identity lies in every con(g)."""
    if x.is_identity():
        return True
    try:
        return model.con_oracle(g, x)
    except UnsupportedElementError:
        return INCONCLUSIVE


def par_membership(model, g, x):
    """x in par(g) (relatively compact forward orbit)?  The model's exact
    oracle, or INCONCLUSIVE for a pair (g, x) outside its class; the
    identity lies in every par(g)."""
    if x.is_identity():
        return True
    try:
        return model.par_oracle(g, x)
    except UnsupportedElementError:
        return INCONCLUSIVE


def _tidy_intersection_image(model, g, K):
    """Window image approximating the intersection of all tidy subgroups,
    via the conjugates g^j V g^-j of each tidy candidate V for |j| <= 2."""
    result = None
    for U in model.tidy_candidates(g, K):
        try:
            parts = u_parts(model, U, g)
        except UnsupportedElementError:
            continue
        if untidy_above_level(model, U, K, parts) is not None:
            continue
        below, _ = is_tidy_below(model, U, g, parts)
        if below is not True:
            continue
        V = U
        for j in (-2, -1, 1, 2):
            V = V.intersect(model.conj_open(U, g, j))
        img = V.window_image(K)
        result = img if result is None else result & img
    if result is None:
        raise HorizonExceededError("no tidy candidate usable for the nub")
    return result


def nub_compute(model, g, K):
    """The nub of g at resolution K, cross-validated five ways.

    Characterizations computed as window images:
      tidy:      intersection of (conjugates of) tidy subgroups,
      bco:       closure of the bounded-contraction set con(g) ^ par(g^-1),
      con-par:   closure(con(g)) ^ par(g^-1),
      con-con:   closure(con(g)) ^ closure(con(g^-1)),
      rbco:      intersection over filtration levels V of the relative
                 bounded-contraction sets rbco(g, V).

    Any disagreement raises NubDisagreementError; agreement returns the
    common image together with the per-characterization report.
    """
    g_inv = g.inv()
    con_img = model.con_closure_image(g, K)
    images = {
        "tidy": _tidy_intersection_image(model, g, K),
        "bco": model.bco_image(g, K),
        "con-par": con_img & model.par_image(g, K),
        "con-con": con_img & model.con_closure_image(g_inv, K),
    }
    rbco = None
    for v in range(K + 1):
        img = model.rbco_image(g, v, K)
        rbco = img if rbco is None else rbco & img
    images["rbco"] = rbco
    reference = images["con-con"]
    report = {name: im == reference for name, im in images.items()}
    if not all(report.values()):
        raise NubDisagreementError(images)
    return reference, report


def tidy_identity_report(model, U, g, K):
    """Window-image identities tying the parts of (U, g) to the contraction
    groups, checked exactly at every level up to K:

      mm:     U_--  =  con(g) U_0          (and U_++ = con(g^-1) U_0)
      minus:  U_-   = (con(g)    ^ U_-) U_0
      plus:   U_+   = (con(g^-1) ^ U_+) U_0
      tidy:   U_-   = (con(g)    ^ U  ) U_0  (only when U is tidy)

    Left factors are computed as window-image intersections, which is exact
    for both models (contraction groups are dense in their closures inside
    each part).  Returns {"levels": per-level dicts, "pass": bool}.
    """
    parts = u_parts(model, U, g)
    g_inv = g.inv()
    above, _, _ = is_tidy_above(model, U, g, K, parts)
    below, _ = is_tidy_below(model, U, g, parts)
    tidy_form = above is True and below is True
    levels = []
    for k in range(model.min_level, K + 1):
        con_img = model.con_closure_image(g, k)
        con_inv_img = model.con_closure_image(g_inv, k)
        u0 = parts.u_zero.window_image(k)
        um = parts.u_minus.window_image(k)
        up = parts.u_plus.window_image(k)
        row = {
            "k": k,
            "mm": product_is(con_img, u0, parts.u_mm.window_image(k)),
            "pp": product_is(con_inv_img, u0, parts.u_pp.window_image(k)),
            "minus": product_is(con_img & um, u0, um),
            "plus": product_is(con_inv_img & up, u0, up),
        }
        if tidy_form:
            u_img = U.window_image(k)
            row["tidy_minus"] = product_is(con_img & u_img, u0, um)
            row["tidy_plus"] = product_is(con_inv_img & u_img, u0, up)
        levels.append(row)
    ok = all(v for row in levels for key, v in row.items() if key != "k")
    return {"levels": levels, "tidy_form_checked": tidy_form, "pass": ok}
