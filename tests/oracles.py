"""Exhaustive oracles that the tests compare the package's shortcuts with.

They enumerate whole element sets, follow orbits step by step or read
membership off a definition, so they are meant for small images and short
horizons only and are no part of the package.  The samplers draw random
elements of the sets the models describe exactly, for the tests that hold
an exact oracle to trajectories or window images.
"""

from tdlcw.epseq import EPSeq
from tdlcw.kernel import INF_LEVEL, conjugate
from tdlcw.limits import HypothesisError
from tdlcw.linear import FactorizationError, QMatrix, _from_coords, identity_matrix
from tdlcw.shift import ShiftElement, lamp_element, shift_identity


def is_subgroup(image):
    """Does the image's element set hold the identity and the inverse of
    each element and the product of each pair?"""
    w, elems = image.window, image.elements
    return w.identity in elems and all(
        w.inv(a) in elems and all(w.mul(a, b) in elems for b in elems) for a in elems)


def trajectory_contracts(model, g, x, K, N):
    """Does the conjugation orbit g^n x g^-n reach filtration level K and
    stay there through step N?  A statement at resolution K over horizon
    N, not an exact membership decision."""
    if x == model.identity or model.proximity_level(x) == INF_LEVEL:
        return True
    y = x
    reached = False
    for n in range(N + 1):
        level = model.proximity_level(y)
        if level == INF_LEVEL or level >= K:
            reached = True
        elif reached:
            return False
        y = conjugate(g, y)
    return reached


def stage_conjugator(model, g, u, U, N, parts, powers):
    """`limits._stage_conjugator` step by step, as the construction states
    it: each step forms h = (gu)^n t g^-n from the `PowerTable`, checks
    that b_n = t^-1 h lies in U, splits u h = w_- w_+ and updates
    t <- t g^-n w_+^-1 g^n."""
    t = model.identity
    for n in range(N):
        h = powers.gu[n].mul(t).mul(powers.g_inv[n])
        if not U.contains(t.inv().mul(h)):
            raise HypothesisError(f"certificate b_{n} escapes U")
        _w_minus, w_plus = model.split(u.mul(h), U, g, parts)
        t = t.mul(powers.g_inv[n].mul(w_plus.inv()).mul(powers.g[n]))
    if not parts.u_plus.contains(t):
        raise HypothesisError("constructed conjugator escapes U_+")
    return t


def ul_factor(y):
    """`linear.ul_factor` by row operations: each column, from the right,
    is cleared by the unit upper triangular matrix that subtracts
    l_r,col / l_col,col times row col from each row r < col; those
    operations multiply into u^-1, and u is its inverse."""
    n, l = y.n, y
    u_inv = identity_matrix(n, y.p)
    for col in range(n - 1, 0, -1):
        pivot = l.rows[col][col]
        if pivot == 0:
            raise FactorizationError("zero pivot in UL elimination", witness=y)
        op = QMatrix(tuple(tuple(-l.rows[r][col] if s == col and r < col else pivot * (r == s)
                                 for s in range(n)) for r in range(n)), pivot, y.p)
        l, u_inv = op.mul(l), op.mul(u_inv)
    return u_inv.inv(), l


def quotient_contains(quotient, x):
    """Membership of x in the N of a `QuotientDescriptor`: elements with
    no shift for the lamp kind, the identity alone for the trivial one."""
    if quotient.kind == "trivial":
        return x.is_identity()
    return x.shift == 0


def _sample_support(p, rng):
    """Random lamp values on about 40 % of the positions in [-6, 6]."""
    return {i: rng.randrange(p) for i in range(-6, 7) if rng.random() < 0.4}


def sample_reference(model, rng, count):
    """count random finitely supported lamps, in the shift model's
    reference compact open."""
    return [lamp_element(model.p, _sample_support(model.p, rng)) for _ in range(count)]


def sample_con_elements(model, g, rng, count):
    """count random elements of con(g), by the model's description of it:
    for a shift, lamps with a zero tail on the contracting side, some with
    a periodic tail on the other; for a matrix, unipotents in g's
    eigencoordinates with entries only where v_r > v_s."""
    if model.name == "shift":
        return _sample_shift_con(model.p, g, rng, count)
    basis, vals = model.eigen_data(g)
    n, p = model.n, model.p
    out = []
    for _ in range(count):
        y = [[int(r == s) for s in range(n)] for r in range(n)]
        for r in range(n):
            for s in range(n):
                if vals[r] > vals[s] and rng.random() < 0.8:
                    y[r][s] = rng.randrange(-3, 4) * p ** rng.randrange(0, 3)
        out.append(_from_coords(basis, QMatrix.make(y, p)))
    return out


def _sample_shift_con(p, g, rng, count):
    if g.shift == 0:
        return [shift_identity(p)] * count
    out = []
    for _ in range(count):
        core = EPSeq.from_support(p, _sample_support(p, rng))
        if rng.random() < 0.3:
            # nonzero periodic tail on the non-contracting side, just past
            # the sampled support [-6, 6]
            period = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 3)))
            if g.shift > 0:
                core = core.add(EPSeq.make(p, (0,), (), 7, period))
            else:
                core = core.add(EPSeq.make(p, period, (), -7, (0,)))
        out.append(ShiftElement(core, 0))
    return out
