"""Exhaustive oracles that the tests compare the package's shortcuts with.

They enumerate whole element sets, follow orbits step by step or read
membership off a definition, so they are meant for small images and short
horizons only and are no part of the package.  The samplers draw random
elements of the sets the models describe exactly, for the tests that hold
an exact oracle to trajectories or window images.
"""

from tdlcw.epseq import EPSeq
from tdlcw.kernel import INF_LEVEL, conjugate, det, product_is
from tdlcw.limits import HypothesisError
from tdlcw.linear import (INF, NEG_INF, FactorizationError, QMatrix, _from_coords, _vpi,
                          identity_matrix)
from tdlcw.shift import ShiftElement, lamp_element, shift_generator, shift_identity


def is_subgroup(image):
    """Does the image's element set hold the identity and the inverse of
    each element and the product of each pair?"""
    w, elems = image.window, image.elements
    return w.identity in elems and all(
        w.inv(a) in elems and all(w.mul(a, b) in elems for b in elems) for a in elems)


def is_group_valued(m):
    """m_rt <= m_rs + m_st for all r, s, t: the residues of a clamped shape
    form a group."""
    n = range(len(m))
    return all(m[r][t] <= m[r][s] + m[s][t] for r in n for s in n for t in n)


def triangle_closed(m):
    """The largest shape entrywise <= m that is group-valued, as a tuple
    of rows (shortest paths: m_rt lowered to m_rs + m_st)."""
    m = [list(row) for row in m]
    for s in range(len(m)):
        for r in range(len(m)):
            for t in range(len(m)):
                m[r][t] = min(m[r][t], m[r][s] + m[s][t])
    return tuple(map(tuple, m))


def untidy_above_level(model, U, K, parts):
    """`tidy.untidy_above_level` level by level: the first k in
    min_level..K at which image_k(U_+) * image_k(U_-) is not image_k(U),
    or None."""
    for k in range(model.min_level, K + 1):
        if not product_is(parts.u_plus.window_image(k), parts.u_minus.window_image(k),
                          U.window_image(k)):
            return k
    return None


def transports(model, r, a, b):
    """`limits._transports` level by level: r A_k r^-1 = B_k at every level
    of the approximations A and B, coherent or not."""
    return all(a.image_at(k).conjugated(model.project(r, k)) == b.image_at(k)
               for k in range(a.min_level, a.top_level + 1))


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
        _w_minus, w_plus = model.splitter(U, g, parts)(u.mul(h))
        t = t.mul(powers.g_inv[n].mul(w_plus.inv()).mul(powers.g[n]))
    if not parts.u_plus.contains(t):
        raise HypothesisError("constructed conjugator escapes U_+")
    return t


def contains_coordinates(U, y):
    """`ShapeSubgroup.contains_coordinates` with the unit-determinant test
    on the full determinant of the rows: det(y) = det(rows) / d^n is a unit
    iff p^(n vd) exactly divides det(rows), for vd the valuation of d."""
    p, d = U.p, y.den
    vd = _vpi(d, p)
    unit = p ** (len(y.rows) * vd)
    dt = det(y.rows)
    if dt % unit or not dt % (unit * p):
        return False
    for r, (row, bounds) in enumerate(zip(y.rows, U.shape)):
        for s, (e, bound) in enumerate(zip(row, bounds)):
            if r == s:
                e -= d
            if bound == INF:
                if e:
                    return False
            elif bound != NEG_INF and bound + vd > 0 and e % p ** (bound + vd):
                return False
    return True


def _permuted(m, order):
    """m with rows and columns read in `order`."""
    return QMatrix(tuple(tuple(m.rows[r][s] for s in order) for r in order), m.den, m.p)


def ul_factor(y, order=None):
    """`linear.ul_factor` by row operations on a copy of y with rows and
    columns read in `order`: each column, from the right, is cleared by the
    unit upper triangular matrix that subtracts l_r,col / l_col,col times
    row col from each row r < col; those operations multiply into u^-1, u
    is its inverse, and both factors are read back in y's order."""
    n = y.n
    order = list(range(n)) if order is None else list(order)
    back = sorted(range(n), key=order.__getitem__)
    l = _permuted(y, order)
    u_inv = identity_matrix(n, y.p)
    for col in range(n - 1, 0, -1):
        pivot = l.rows[col][col]
        if pivot == 0:
            raise FactorizationError("zero pivot in UL elimination", witness=y)
        op = QMatrix(tuple(tuple(-l.rows[r][col] if s == col and r < col else pivot * (r == s)
                                 for s in range(n)) for r in range(n)), pivot, y.p)
        l, u_inv = op.mul(l), op.mul(u_inv)
    return _permuted(u_inv.inv(), back), _permuted(l, back)


def vanish_set(left=None, fin=(), right=None):
    """The indicator over F_2 of (-inf, left] + fin + [right, inf), with
    None for a ray that is not there, read position by position."""
    ends = [i for i in (left, right) if i is not None]
    points = [*fin, *ends]
    if not points:
        return EPSeq.zero(2)
    lo = min(points)

    def member(i):
        return i in fin or (left is not None and i <= left) or (right is not None and i >= right)

    core = [member(i) for i in range(lo, max(points) + 1)]
    return EPSeq.make(2, [left is not None], core, lo, [right is not None])


def forward_union(v, m, span):
    """The digits on `span` of the union of the v + i*m over i >= 0, as the
    explicit finite union of the translates that can reach it: below v's
    offset (above its end for m < 0) v repeats with its tail period, so
    the translates past that many steps beyond the span add nothing."""
    lo, hi = min(span), max(span)
    reach = max(hi - v.offset, v.end - lo, 0) // abs(m) + len(v.left) + len(v.right) + 1
    translates = [v.shift(i * m) for i in range(reach + 1)]
    return tuple(int(any(t.value_at(x) for t in translates)) for x in span)


def in_translate_unions(parts, g, x, count=80):
    """(x in U_--, x in U_++) by their definition: x lies in some
    g^-i U_- g^i, or in some g^i U_+ g^-i, for 0 <= i < count."""
    m, p = g.shift, g.p
    return (any(parts.u_minus.contains(conjugate(shift_generator(p, i * m), x))
                for i in range(count)),
            any(parts.u_plus.contains(conjugate(shift_generator(p, -i * m), x))
                for i in range(count)))


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
