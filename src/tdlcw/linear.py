"""The linear model: GL_n(Q_p) with exact rational matrix arithmetic.

A matrix is stored as integer rows over one positive common denominator in
lowest terms, so equal matrices are equal as data and every p-adic
statement reduces to valuations of integers; nothing is ever rounded.
Compact open subgroups are "valuation shapes": a change of basis plus an
integer matrix of lower bounds on the valuations of the entries of x - I.
The dynamics path requires elements with n distinct rational eigenvalues
(an explicit eigenbasis, whose vectors are adjugate columns in integers);
the Newton-polygon scale needs no eigenbasis and covers every invertible
matrix.  Shape orders and eigen data are pure functions of small immutable
values, each computed once per process.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import permutations, product

from tdlcw.kernel import (
    DEFAULT_CAP,
    INF_LEVEL,
    ContainmentError,
    Image,
    InputError,
    MatrixWindow,
    ResolutionError,
    TdlcwError,
    UnsupportedElementError,
    Value,
    adjugate,
    cached_attribute,
    det,
    mulmod,
    power,
)

INF = math.inf
NEG_INF = -math.inf


class NotPIntegralError(InputError):
    """Window projection requested for a matrix with p in a denominator."""


class FactorizationError(TdlcwError, ValueError):
    """UL-split failed; doubles as a not-tidy-above certificate."""


# -- exact rational matrices ------------------------------------------------

_IDENTITY = {n: tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
             for n in (2, 3)}


def _vpi(m, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def vp(q, p):
    """Exact p-adic valuation of a rational; 0 maps to the +inf sentinel."""
    if q == 0:
        return INF
    q = Fraction(q)
    return _vpi(q.numerator, p) - _vpi(q.denominator, p)


class QMatrix:
    """Invertible rational matrix regarded inside GL_n(Q_p).

    `rows` are integer tuples over the positive common denominator `den`,
    in lowest terms (gcd of all entries and `den` is 1), so `==` and `hash`
    are exact.  Instances are immutable; the inverse and the `Fraction`
    view `entries` are computed on each call.
    """

    __slots__ = ("rows", "den", "p")

    def __init__(self, rows, den, p):
        if den != 1:
            # Unrolled for n = 2 and n = 3, the only sizes.
            if len(rows) == 2:
                (a, b), (c, d) = rows
                g = math.gcd(den, a, b, c, d)
            else:
                (a, b, c), (d, e, f), (x, y, z) = rows
                g = math.gcd(den, a, b, c, d, e, f, x, y, z)
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                if len(rows) == 2:
                    rows = ((a // g, b // g), (c // g, d // g))
                else:
                    rows = ((a // g, b // g, c // g), (d // g, e // g, f // g),
                            (x // g, y // g, z // g))
        self.rows = rows
        self.den = den
        self.p = p

    @classmethod
    def make(cls, rows, p):
        entries = [[Fraction(e) for e in row] for row in rows]
        den = math.lcm(*(e.denominator for row in entries for e in row))
        num = tuple(
            tuple(e.numerator * (den // e.denominator) for e in row) for row in entries
        )
        if det(num) == 0:
            raise UnsupportedElementError("matrix is not invertible")
        return cls(num, den, p)

    def __eq__(self, other):
        return isinstance(other, QMatrix) and (
            (self.rows, self.den, self.p) == (other.rows, other.den, other.p))

    def __hash__(self):
        return hash((self.rows, self.den, self.p))

    def __repr__(self):
        return f"QMatrix({self.rows!r}, {self.den!r}, {self.p!r})"

    @property
    def n(self):
        return len(self.rows)

    @property
    def entries(self):
        """The entries as `Fraction`s, for printing and tests."""
        d = self.den
        return tuple(tuple(Fraction(e, d) for e in row) for row in self.rows)

    @property
    def det(self):
        return Fraction(det(self.rows), self.den**self.n)

    def val(self, r, s):
        """p-adic valuation of entry (r, s)."""
        e = self.rows[r][s]
        return INF if e == 0 else _vpi(e, self.p) - _vpi(self.den, self.p)

    def mul(self, *factors):
        """self * factors[0] * factors[1] * ..., in lowest terms.

        The integer rows and the denominators are multiplied through every
        factor and reduced once, at the end.  Lowest terms are unique, so
        the result equals the chain of two-factor products; a chain costs
        one gcd and one round of exact divisions instead of one per factor.
        """
        den = self.den
        if len(self.rows) == 2:
            (a, b), (c, d) = self.rows
            for other in factors:
                (e, f), (g, h) = other.rows
                a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
                den *= other.den
            rows = ((a, b), (c, d))
        else:
            (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = self.rows
            for other in factors:
                (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = other.rows
                a0, a1, a2, a3, a4, a5, a6, a7, a8 = (
                    a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
                    a0 * b2 + a1 * b5 + a2 * b8,
                    a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7,
                    a3 * b2 + a4 * b5 + a5 * b8,
                    a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
                    a6 * b2 + a7 * b5 + a8 * b8)
                den *= other.den
            rows = ((a0, a1, a2), (a3, a4, a5), (a6, a7, a8))
        return QMatrix(rows, den, self.p)

    def inv(self):
        """den * adjugate(rows) / det(rows)."""
        d = self.den
        adj = tuple(tuple(d * e for e in row) for row in adjugate(self.rows))
        return QMatrix(adj, det(self.rows), self.p)

    def is_identity(self):
        return self.den == 1 and self.rows == _IDENTITY[len(self.rows)]

    def is_p_integral(self):
        # In lowest terms, p | den leaves p in the denominator of some entry.
        return self.den % self.p != 0


def identity_matrix(n, p):
    return QMatrix(_IDENTITY[n], 1, p)


@cache
def _basis_inv(basis):
    """basis^-1, computed once per basis: a subgroup's basis serves every
    coordinate change of a trace."""
    return basis.inv()


def _coords(basis, x):
    """basis^-1 x basis: x in the coordinates of the basis columns."""
    return x if basis.is_identity() else _basis_inv(basis).mul(x, basis)


def _from_coords(basis, y):
    """basis y basis^-1: y given in the coordinates of the basis columns."""
    return y if basis.is_identity() else basis.mul(y, _basis_inv(basis))


def charpoly(g):
    """Monic characteristic polynomial of g, returned as [c_0, ..., c_n=1]."""
    a, n = g.rows, g.n
    tr = sum(a[i][i] for i in range(n))
    if n == 2:
        coeffs = [det(a), -tr, 1]
    else:
        # c_1 is the sum of the principal 2x2 minors: the trace of the adjugate.
        adj = adjugate(a)
        coeffs = [-det(a), adj[0][0] + adj[1][1] + adj[2][2], -tr, 1]
    return [Fraction(c, g.den ** (n - i)) for i, c in enumerate(coeffs)]


def newton_valuations(g):
    """Valuations of the eigenvalues of g (over a closure), with multiplicity.

    Computed as the slopes of the lower convex hull of the characteristic
    polynomial's valuation data; returned sorted descending.
    """
    coeffs = charpoly(g)
    n = g.n
    pts = [(i, vp(c, g.p)) for i, c in enumerate(coeffs) if c != 0]
    # Lower convex hull from (0, vp(c_0)) to (n, 0); root valuations are the
    # negated slopes, each with multiplicity the segment's horizontal span.
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    vals = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        vals.extend([-slope] * (x2 - x1))
    assert len(vals) == n
    return sorted(vals, reverse=True)


def _rational_roots(coeffs):
    """The distinct rational roots, ascending, of a rational polynomial of
    degree 2 or 3, constant term first.

    With integer coefficients a_i and lead = a_d, y = lead x makes it the
    monic integer q with q_i = a_i lead^(d-1-i), whose rational roots are
    integers of absolute value at most 1 + max |q_i| (Cauchy).  The integer
    floors of the real roots of q' cut that range into pieces on which q is
    strictly monotone, and bisection finds each piece's root, if any.
    """
    denom = math.lcm(*(c.denominator for c in coeffs))
    a = [int(c * denom) for c in coeffs]
    deg, lead = len(a) - 1, a[-1]
    q = [c * lead ** (deg - 1 - i) for i, c in enumerate(a[:-1])] + [1]
    if deg == 2:
        cuts = [-q[1] // 2]
    else:
        # q' = 3y^2 + 2 q_2 y + q_1 has roots (-q_2 -+ sqrt(disc)) / 3.
        disc = q[2] ** 2 - 3 * q[1]
        s = math.isqrt(max(disc, 0))
        cuts = [] if disc < 0 else [(-q[2] - s - (s * s < disc)) // 3, (-q[2] + s) // 3]

    def value(y):
        out = 0
        for c in reversed(q):
            out = out * y + c
        return out

    bound = 1 + max(map(abs, q[:-1]))
    ends = [-bound - 1, *cuts, bound]
    roots = []
    for lo, hi in zip(ends, ends[1:]):
        lo += 1
        if lo > hi:
            continue
        # The smallest y of the piece with sign * q(y) >= 0 is its root, if any.
        sign = 1 if value(hi) >= value(lo) else -1
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * value(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if value(lo) == 0:
            roots.append(Fraction(lo, lead))
    return sorted(roots)


def eigenbasis(g):
    """(B, v): columns of B are eigenvectors, v the eigenvalue valuations.

    Requires n distinct rational eigenvalues; ordered by valuation
    descending (ties broken by eigenvalue) so contracting entries sit above
    the diagonal in eigencoordinates.  For an eigenvalue a/b, M = b rows -
    a den I has rank n - 1, so every nonzero column of adjugate(M) spans its
    kernel; the column is scaled so that its last nonzero entry is 1, the
    vector that row reduction of M yields, then made primitive at p.
    """
    coeffs = charpoly(g)
    roots = _rational_roots(coeffs)
    if len(roots) != g.n:
        raise UnsupportedElementError(
            "element outside the supported class (needs n distinct rational "
            "eigenvalues)"
        )
    roots.sort(key=lambda lam: (-vp(lam, g.p), lam))
    n, rows, den = g.n, g.rows, g.den
    columns = []
    for lam in roots:
        a, b = lam.numerator, lam.denominator
        m = tuple(tuple(b * e - (a * den if i == j else 0) for j, e in enumerate(row))
                  for i, row in enumerate(rows))
        adj = adjugate(m)
        vec = next(col for col in zip(*adj) if any(col))
        last = next(e for e in reversed(vec) if e)
        columns.append(_primitive_p_vector([Fraction(e, last) for e in vec], g.p))
    basis = QMatrix.make([[columns[j][i] for j in range(n)] for i in range(n)], g.p)
    vals = tuple(vp(lam, g.p) for lam in roots)
    diag = _coords(basis, g).rows
    assert all(i == j or diag[i][j] == 0 for i in range(n) for j in range(n))
    return basis, vals


def _primitive_p_vector(vec, p):
    shift = min(vp(e, p) for e in vec if e != 0)
    scale = Fraction(p) ** (-int(shift)) if shift != INF else Fraction(1)
    scaled = [e * scale for e in vec]
    # Clear non-p parts of denominators for tidier bases.
    denom = math.lcm(*(e.denominator for e in scaled))
    while denom % p == 0:
        denom //= p
    return [e * denom for e in scaled]


# -- valuation shapes --------------------------------------------------------


def validate_shape(shape):
    """Check the subgroup-defining inequalities on a valuation shape."""
    n = len(shape)
    for r in range(n):
        if shape[r][r] < 0:
            raise InputError("diagonal shape entries must be non-negative")
    for r in range(n):
        for s in range(n):
            if r != s and shape[r][s] + shape[s][r] < 0:
                raise InputError("off-diagonal shape entries must have sum >= 0")
            for t in range(n):
                if shape[r][s] + shape[s][t] < shape[r][t]:
                    raise InputError("shape violates the triangle inequality")


def shape_entrywise_max(a, b):
    n = len(a)
    return tuple(tuple(max(a[r][s], b[r][s]) for s in range(n)) for r in range(n))


def shape_translate(shape, vals, i):
    """Shape of f^i(U) when conjugation shifts entry (r,s) by v_r - v_s."""
    return tuple(
        tuple(e if e in (INF, NEG_INF) else e + (vals[r] - vals[s]) * i
              for s, e in enumerate(row))
        for r, row in enumerate(shape))


def shape_subset(inner, outer):
    """inner subgroup contained in outer: entrywise >= on the shapes."""
    n = len(inner)
    return all(inner[r][s] >= outer[r][s] for r in range(n) for s in range(n))


def congruence_shape(n, k):
    return tuple(tuple(k for _ in range(n)) for _ in range(n))


def iwahori_shape(n):
    """Level-1-above-the-diagonal shape: val >= 1 on the strict upper
    triangle, the contracting entries of an eigenbasis ordered by
    descending valuation."""
    return tuple(tuple(int(r < s) for s in range(n)) for r in range(n))


class ShapeSubgroup(Value):
    """Compact open B * {x: val(x_rs - delta_rs) >= M_rs, det a unit} * B^-1;
    a shape read from text is checked by `LinearModel.parse_subgroup`."""

    __slots__ = ("basis", "shape")

    @property
    def p(self):
        return self.basis.p

    @property
    def n(self):
        return self.basis.n

    def contains(self, x):
        return self.contains_coordinates(_coords(self.basis, x))

    def contains_coordinates(self, y):
        """Does the subgroup hold the element whose matrix in the
        coordinates of the basis columns is y?"""
        p, d = self.basis.p, y.den
        vd = _vpi(d, p)
        # det(y) = det(rows) / d^n is a unit iff p^(n vd) exactly divides
        # det(rows), which reduction mod m = p^(n vd + 1), a ring
        # homomorphism, decides from the rows' residues.
        unit = p ** (len(y.rows) * vd)
        m = unit * p
        dt = det([[e % m for e in row] for row in y.rows]) % m
        if dt % unit or not dt:
            return False
        # y = rows / d, so val(y_rs - delta_rs) >= bound iff
        # p^(bound + vd) divides rows_rs - d delta_rs.
        for r, (row, bounds) in enumerate(zip(y.rows, self.shape)):
            for s, (e, bound) in enumerate(zip(row, bounds)):
                if r == s:
                    e -= d
                if bound == INF:
                    if e:
                        return False
                elif bound != NEG_INF and bound + vd > 0 and e % p ** (bound + vd):
                    return False
        return True

    def intersect(self, other):
        if other.basis != self.basis:
            raise UnsupportedElementError("shape intersection needs a shared basis")
        return ShapeSubgroup(self.basis, shape_entrywise_max(self.shape, other.shape))

    def __le__(self, other):
        if other.basis != self.basis:
            raise UnsupportedElementError("shape comparison needs a shared basis")
        return shape_subset(self.shape, other.shape)

    def _clamped(self, K):
        n = self.n
        return tuple(
            tuple(int(max(0, min(K, self.shape[r][s]))) for s in range(n))
            for r in range(n)
        )

    def finest_level(self):
        """The largest finite bound of the shape (0 when none): window
        images at or above that level see all of the subgroup."""
        finite = [e for row in self.shape for e in row if e not in (INF, NEG_INF)]
        return int(max([0] + finite))

    def window_image(self, K):
        """Image of (this subgroup intersected with GL_n(Z_p)) mod p^K."""
        window = MatrixWindow(self.n, self.p, K)
        conj = None
        if not self.basis.is_identity():
            b = project_matrix(self.basis, K)
            conj = (b, window.inv(b))
        return ShapeImage(window, self._clamped(K), conj)


class ShapeImage(Image):
    """The image mod p^K of a shape subgroup: b c b^-1 for b its basis mod
    p^K and c over `_residues(clamped)`.  `conj` holds the residues of b
    and b^-1, None for the identity basis.  Images in one basis meet in the
    entrywise maximum of their shapes (see `_meet` for other bases); images
    in unrelated bases compare by `generators`.  Containment and equality
    compare orders, never shapes: different clamped shapes can give one
    image (at p = 2 a level-0 diagonal entry is already 1 mod 2)."""

    __slots__ = ("window", "clamped", "conj")

    @cached_attribute
    def order(self):
        w = self.window
        return _shape_order(self.clamped, w.p, w.K)

    def __contains__(self, y):
        """Is the residue y, read in basis coordinates, one of ours?"""
        w = self.window
        if self.conj:
            b, b_inv = self.conj
            y = mulmod(mulmod(b_inv, y, w.modulus), b, w.modulus)
        return all((e - (r == s)) % w.p**c == 0
                   for r, (row, bounds) in enumerate(zip(y, self.clamped))
                   for s, (e, c) in enumerate(zip(row, bounds)))

    def _meet(self, other):
        """Structural when the bases agree, or differ by a monomial matrix
        c = b_other^-1 b (one unit per row r, in column sigma(r)): entry
        (r, t) of c y c^-1 - I is a unit times entry (sigma(r), sigma(t)) of
        y - I, so our shape permuted by sigma describes us in other's basis."""
        if not isinstance(other, ShapeImage) or other.window != self.window:
            return None
        w, a = self.window, self.clamped
        if other.conj != self.conj:
            one = (w.identity,) * 2
            c = mulmod((other.conj or one)[1], (self.conj or one)[0], w.modulus)
            support = [[s for s, e in enumerate(row) if e] for row in c]
            if any(len(cols) != 1 for cols in support):
                return None
            sigma = [cols[0] for cols in support]
            a = tuple(tuple(a[sr][st] for st in sigma) for sr in sigma)
        return ShapeImage(w, shape_entrywise_max(a, other.clamped), other.conj)

    @cached_attribute
    def generators(self):
        """b (I + p^e E_rs) b^-1 off the diagonal and b diag(u) b^-1 on it,
        u over `_unit_generators(p, e)`, for each entry of level e < K.  They
        generate the image when the shape is group-valued (m_rt <= m_rs +
        m_st), as elementary and diagonal matrices generate GL_n of a local
        ring; otherwise the image is given by its elements."""
        w, c = self.window, self.clamped
        p, K, m, n = w.p, w.K, w.modulus, len(c)
        if any(c[r][t] > c[r][s] + c[s][t] for r, s, t in product(range(n), repeat=3)):
            return self.elements
        b, b_inv = self.conj or (w.identity,) * 2
        gens = []
        for r, s in product(range(n), repeat=2):
            e = c[r][s]
            if e == K:
                continue
            for a in _unit_generators(p, e) if r == s else (p**e,):
                y = [list(row) for row in _IDENTITY[n]]
                y[r][s] = a % m
                gens.append(mulmod(mulmod(b, y, m), b_inv, m))
        return gens

    def project(self, K):
        """The image at level K <= this one's, from this image's shape and
        basis residues reduced mod p^K."""
        w = self.window
        conj = self.conj and tuple(w.reduce(c, K) for c in self.conj)
        clamped = tuple(tuple(min(e, K) for e in row) for row in self.clamped)
        return ShapeImage(w.level(K), clamped, conj)

    def conjugated(self, a):
        w = self.window
        b, b_inv = self.conj or (w.identity, w.identity)
        conj = (w.mul(a, b), w.mul(b_inv, w.inv(a)))
        return ShapeImage(w, self.clamped, conj)

    @cached_attribute
    def elements(self):
        if self.order > DEFAULT_CAP:
            raise ResolutionError(f"shape image of order {self.order}", DEFAULT_CAP)
        w = self.window
        residues = _residues(self.clamped, w.p, w.K)
        if self.conj:
            (b, b_inv), m = self.conj, w.modulus
            residues = (mulmod(mulmod(b, c, m), b_inv, m) for c in residues)
        return frozenset(residues)


@cache
def _unit_generators(p, e):
    """Generators of the units = 1 mod p^e of Z/p^K, for every K > e: 3 and
    -1 at p = 2 and e <= 1, else a primitive root mod p^2 at e = 0, and
    1 + p^e above."""
    if p == 2 and e <= 1:
        return (3, -1)
    if e == 0:
        return (next(a for a in range(2, p * p)
                     if len({pow(a, i, p * p) for i in range(p * p)}) == p * (p - 1)),)
    return (1 + p**e,)


def _residues(clamped, p, K):
    """Every residue matrix c mod p^K with c_rs = delta_rs mod p^clamped_rs
    and a unit determinant (every one at K = 0), as a tuple of rows."""
    total = math.prod(p ** (K - e) for row in clamped for e in row)
    if total > 4 * DEFAULT_CAP:
        raise ResolutionError(f"shape image of size ~{total}", DEFAULT_CAP)
    m = p**K
    rows = [
        list(product(*([(int(r == s) + p**e * t) % m for t in range(p ** (K - e))]
                       for s, e in enumerate(bounds))))
        for r, bounds in enumerate(clamped)
    ]
    return (c for c in product(*rows) if not K or det(c) % p)


@cache
def _shape_order(clamped, p, K):
    """The number of `_residues(clamped)`, in closed form where the
    determinant condition splits; otherwise they are counted, under the cap.
    Computed once per process for each (clamped, p, K)."""
    n = len(clamped)
    if K == 0:
        return 1
    if all(e == 0 for row in clamped for e in row):
        return MatrixWindow(n, p, K).order
    if not _det_splits(clamped):
        return sum(1 for _ in _residues(clamped, p, K))
    return math.prod(p ** (K - e) if r != s or e >= 1 else p**K - p ** (K - 1)
                     for r, row in enumerate(clamped) for s, e in enumerate(row))


def _det_splits(clamped):
    """True when every non-identity permutation crosses a level>=1 entry, so
    the determinant is a unit exactly when all diagonal entries are."""
    n = len(clamped)
    return all(any(clamped[r][perm[r]] for r in range(n) if perm[r] != r)
               for perm in permutations(range(n)) if perm != tuple(range(n)))


def project_matrix(x, K):
    """Residue of a p-integral, unit-determinant matrix mod p^K: its rows
    times den^-1."""
    p, m = x.p, x.p**K
    if not x.is_p_integral():
        raise NotPIntegralError(f"denominator {x.den} is not a unit at p={p}")
    scale = pow(x.den, -1, m)
    return MatrixWindow(x.n, p, K).encode([[e * scale for e in row] for row in x.rows])


# -- exact UL factorization --------------------------------------------------


def ul_factor(y, order=None):
    """Factor y = u * l with u unit upper triangular and l lower triangular
    once rows and columns are read in `order`, a permutation of range(n)
    (the identity when None).

    Clears the entries above the diagonal column by column from the last
    in the order: row r before col loses m_r,col = l_r,col / l_col,col times
    row col.  Each operation is I - sum_r m_r,col E_r,col, whose inverse
    puts +m_r,col in column col alone, and these inverses multiply with no
    cross terms, so u carries every multiplier in place.  The rows stay
    integers over one common denominator, multiplied by each pivot; they
    are reduced once, at the end.  Raises FactorizationError on a zero
    pivot (the Bruhat obstruction).
    """
    n, rows, den = y.n, y.rows, y.den
    order = range(n) if order is None else order
    steps = []  # (col, pivot, (r, rows[r][col]) for r before col): m_r,col, as den cancels
    for i in range(n - 1, 0, -1):
        col, before = order[i], order[:i]
        pivot = rows[col][col]
        if pivot == 0:
            raise FactorizationError("zero pivot in UL elimination", witness=y)
        steps.append((col, pivot, [(r, rows[r][col]) for r in before]))
        rows = [[pivot * e - row[col] * f for e, f in zip(row, rows[col])]
                if r in before else [pivot * e for e in row]
                for r, row in enumerate(rows)]
        den *= pivot
    # u over the product D of the pivots: entry (r, col) is m_r,col D.
    D = math.prod(pivot for _, pivot, _ in steps)
    u = [[D * (r == s) for s in range(n)] for r in range(n)]
    for col, pivot, column in steps:
        for r, e in column:
            u[r][col] = e * (D // pivot)
    u = QMatrix(tuple(map(tuple, u)), D, y.p)
    l = QMatrix(tuple(map(tuple, rows)), den, y.p)
    assert u.mul(l) == y
    return u, l


def _parse_rows(text, entry, n, what):
    """The n x n entries of `text`, rows split by ";" and entries by ",",
    each read by `entry`; a malformed text is an InputError."""
    try:
        rows = [[entry(part.strip()) for part in row.split(",")]
                for row in text.split(";")]
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {what} {text!r}") from None
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InputError(f"expected a {n}x{n} {what}")
    return rows


class LinearModel:
    """Model adapter for GL_n(Q_p): the surface listed at ShiftModel, plus
    `eigen_data`, `integral_basis` and `unipotent`."""

    name = "linear"
    #: Resolution 0 would be GL_n(Z/1), the trivial group; start at 1.
    min_level = 1
    #: Eigen data by element, shared by every model of the process: g
    #: carries p and n, and the data is a pure function of g.
    _eigen_cache = {}

    def __init__(self, p=2, n=2):
        if n not in (2, 3):
            raise InputError("linear model supports n in {2, 3}")
        self.p = p
        self.n = n
        # Default checking resolution: the finest level whose full window
        # stays cheap to enumerate; explicit K may go up to the hard cap.
        K = 1
        while MatrixWindow(n, p, K + 1).order <= DEFAULT_CAP // 16:
            K += 1
        self.default_resolution = K

    # -- element arithmetic -------------------------------------------------

    @property
    def identity(self):
        return identity_matrix(self.n, self.p)

    def power(self, g, k):
        return power(self.identity, g, k)

    def proximity_level(self, x):
        if x.is_identity():
            return INF_LEVEL
        if not self.in_reference(x):
            return -1
        # x - I = (rows - den I) / den with den a p-adic unit.
        d = x.den
        return min(
            _vpi(e - d * (r == s), self.p)
            for r, row in enumerate(x.rows)
            for s, e in enumerate(row)
            if e != d * (r == s)
        )

    # -- windows ------------------------------------------------------------

    def window(self, K):
        return MatrixWindow(self.n, self.p, K)

    def in_reference(self, x):
        """Is x in GL_n(Z_p)?  Conjugation by such x preserves every
        congruence subgroup, so all its orbits are bounded."""
        return x.is_p_integral() and det(x.rows) % self.p != 0

    def project(self, x, K):
        if vp(x.det, self.p) != 0:
            raise UnsupportedElementError("element outside the reference compact open")
        return project_matrix(x, K)

    def filtration(self, k):
        return ShapeSubgroup(self.identity, congruence_shape(self.n, k))

    def reference(self):
        return self.filtration(0)

    # -- eigen data ---------------------------------------------------------

    def eigen_data(self, g):
        """(basis, vals) of g, computed once per process."""
        data = self._eigen_cache.get(g)
        if data is None:
            data = self._eigen_cache[g] = self._eigen_data_uncached(g)
        return data

    def _eigen_data_uncached(self, g):
        n, p = g.n, g.p
        if all(g.rows[r][s] == 0 for r in range(n) for s in range(n) if r != s):
            # Already diagonal: usable even with repeated eigenvalues, as
            # long as the valuations descend so contracting entries sit
            # above the diagonal.
            vals = tuple(g.val(r, r) for r in range(n))
            if all(a >= b for a, b in zip(vals, vals[1:])):
                return identity_matrix(n, p), vals
        return eigenbasis(g)

    def integral_basis(self, g):
        """`eigen_data(g)`, after checking that the eigenbasis lies in
        GL_n(Z_p), as every window computation in that basis needs."""
        basis, vals = self.eigen_data(g)
        if not self.in_reference(basis):
            raise UnsupportedElementError(
                "eigenbasis is not p-integral with unit determinant; window "
                "computations are unavailable for this element"
            )
        return basis, vals

    # -- oracles ------------------------------------------------------------

    def _invariant_case(self, U, g):
        """Is U a congruence-shape subgroup fixed by conjugation by g?

        Congruence subgroups are normal in the reference compact open, so
        this holds whenever g is bounded in U's coordinates.
        """
        if not self.in_reference(g):
            return False
        if len({e for row in U.shape for e in row}) != 1:
            return False
        return self.in_reference(_coords(U.basis, g))

    def con_oracle(self, g, x):
        """Exact contraction-group membership: con(g) is the shape subgroup
        in g's eigenbasis free on the entries (r, s) with v_r > v_s and
        pinned everywhere else, diagonal included."""
        if self.in_reference(g):
            # Conjugation preserves each congruence level, so the orbit of
            # x never approaches the identity unless x is the identity.
            return x.is_identity()
        basis, vals = self.eigen_data(g)
        shape = tuple(tuple(NEG_INF if a > b else INF for b in vals) for a in vals)
        return ShapeSubgroup(basis, shape).contains(x)

    def par_oracle(self, g, x):
        """Exact parabolic-group membership (bounded forward orbit)."""
        if self.in_reference(g):
            return True
        basis, vals = self.eigen_data(g)
        y = _coords(basis, x).rows
        n = len(vals)
        return all(
            y[r][s] == 0
            for r in range(n)
            for s in range(n)
            if vals[r] < vals[s]
        )

    def _eigen_image(self, g, K, entry):
        """Window image of the shape subgroup in g's eigenbasis whose entry
        (r, s) is entry(v_r, v_s) for the eigenvalue valuations v."""
        basis, vals = self.integral_basis(g)
        shape = tuple(tuple(entry(a, b) for b in vals) for a in vals)
        return ShapeSubgroup(basis, shape).window_image(K)

    def _trivial_image(self, K):
        return self.filtration(INF).window_image(K)

    def con_closure_image(self, g, K):
        if self.in_reference(g):
            return self._trivial_image(K)
        # The contracting entries of x - I range over Z_p, the rest are 0.
        return self._eigen_image(g, K, lambda a, b: 0 if a > b else INF)

    def bco_image(self, g, K):
        # con(g) meets par(g^-1) only in the identity: con is closed here.
        return self._trivial_image(K)

    def par_image(self, g, K):
        """Image of par(g^-1) intersected with the reference subgroup."""
        if self.in_reference(g):
            return self.reference().window_image(K)
        return self._eigen_image(g, K, lambda a, b: K if a > b else 0)

    def rbco_image(self, g, v, K):
        if self.in_reference(g):
            # Conjugation fixes each congruence subgroup, so the bounded
            # returns to V = filtration(v) are exactly V itself.
            return self.filtration(v).window_image(K)
        return self._eigen_image(g, K, lambda a, b: min(v, K) if a == b else K)

    def nub_image(self, g, K):
        if not self.in_reference(g):
            self.eigen_data(g)  # raises for unsupported elements
        return self._trivial_image(K)

    # -- symbolic subgroup dynamics -----------------------------------------

    def _require_aligned(self, U, g):
        """(U's basis, the valuations of g's eigenvalues in its column
        order); raises unless g is diagonal in U's basis.  A basis whose
        columns are those of g's eigenbasis in another order, as the
        eigenbasis of g^-1 is, is matched column by column, with no product.
        """
        basis, vals = self.eigen_data(g)
        if U.basis != basis:
            index = {col: i for i, col in enumerate(zip(*basis.rows))}
            order = [index.get(col) for col in zip(*U.basis.rows)]
            if U.basis.den == basis.den and None not in order:
                return U.basis, tuple(vals[i] for i in order)
            d = _coords(U.basis, g)
            if all(i == j or d.rows[i][j] == 0 for i in range(self.n) for j in range(self.n)):
                vals = tuple(d.val(i, i) for i in range(self.n))
                return U.basis, vals
            raise UnsupportedElementError("subgroup basis does not diagonalize g")
        return basis, vals

    def conj_open(self, U, g, i):
        if self._invariant_case(U, g):
            return U
        _, vals = self._require_aligned(U, g)
        return ShapeSubgroup(U.basis, shape_translate(U.shape, vals, i))

    def u_parts_symbolic(self, U, g):
        from tdlcw.tidy import UParts

        if self._invariant_case(U, g):
            return UParts(U, U, U, U, U)
        _, vals = self._require_aligned(U, g)
        n, M = self.n, U.shape

        def build(above, below):
            """Entries with v_r > v_s are `above`, with v_r < v_s `below`;
            U's own entry where the valuations tie or the bound is None."""
            def entry(r, s):
                a, b = vals[r], vals[s]
                bound = above if a > b else below if a < b else None
                return M[r][s] if bound is None else bound
            shape = tuple(tuple(entry(r, s) for s in range(n)) for r in range(n))
            return ShapeSubgroup(U.basis, shape)

        # u_plus, u_minus, u_zero, u_mm, u_pp
        return UParts(build(INF, None), build(None, INF), build(INF, INF),
                      build(NEG_INF, INF), build(INF, NEG_INF))

    def splitter(self, U, g, parts):
        """The split x = w_- w_+ of x in U, with w_- in U_- and w_+ in U_+,
        as a function of x.  U's alignment with g and the elimination order
        are fixed here, once for every split of a trace, and the basis
        inverse of the coordinate change once per process (`_basis_inv`)."""
        if self._invariant_case(U, g):
            return lambda x: (x, self.identity)
        _, vals = self._require_aligned(U, g)
        if len(set(vals)) == 1:
            return lambda x: (x, self.identity)
        # The parts share U's basis, so x enters its coordinates once and
        # only the two factors leave them.
        basis = U.basis
        assert parts.u_minus.basis == parts.u_plus.basis == basis
        # Read the coordinates by descending valuation (g's eigenbasis is
        # sorted already, g^-1's reversed), so that the contracting entries
        # sit strictly above the diagonal, and factor upper*lower in it.
        order = sorted(range(self.n), key=lambda r: -vals[r])

        def split(x):
            y = _coords(basis, x)
            if not U.contains_coordinates(y):
                raise ContainmentError("split input must lie in U", x)
            u, low = ul_factor(y, order)
            if not (parts.u_minus.contains_coordinates(u)
                    and parts.u_plus.contains_coordinates(low)):
                raise FactorizationError(
                    "UL factors leave the tidy parts; U is not tidy above here",
                    witness=x,
                )
            return _from_coords(basis, u), _from_coords(basis, low)

        return split

    def adjust_to_contraction(self, t, U, g, parts):
        """Split t = t' * v with v in U_0 and t' in con(g^-1) ^ U_+.

        In eigencoordinates U_+ is block lower triangular with the tie
        blocks on the diagonal; v is the block-diagonal part of t, which
        U_0 absorbs because conjugation by g fixes the tie blocks.
        """
        _, vals = self._require_aligned(U, g)
        y = _coords(U.basis, t)
        n, d = self.n, y.den
        v = tuple(
            tuple(
                y.rows[r][s] if vals[r] == vals[s] else d * (r == s)
                for s in range(n)
            )
            for r in range(n)
        )
        v_elem = _from_coords(U.basis, QMatrix(v, d, self.p))
        t_prime = t.mul(v_elem.inv())
        if (
            parts.u_zero.contains(v_elem)
            and parts.u_plus.contains(t_prime)
            and self.con_oracle(g.inv(), t_prime)
        ):
            return t_prime, v_elem, True
        return t, self.identity, False

    def tidy_candidates(self, g, K):
        if self.in_reference(g):
            basis = self.identity
        else:
            basis, _ = self.integral_basis(g)
        return [
            ShapeSubgroup(basis, congruence_shape(self.n, k)) for k in range(K + 1)
        ]

    def tidy_below_certificate(self, U, g, parts):
        if self._invariant_case(U, g):
            return True, "U is invariant under conjugation by g"
        _, vals = self._require_aligned(U, g)
        n = self.n
        meet = shape_entrywise_max(parts.u_mm.shape, U.shape)
        for r in range(n):
            for s in range(n):
                if meet[r][s] < parts.u_minus.shape[r][s]:
                    bound = int(max(0, meet[r][s]))
                    y = [list(row) for row in _IDENTITY[n]]
                    y[r][s] = self.p**bound
                    return False, _from_coords(U.basis, QMatrix.make(y, self.p))
        return True, "U_-- has closed shape form and meets U in U_-"

    def net_schedule(self, g, n_max):
        """Default shrinking schedule in g's eigenbasis: U_n is the
        congruence-refined off-diagonal-level subgroup at depth n, and
        u_n = I + p^(n + v_0 - v_last) E_last,0 perturbs the most expanding
        coordinate at depth n."""
        basis, vals = self.integral_basis(g)
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise UnsupportedElementError(
                "the default schedule needs distinct eigenvalue valuations"
            )
        n, out = self.n, []
        for k in range(1, n_max + 1):
            U = ShapeSubgroup(basis, shape_entrywise_max(iwahori_shape(n),
                                                         congruence_shape(n, k)))
            # v_0 - v_last levels finer than U_n's congruence depth, so that
            # the conjugate g u_n g^-1 (which loses that many levels) stays
            # in U_n and the two-sided construction applies at every stage.
            y = [list(row) for row in _IDENTITY[n]]
            y[n - 1][0] = self.p ** (k + vals[0] - vals[-1])
            out.append((k, U, _from_coords(basis, QMatrix.make(y, self.p))))
        return out

    # -- defaults and syntax ------------------------------------------------

    def default_element(self):
        """diag(p, 1) or diag(p^2, p, 1): distinct eigenvalues, as the
        eigenbasis path needs."""
        n = self.n
        return QMatrix(tuple(tuple(self.p ** (n - 1 - r) if r == s else 0 for s in range(n))
                             for r in range(n)), 1, self.p)

    def default_subgroup(self, g):
        return ShapeSubgroup(self.integral_basis(g)[0], iwahori_shape(self.n))

    def default_u(self, g, U, two_sided):
        """I + p^2 E_(n-1, 0) in the eigencoordinates of g."""
        return self.unipotent(g, self.p ** 2)

    def scale_formula(self, g):
        """Closed-form scale p^(sum over pairs of max(0, v_i - v_j)) over
        the eigenvalue valuations v."""
        vals = newton_valuations(g)
        exponent = sum(max(Fraction(0), vi - vj) for vi in vals for vj in vals)
        if exponent.denominator != 1:
            raise UnsupportedElementError("non-integral scale exponent")
        return g.p ** int(exponent)

    def unipotent(self, g, scalar):
        """I + scalar E_(n-1, 0), in the eigencoordinates of g."""
        n = self.n
        y = [list(row) for row in _IDENTITY[n]]
        y[n - 1][0] = scalar
        return _from_coords(self.eigen_data(g)[0], QMatrix.make(y, self.p))

    def parse_element(self, text):
        return QMatrix.make(_parse_rows(text, Fraction, self.n, "matrix"), self.p)

    def format_element(self, x):
        return ";".join(
            ",".join(str(e) for e in row) for row in x.entries
        )

    def parse_subgroup(self, text, g):
        """A valuation shape `m00,m01;m10,m11` (entry `inf` or `oo` pins a
        coordinate), in the eigenbasis of g."""
        def entry(part):
            return INF if part in ("inf", "oo") else int(part)
        shape = tuple(map(tuple, _parse_rows(text, entry, self.n, "shape")))
        validate_shape(shape)
        return ShapeSubgroup(self.integral_basis(g)[0], shape)

    def format_subgroup(self, U):
        return ";".join(",".join("inf" if e == INF else str(int(e)) for e in row)
                        for row in U.shape)
