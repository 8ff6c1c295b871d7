"""The linear model: GL_n(Q_p) with exact rational matrix arithmetic.

All p-adic statements reduce to valuation arithmetic on Fractions, so
nothing is ever rounded.  Compact open subgroups are "valuation shapes": a
change of basis plus an integer matrix of lower bounds on the valuations of
the entries of x - I.  The dynamics path requires elements with n distinct
rational eigenvalues (an explicit eigenbasis); the Newton-polygon scale
needs no eigenbasis and covers every invertible matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from tdlcw.kernel import (
    DEFAULT_CAP,
    INF_LEVEL,
    MatrixWindow,
    ResolutionError,
    SubgroupImage,
    UnsupportedElementError,
    adjugate,
    det,
)

INF = math.inf
NEG_INF = -math.inf


class NotPIntegralError(ValueError):
    """Window projection requested for a matrix with p in a denominator."""


class FactorizationError(ValueError):
    """UL-split failed; doubles as a not-tidy-above certificate."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# -- exact rational matrices ------------------------------------------------


def mat_from_rows(rows):
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def mat_identity(n):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_inv(a):
    d = det(a)
    if d == 0:
        raise ValueError("matrix is singular")
    return tuple(tuple(e / d for e in row) for row in adjugate(a))


def charpoly(a):
    """Monic characteristic polynomial, returned as [c_0, ..., c_n=1]."""
    tr = sum(a[i][i] for i in range(len(a)))
    if len(a) == 2:
        return [det(a), -tr, Fraction(1)]
    # c_1 is the sum of the principal 2x2 minors: the trace of the adjugate.
    adj = adjugate(a)
    return [-det(a), adj[0][0] + adj[1][1] + adj[2][2], -tr, Fraction(1)]


def vp(q, p):
    """Exact p-adic valuation of a rational; 0 maps to the +inf sentinel."""
    q = Fraction(q)
    if q == 0:
        return INF
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class QMatrix:
    """Invertible rational matrix regarded inside GL_n(Q_p)."""

    entries: tuple
    p: int

    @classmethod
    def make(cls, rows, p):
        entries = mat_from_rows(rows)
        if det(entries) == 0:
            raise ValueError("matrix is not invertible")
        return cls(entries, p)

    @property
    def n(self):
        return len(self.entries)

    @property
    def det(self):
        return det(self.entries)

    def mul(self, other):
        return QMatrix(mat_mul(self.entries, other.entries), self.p)

    def inv(self):
        return QMatrix(mat_inv(self.entries), self.p)

    def is_identity(self):
        return self.entries == mat_identity(self.n)

    def is_p_integral(self):
        return all(vp(e, self.p) >= 0 for row in self.entries for e in row if e)


def identity_matrix(n, p):
    return QMatrix(mat_identity(n), p)


def newton_valuations(g):
    """Valuations of the eigenvalues of g (over a closure), with multiplicity.

    Computed as the slopes of the lower convex hull of the characteristic
    polynomial's valuation data; returned sorted descending.
    """
    coeffs = charpoly(g.entries)
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


def scale_formula(g):
    """Closed-form scale p^(sum over pairs of max(0, v_i - v_j))."""
    vals = newton_valuations(g)
    exponent = sum(max(Fraction(0), vi - vj) for vi in vals for vj in vals)
    if exponent.denominator != 1:
        raise UnsupportedElementError("non-integral scale exponent")
    return g.p ** int(exponent)


def _rational_roots(coeffs):
    """All rational roots (with multiplicity ignored) of a rational polynomial."""
    from math import gcd

    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    lead, const = ints[-1], ints[0]
    if const == 0:
        return []

    def divisors(m):
        m = abs(m)
        out = set()
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.add(d)
                out.add(m // d)
            d += 1
        return out

    roots = set()
    for a in divisors(const):
        for b in divisors(lead):
            for cand in (Fraction(a, b), Fraction(-a, b)):
                if sum(c * cand**i for i, c in enumerate(coeffs)) == 0:
                    roots.add(cand)
    return sorted(roots)


def eigenbasis(g):
    """(B, v): columns of B are eigenvectors, v the eigenvalue valuations.

    Requires n distinct rational eigenvalues; ordered by valuation
    descending (ties broken by eigenvalue) so contracting entries sit above
    the diagonal in eigencoordinates.
    """
    coeffs = charpoly(g.entries)
    roots = _rational_roots(coeffs)
    if len(roots) != g.n:
        raise UnsupportedElementError(
            "element outside the supported class (needs n distinct rational "
            "eigenvalues); use the resolution-limited generic routines"
        )
    roots.sort(key=lambda lam: (-vp(lam, g.p), lam))
    n = g.n
    columns = []
    for lam in roots:
        m = [
            [g.entries[i][j] - (lam if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        vec = _nullspace_vector(m)
        columns.append(_primitive_p_vector(vec, g.p))
    basis = tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))
    vals = tuple(vp(lam, g.p) for lam in roots)
    diag = mat_mul(mat_mul(mat_inv(basis), g.entries), basis)
    assert all(i == j or diag[i][j] == 0 for i in range(n) for j in range(n))
    return QMatrix(basis, g.p), vals


def _nullspace_vector(m):
    n = len(m)
    rows = [list(r) for r in m]
    pivots = {}
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv_p = 1 / rows[rank][col]
        rows[rank] = [e * inv_p for e in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [e - f * x for e, x in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for col, r in pivots.items():
        vec[col] = -rows[r][free]
    return vec


def _primitive_p_vector(vec, p):
    shift = min(vp(e, p) for e in vec if e != 0)
    scale = Fraction(p) ** (-int(shift)) if shift != INF else Fraction(1)
    scaled = [e * scale for e in vec]
    # Clear non-p parts of denominators for tidier bases.
    denom = 1
    for e in scaled:
        denom = denom * e.denominator // math.gcd(denom, e.denominator)
    while denom % p == 0:
        denom //= p
    return [e * denom for e in scaled]


# -- valuation shapes --------------------------------------------------------


def validate_shape(shape):
    """Check the subgroup-defining inequalities on a valuation shape."""
    n = len(shape)
    for r in range(n):
        if shape[r][r] < 0:
            raise ValueError("diagonal shape entries must be non-negative")
    for r in range(n):
        for s in range(n):
            if r != s and shape[r][s] + shape[s][r] < 0:
                raise ValueError("off-diagonal shape entries must have sum >= 0")
            for t in range(n):
                if shape[r][s] + shape[s][t] < shape[r][t]:
                    raise ValueError("shape violates the triangle inequality")


def shape_entrywise_max(a, b):
    n = len(a)
    return tuple(tuple(max(a[r][s], b[r][s]) for s in range(n)) for r in range(n))


def shape_translate(shape, vals, i):
    """Shape of f^i(U) when conjugation shifts entry (r,s) by v_r - v_s."""
    n = len(shape)
    out = []
    for r in range(n):
        row = []
        for s in range(n):
            e = shape[r][s]
            if e in (INF, NEG_INF):
                row.append(e)
            else:
                row.append(e + (vals[r] - vals[s]) * i)
        out.append(tuple(row))
    return tuple(out)


def shape_subset(inner, outer):
    """inner subgroup contained in outer: entrywise >= on the shapes."""
    n = len(inner)
    return all(inner[r][s] >= outer[r][s] for r in range(n) for s in range(n))


def congruence_shape(n, k):
    return tuple(tuple(k for _ in range(n)) for _ in range(n))


def iwahori_shape(n, vals=None):
    """Level-1-above-the-diagonal shape: val >= 1 on contracting entries.

    With vals given, "above" means pairs with v_r > v_s; by default the
    strict upper triangle.
    """
    if vals is None:
        return tuple(
            tuple(1 if r < s else 0 for s in range(n)) for r in range(n)
        )
    return tuple(
        tuple(1 if vals[r] > vals[s] else 0 for s in range(n)) for r in range(n)
    )


@dataclass(frozen=True)
class ShapeSubgroup:
    """Compact open B * {x: val(x_rs - delta_rs) >= M_rs, det a unit} * B^-1."""

    basis: QMatrix
    shape: tuple
    validated: bool = True

    def __post_init__(self):
        if self.validated:
            validate_shape(self.shape)

    @property
    def p(self):
        return self.basis.p

    @property
    def n(self):
        return self.basis.n

    def contains(self, x):
        y = mat_mul(mat_mul(mat_inv(self.basis.entries), x.entries), self.basis.entries)
        p, n = self.p, self.n
        if vp(det(y), p) != 0:
            return False
        for r in range(n):
            for s in range(n):
                bound = self.shape[r][s]
                if bound == NEG_INF:
                    continue
                val = vp(y[r][s] - (1 if r == s else 0), p)
                if val < bound:
                    return False
        return True

    def conj_by(self, vals, i):
        return ShapeSubgroup(self.basis, shape_translate(self.shape, vals, i), validated=False)

    def intersect(self, other):
        if other.basis.entries != self.basis.entries:
            raise UnsupportedElementError("shape intersection needs a shared basis")
        return ShapeSubgroup(self.basis, shape_entrywise_max(self.shape, other.shape), validated=False)

    def __le__(self, other):
        if other.basis.entries != self.basis.entries:
            raise UnsupportedElementError("shape comparison needs a shared basis")
        return shape_subset(self.shape, other.shape)

    def _clamped(self, K):
        n = self.n
        return tuple(
            tuple(int(max(0, min(K, self.shape[r][s]))) for s in range(n))
            for r in range(n)
        )

    def finite_entry_max(self):
        finite = [e for row in self.shape for e in row if e not in (INF, NEG_INF)]
        return int(max([0] + finite))

    def image_order(self, K):
        """|image in GL_n(Z/p^K)| in closed form where the determinant
        condition splits; falls back to enumeration below the cap."""
        if K == 0:
            return 1
        n, p = self.n, self.p
        clamped = self._clamped(K)
        if all(e == 0 for row in clamped for e in row):
            return MatrixWindow(n, p, K).order
        if _det_splits(clamped):
            count = 1
            for r in range(n):
                for s in range(n):
                    if r == s:
                        m = clamped[r][r]
                        count *= p ** (K - m) if m >= 1 else p**K - p ** (K - 1)
                    else:
                        count *= p ** (K - clamped[r][s])
            return count
        return len(self.window_image(K).elements)

    def window_image(self, K, cap=DEFAULT_CAP):
        """Image of (this subgroup intersected with GL_n(Z_p)) mod p^K."""
        n, p = self.n, self.p
        window = MatrixWindow(n, p, K)
        clamped = self._clamped(K)
        total = 1
        for r in range(n):
            for s in range(n):
                total *= p ** (K - clamped[r][s])
        if total > 4 * cap:
            raise ResolutionError(f"shape image of size ~{total}", cap)
        m = window.modulus
        rows = []  # every choice of each row's entries
        for r in range(n):
            entries = []
            for s in range(n):
                step = p ** clamped[r][s]
                base = 1 if r == s else 0
                entries.append([(base + step * t) % m for t in range(m // step)])
            rows.append(list(product(*entries)))
        codes = set()
        basis_code = None
        if not self.basis.is_identity():
            basis_code = project_matrix(self.basis, K)
            basis_inv = window.inv(basis_code)
        for matrix in product(*rows):
            if det(matrix) % p == 0:
                continue
            code = window.pack(matrix)
            if basis_code is not None:
                code = window.mul(window.mul(basis_code, code), basis_inv)
            codes.add(code)
        return SubgroupImage(window, frozenset(codes))


def _det_splits(clamped):
    """True when every non-identity permutation crosses a level>=1 entry, so
    the determinant is a unit exactly when all diagonal entries are."""
    n = len(clamped)
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        if all(clamped[r][perm[r]] == 0 for r in range(n) if perm[r] != r):
            return False
    return True


def project_matrix(x, K):
    """Residue code of a p-integral, unit-determinant matrix mod p^K."""
    p, n = x.p, x.n
    m = p**K
    entries = []
    for row in x.entries:
        for e in row:
            if vp(e, p) < 0:
                raise NotPIntegralError(f"entry {e} is not p-integral at p={p}")
            entries.append(e.numerator * pow(e.denominator, -1, m) % m)
    window = MatrixWindow(n, p, K)
    code = window.encode(entries)
    return code


# -- exact UL factorization --------------------------------------------------


def _reverse(mat):
    n = len(mat)
    return tuple(tuple(mat[n - 1 - i][n - 1 - j] for j in range(n)) for i in range(n))


def ul_factor(y):
    """Factor y = u * l with u unit upper triangular and l lower triangular.

    Exact over the rationals; raises FactorizationError on a zero pivot
    (the Bruhat obstruction).
    """
    n = len(y)
    rev = [list(row) for row in _reverse(y)]
    lower = [[Fraction(0)] * n for _ in range(n)]
    upper = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Fraction(1)
    for col in range(n):
        pivot = rev[col][col]
        if pivot == 0:
            raise FactorizationError("zero pivot in UL elimination", witness=y)
        upper[col] = list(rev[col])
        for r in range(col + 1, n):
            f = rev[r][col] / pivot
            lower[r][col] = f
            rev[r] = [e - f * x for e, x in zip(rev[r], upper[col])]
    u = _reverse(tuple(tuple(r) for r in lower))
    l = _reverse(tuple(tuple(r) for r in upper))
    assert mat_mul(u, l) == tuple(tuple(row) for row in y)
    return u, l


# -- oracles in eigencoordinates ---------------------------------------------


def con_oracle_linear(g_data, x):
    """Exact contraction-group membership for g with eigen-data `g_data`."""
    basis, vals = g_data
    y = mat_mul(mat_mul(mat_inv(basis.entries), x.entries), basis.entries)
    n = len(vals)
    for r in range(n):
        for s in range(n):
            if r == s:
                if y[r][s] != 1:
                    return False
            elif vals[r] <= vals[s] and y[r][s] != 0:
                return False
    return True


def par_oracle_linear(g_data, x):
    """Exact parabolic-group membership (bounded forward orbit)."""
    basis, vals = g_data
    y = mat_mul(mat_mul(mat_inv(basis.entries), x.entries), basis.entries)
    n = len(vals)
    return all(
        y[r][s] == 0
        for r in range(n)
        for s in range(n)
        if vals[r] < vals[s]
    )


class LinearModel:
    """Model adapter for GL_n(Q_p); see ShiftModel for the shared surface."""

    name = "linear"
    #: Resolution 0 would be GL_n(Z/1), the trivial group; start at 1.
    min_level = 1

    def __init__(self, p=2, n=2):
        if n not in (2, 3):
            raise ValueError("linear model supports n in {2, 3}")
        self.p = p
        self.n = n
        # Default checking resolution: the finest level whose full window
        # still fits under the enumeration cap.
        # Finest level whose full window stays cheap to enumerate; explicit
        # K arguments may still go up to the hard cap.
        K = 1
        while MatrixWindow(n, p, K + 1).order <= DEFAULT_CAP // 16:
            K += 1
        self.default_resolution = K
        self._eigen_cache = {}

    # -- element arithmetic -------------------------------------------------

    @property
    def identity(self):
        return identity_matrix(self.n, self.p)

    def mul(self, x, y):
        return x.mul(y)

    def inv(self, x):
        return x.inv()

    def power(self, g, k):
        out = self.identity
        base = g if k >= 0 else g.inv()
        for _ in range(abs(k)):
            out = out.mul(base)
        return out

    def conjugate(self, g, x):
        return g.mul(x).mul(g.inv())

    def proximity_level(self, x):
        if x.is_identity():
            return INF_LEVEL
        p = self.p
        level = INF
        for r in range(self.n):
            for s in range(self.n):
                e = x.entries[r][s] - (1 if r == s else 0)
                if e:
                    level = min(level, vp(e, p))
        if level < 0 or vp(x.det, p) != 0:
            return -1
        return int(level)

    # -- windows ------------------------------------------------------------

    def window(self, K):
        return MatrixWindow(self.n, self.p, K)

    def in_reference(self, x):
        return x.is_p_integral() and vp(x.det, self.p) == 0

    def project(self, x, K):
        if vp(x.det, self.p) != 0:
            raise ValueError("element outside the reference compact open")
        return project_matrix(x, K)

    def project_image(self, image, K):
        src = image.window
        if src.K < K:
            raise ValueError("cannot project upward")
        dst = self.window(K)
        m = dst.modulus
        codes = {dst.encode([e % m for e in src.decode(c)]) for c in image.elements}
        return SubgroupImage(dst, frozenset(codes))

    def filtration(self, k):
        return ShapeSubgroup(self.identity, congruence_shape(self.n, k))

    def reference(self):
        return self.filtration(0)

    # -- eigen data ---------------------------------------------------------

    def eigen_data(self, g):
        key = g.entries
        if key not in self._eigen_cache:
            self._eigen_cache[key] = self._eigen_data_uncached(g)
        return self._eigen_cache[key]

    def _eigen_data_uncached(self, g):
        n, p = self.n, self.p
        if all(g.entries[r][s] == 0 for r in range(n) for s in range(n) if r != s):
            # Already diagonal: usable even with repeated eigenvalues, as
            # long as the valuations descend so contracting entries sit
            # above the diagonal.
            vals = [vp(g.entries[r][r], p) for r in range(n)]
            if all(a >= b for a, b in zip(vals, vals[1:])):
                return identity_matrix(n, p), tuple(int(v) for v in vals)
        return eigenbasis(g)

    def _integral_basis(self, g):
        basis, vals = self.eigen_data(g)
        if not (basis.is_p_integral() and vp(basis.det, self.p) == 0):
            raise UnsupportedElementError(
                "eigenbasis is not p-integral with unit determinant; window "
                "computations are unavailable for this element"
            )
        return basis, vals

    # -- oracles ------------------------------------------------------------

    def _bounded(self, x):
        """Does x lie in the reference compact open (so conjugation by x
        preserves every congruence subgroup and all orbits are bounded)?"""
        return self.proximity_level(x) != -1

    def _invariant_case(self, U, g):
        """Is U a congruence-shape subgroup fixed by conjugation by g?

        Congruence subgroups are normal in the reference compact open, so
        this holds whenever g is bounded in U's coordinates.
        """
        if not self._bounded(g):
            return False
        if len({e for row in U.shape for e in row}) != 1:
            return False
        b = U.basis.entries
        h = QMatrix(mat_mul(mat_mul(mat_inv(b), g.entries), b), self.p)
        return self._bounded(h)

    def con_oracle(self, g, x):
        if self._bounded(g):
            # Conjugation preserves each congruence level, so the orbit of
            # x never approaches the identity unless x is the identity.
            return x.is_identity()
        return con_oracle_linear(self.eigen_data(g), x)

    def par_oracle(self, g, x):
        if self._bounded(g):
            return True
        return par_oracle_linear(self.eigen_data(g), x)

    def _oracle_shape(self, g, keep):
        """Shape subgroup for an eigencoordinate entry pattern.

        `keep(r, s)` says which off-diagonal entries range freely over Z_p;
        every other coordinate of x - I is pinned to zero.
        """
        basis, vals = self._integral_basis(g)
        n = self.n
        shape = tuple(
            tuple(
                INF
                if r == s or not keep(r, s)
                else 0
                for s in range(n)
            )
            for r in range(n)
        )
        return ShapeSubgroup(basis, shape, validated=False)

    def con_closure_image(self, g, K, cap=DEFAULT_CAP):
        if self._bounded(g):
            return SubgroupImage(self.window(K))
        _, vals = self.eigen_data(g)
        sub = self._oracle_shape(g, lambda r, s: vals[r] > vals[s])
        return sub.window_image(K, cap)

    def bco_image(self, g, K, cap=DEFAULT_CAP):
        # con(g) meets par(g^-1) only in the identity: con is closed here.
        return SubgroupImage(self.window(K))

    def par_image(self, g, K, cap=DEFAULT_CAP):
        """Image of par(g^-1) intersected with the reference subgroup."""
        if self._bounded(g):
            return self.reference().window_image(K, cap)
        basis, vals = self._integral_basis(g)
        n = self.n
        shape = tuple(
            tuple(K if vals[r] > vals[s] else 0 for s in range(n))
            for r in range(n)
        )
        return ShapeSubgroup(basis, shape, validated=False).window_image(K, cap)

    def rbco_image(self, g, v, K, cap=DEFAULT_CAP):
        if self._bounded(g):
            # Conjugation fixes each congruence subgroup, so the bounded
            # returns to V = filtration(v) are exactly V itself.
            return self.filtration(v).window_image(K, cap)
        basis, vals = self._integral_basis(g)
        n = self.n
        shape = tuple(
            tuple(
                min(v, K)
                if r == s or vals[r] == vals[s]
                else K
                for s in range(n)
            )
            for r in range(n)
        )
        return ShapeSubgroup(basis, shape, validated=False).window_image(K, cap)

    def nub_image(self, g, K, cap=DEFAULT_CAP):
        if not self._bounded(g):
            self.eigen_data(g)  # raises for unsupported elements
        return SubgroupImage(self.window(K))

    # -- symbolic subgroup dynamics -----------------------------------------

    def _require_aligned(self, U, g):
        basis, vals = self.eigen_data(g)
        if U.basis.entries != basis.entries:
            d = mat_mul(mat_mul(mat_inv(U.basis.entries), g.entries), U.basis.entries)
            if all(i == j or d[i][j] == 0 for i in range(self.n) for j in range(self.n)):
                vals = tuple(vp(d[i][i], self.p) for i in range(self.n))
                return U.basis, vals
            raise UnsupportedElementError("subgroup basis does not diagonalize g")
        return basis, vals

    def conj_open(self, U, g, i):
        if self._invariant_case(U, g):
            return U
        _, vals = self._require_aligned(U, g)
        return U.conj_by(vals, i)

    def u_parts_symbolic(self, U, g):
        from tdlcw.tidy import UParts

        if self._invariant_case(U, g):
            return UParts(U, U, U, U, U)
        _, vals = self._require_aligned(U, g)
        n = self.n
        M = U.shape

        def build(entry, validated=False):
            return ShapeSubgroup(
                U.basis,
                tuple(tuple(entry(r, s) for s in range(n)) for r in range(n)),
                validated=validated,
            )

        u_plus = build(lambda r, s: INF if vals[r] > vals[s] else M[r][s])
        u_minus = build(lambda r, s: INF if vals[r] < vals[s] else M[r][s])
        u_zero = build(lambda r, s: INF if vals[r] != vals[s] else M[r][s])

        def mm(r, s):
            if vals[r] > vals[s]:
                return NEG_INF
            if vals[r] < vals[s]:
                return INF
            return M[r][s]

        def pp(r, s):
            if vals[r] < vals[s]:
                return NEG_INF
            if vals[r] > vals[s]:
                return INF
            return M[r][s]

        u_mm = build(mm)
        u_pp = build(pp)
        return UParts(u_plus, u_minus, u_zero, u_mm, u_pp)

    def split(self, x, U, g, parts):
        if self._invariant_case(U, g):
            return x, self.identity
        _, vals = self._require_aligned(U, g)
        if len(set(vals)) == 1:
            return x, self.identity
        if not U.contains(x):
            raise ValueError("split input must lie in U")
        b = U.basis.entries
        binv = mat_inv(b)
        y = mat_mul(mat_mul(binv, x.entries), b)
        # Sort coordinates by descending valuation so the contracting
        # entries sit strictly above the diagonal, then factor upper*lower.
        perm = sorted(range(self.n), key=lambda r: -vals[r])
        ys = tuple(tuple(y[perm[r]][perm[s]] for s in range(self.n)) for r in range(self.n))
        u, low = ul_factor(ys)
        inv_perm = [0] * self.n
        for a, r in enumerate(perm):
            inv_perm[r] = a

        def unsort(m):
            return tuple(
                tuple(m[inv_perm[r]][inv_perm[s]] for s in range(self.n))
                for r in range(self.n)
            )

        w_minus = QMatrix(mat_mul(mat_mul(b, unsort(u)), binv), self.p)
        w_plus = QMatrix(mat_mul(mat_mul(b, unsort(low)), binv), self.p)
        if not (parts.u_minus.contains(w_minus) and parts.u_plus.contains(w_plus)):
            raise FactorizationError(
                "UL factors leave the tidy parts; U is not tidy above here",
                witness=x,
            )
        return w_minus, w_plus

    def adjust_to_contraction(self, t, U, g, parts):
        """Split t = t' * v with v in U_0 and t' in con(g^-1) ^ U_+.

        In eigencoordinates U_+ is block lower triangular with the tie
        blocks on the diagonal; v is the block-diagonal part of t, which
        U_0 absorbs because conjugation by g fixes the tie blocks.
        """
        _, vals = self._require_aligned(U, g)
        b = U.basis.entries
        binv = mat_inv(b)
        y = mat_mul(mat_mul(binv, t.entries), b)
        n = self.n
        v = tuple(
            tuple(
                y[r][s] if vals[r] == vals[s] else Fraction(int(r == s))
                for s in range(n)
            )
            for r in range(n)
        )
        v_elem = QMatrix(mat_mul(mat_mul(b, v), binv), self.p)
        t_prime = t.mul(v_elem.inv())
        if (
            parts.u_zero.contains(v_elem)
            and parts.u_plus.contains(t_prime)
            and self.con_oracle(self.inv(g), t_prime)
        ):
            return t_prime, v_elem, True
        return t, self.identity, False

    def tidy_candidates(self, g, K):
        if self._bounded(g):
            basis = self.identity
        else:
            basis, _ = self._integral_basis(g)
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
                    y = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
                    y[r][s] = Fraction(self.p) ** bound
                    b = U.basis.entries
                    witness = QMatrix(
                        mat_mul(mat_mul(b, tuple(tuple(row) for row in y)), mat_inv(b)),
                        self.p,
                    )
                    return False, witness
        return True, "U_-- has closed shape form and meets U in U_-"

    def net_schedule(self, g, n_max):
        """Default shrinking schedule in g's eigenbasis: U_n is the
        congruence-refined off-diagonal-level subgroup at depth n, and u_n
        perturbs the expanding coordinate at depth n."""
        basis, vals = self._integral_basis(g)
        if self.n != 2 or vals[0] <= vals[1]:
            raise UnsupportedElementError(
                "the default schedule needs a 2x2 element with distinct "
                "eigenvalue valuations"
            )
        b = basis.entries
        binv = mat_inv(b)
        out = []
        for k in range(1, n_max + 1):
            shape = shape_entrywise_max(
                iwahori_shape(2), congruence_shape(2, k)
            )
            U = ShapeSubgroup(basis, shape)
            # One level finer than U_n's congruence depth, so that the
            # conjugate g u_n g^-1 (which loses one level) stays in U_n and
            # the two-sided construction applies at every stage.
            y = (
                (Fraction(1), Fraction(0)),
                (Fraction(self.p) ** (k + 1), Fraction(1)),
            )
            u = QMatrix(mat_mul(mat_mul(b, y), binv), self.p)
            out.append((k, U, u))
        return out

    # -- sampling and parsing -----------------------------------------------

    def sample_reference(self, rng, count):
        out = []
        while len(out) < count:
            rows = [
                [rng.randrange(-4, 5) for _ in range(self.n)] for _ in range(self.n)
            ]
            m = mat_from_rows(rows)
            d = det(m)
            if d != 0 and vp(d, self.p) == 0:
                out.append(QMatrix(m, self.p))
        return out

    def sample_con_elements(self, g, rng, count):
        basis, vals = self.eigen_data(g)
        b = basis.entries
        binv = mat_inv(b)
        n = self.n
        out = []
        for _ in range(count):
            y = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for r in range(n):
                for s in range(n):
                    if vals[r] > vals[s] and rng.random() < 0.8:
                        y[r][s] = Fraction(
                            rng.randrange(-3, 4) * self.p ** rng.randrange(0, 3)
                        )
            x = mat_mul(mat_mul(b, tuple(tuple(row) for row in y)), binv)
            out.append(QMatrix(x, self.p))
        return out

    def parse_element(self, text):
        rows = []
        for row_s in text.split(";"):
            rows.append([Fraction(part.strip()) for part in row_s.split(",")])
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        return QMatrix.make(rows, self.p)

    def parse_shape(self, text):
        rows = []
        for row_s in text.split(";"):
            row = []
            for part in row_s.split(","):
                part = part.strip()
                row.append(INF if part in ("inf", "oo") else int(part))
            rows.append(tuple(row))
        shape = tuple(rows)
        return ShapeSubgroup(self.identity, shape)

    def format_element(self, x):
        return ";".join(
            ",".join(str(e) for e in row) for row in x.entries
        )
