"""The rational matrix model: exact p-adic arithmetic, shapes, and oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import oracles
from oracles import (is_group_valued, is_subgroup, sample_con_elements, triangle_closed,
                     trajectory_contracts)

from tdlcw.kernel import INF_LEVEL, UnsupportedElementError, adjugate, conjugate, det
from tdlcw.linear import (
    FactorizationError,
    LinearModel,
    NotPIntegralError,
    QMatrix,
    ShapeSubgroup,
    _primitive_p_vector,
    _rational_roots,
    charpoly,
    congruence_shape,
    eigenbasis,
    identity_matrix,
    iwahori_shape,
    newton_valuations,
    project_matrix,
    ul_factor,
    validate_shape,
    vp,
)

INF = math.inf


def mat_mul(a, b):
    """Reference product of Fraction matrices."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_inv(a):
    """Reference inverse of a Fraction matrix: adjugate over determinant."""
    d = det(a)
    if d == 0:
        raise ValueError("matrix is singular")
    return tuple(tuple(e / d for e in row) for row in adjugate(a))


def gauss_jordan_inv(a):
    """Reference inverse by Gauss-Jordan elimination over the rationals."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [e * inv_p for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [e - factor * f for e, f in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def invertible_3x3():
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    rows = st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3)
    return rows.filter(lambda r: det(r) != 0).map(lambda r: QMatrix.make(r, 2))


def invertible_2x2():
    entry = st.integers(-6, 6)
    return st.tuples(entry, entry, entry, entry).filter(
        lambda e: e[0] * e[3] - e[1] * e[2] != 0
    ).map(lambda e: QMatrix.make([[e[0], e[1]], [e[2], e[3]]], 2))


@st.composite
def integer_form_cases(draw):
    """(p, x, y, basis, shape, x_rows): invertible rational matrices for n
    in {2, 3} and p in {2, 3}, each either generic or I + p^j M, so that
    every proximity level and both containment verdicts occur; x_rows are
    the Fraction entries x was made from."""
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([2, 3]))

    def matrix():
        j = draw(st.sampled_from([None, 0, 1, 2]))
        entry = st.fractions(min_value=-6, max_value=6, max_denominator=12)
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if j is not None:
            rows = [[int(r == s) + p**j * e for s, e in enumerate(row)]
                    for r, row in enumerate(rows)]
        assume(det(rows) != 0)
        return QMatrix.make(rows, p), tuple(map(tuple, rows))

    (x, x_rows), (y, _), (basis, _) = matrix(), matrix(), matrix()
    bound = st.sampled_from([-INF, 0, 1, 2, INF])
    shape = tuple(tuple(draw(bound) for _ in range(n)) for _ in range(n))
    return p, x, y, basis, shape, x_rows


@st.composite
def deep_valuation_cases(draw):
    """(basis, x, shape) with entry, denominator and bound valuations up to
    60, as in long conjugator traces: in basis coordinates x is
    p^s D^-1 (I + p M) D for D = diag(p^c_r), 0 <= c_r <= 30, and p-integral
    M with entry valuations up to 30; each bound is the valuation of the
    entry minus 1, plus 0 or plus 1, or +-inf.  Either scalar factor p^s,
    s != 0, breaks the unit determinant."""
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([2, 3]))

    def unit():
        return draw(st.integers(1, 20).filter(lambda a: a % p)) * draw(
            st.sampled_from([1, -1]))

    c = [draw(st.integers(0, 30)) for _ in range(n)]
    m = [[Fraction(unit(), unit()) * p ** draw(st.integers(0, 30))
          if draw(st.booleans()) else 0 for _ in range(n)] for _ in range(n)]
    s = draw(st.sampled_from([0, 0, 0, 1, -1]))
    y = [[Fraction(p) ** s * (int(r == q) + p * m[r][q] * Fraction(p) ** (c[q] - c[r]))
          for q in range(n)] for r in range(n)]
    offset = st.sampled_from([-1, 0, 0, 0, 1, INF, -INF])

    def bound(e):
        off = draw(offset)
        return off if off in (INF, -INF) else vp(e, p) + off

    shape = tuple(tuple(bound(y[r][q] - (r == q)) for q in range(n))
                  for r in range(n))
    b = draw(st.sampled_from([None, 0, 1]))
    if b is None:
        basis = identity_matrix(n, p)
    else:
        rows = [[int(r == q) + p**b * draw(st.integers(-3, 3)) for q in range(n)]
                for r in range(n)]
        assume(det(rows) != 0)
        basis = QMatrix.make(rows, p)
    x = QMatrix.make(mat_mul(mat_mul(basis.entries, y), mat_inv(basis.entries)), p)
    return basis, x, shape


def proximity_oracle(x, p):
    """proximity_level by its definition on the Fraction entries."""
    n = len(x.entries)
    diff = [x.entries[r][s] - (r == s) for r in range(n) for s in range(n)]
    if not any(diff):
        return INF_LEVEL
    level = min(vp(e, p) for e in diff if e)
    return -1 if level < 0 or vp(det(x.entries), p) != 0 else level


def contains_oracle(sub, x):
    """ShapeSubgroup.contains by its definition on the Fraction entries."""
    b = sub.basis.entries
    y = mat_mul(mat_mul(mat_inv(b), x.entries), b)
    if vp(det(y), sub.p) != 0:
        return False
    n = len(y)
    return all(
        sub.shape[r][s] == -INF or vp(y[r][s] - (r == s), sub.p) >= sub.shape[r][s]
        for r in range(n)
        for s in range(n)
    )


class TestIntegerForm:
    """Integer rows over a common denominator against Fraction oracles."""

    @settings(max_examples=80, deadline=None)
    @given(case=integer_form_cases())
    def test_arithmetic_matches_fractions(self, case):
        p, x, y, _, _, x_rows = case
        n = x.n
        assert x.entries == x_rows
        assert x.mul(y).entries == mat_mul(x.entries, y.entries)
        assert x.inv().entries == mat_inv(x.entries)
        assert x.det == det(x.entries)
        one = tuple(tuple(Fraction(int(r == s)) for s in range(n)) for r in range(n))
        assert x.is_identity() == (x.entries == one)
        assert x.is_p_integral() == all(vp(e, p) >= 0 for row in x.entries for e in row)
        assert LinearModel(p, n).proximity_level(x) == proximity_oracle(x, p)

    @settings(max_examples=80, deadline=None)
    @given(case=integer_form_cases(), conjugate=st.booleans())
    def test_contains_matches_valuations(self, case, conjugate):
        p, x, _, basis, shape, _ = case
        if conjugate:
            # Read x in basis coordinates, so that x near I often lies in sub.
            x = QMatrix.make(
                mat_mul(mat_mul(basis.entries, x.entries), mat_inv(basis.entries)), p)
        sub = ShapeSubgroup(basis, shape)
        assert sub.contains(x) == contains_oracle(sub, x)

    @settings(max_examples=80, deadline=None)
    @given(case=deep_valuation_cases())
    def test_contains_matches_valuations_up_to_60(self, case):
        basis, x, shape = case
        sub = ShapeSubgroup(basis, shape)
        assert sub.contains(x) == contains_oracle(sub, x)

    @settings(max_examples=60, deadline=None)
    @given(case=integer_form_cases(), scale=st.integers(-30, 30).filter(bool))
    def test_canonical_form(self, case, scale):
        p, x, y, _, _, _ = case
        wide = QMatrix(tuple(tuple(scale * e for e in row) for row in x.rows),
                       scale * x.den, p)
        assert wide == x and hash(wide) == hash(x)
        assert wide.rows == x.rows and wide.den == x.den > 0
        assert QMatrix.make(x.entries, p) == x
        assert x.mul(y).mul(y.inv()) == x
        assert x.mul(x.inv()) == identity_matrix(x.n, p)
        assert x.inv().mul(x).is_identity()


@st.composite
def coordinate_cases(draw):
    """(U, y): U in the identity basis with a shape of small or no bounds,
    and y with integer rows over d = p^a c, p not dividing c.  Entries are
    often multiples of p, so that det(rows) often holds p more often than
    p^(n vd) does, and p may divide d in lowest terms or not."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.sampled_from([2, 3]))
    entry = st.builds(lambda a, e: a * p**e, st.integers(-4, 4), st.integers(0, 3))
    rows = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    c = draw(st.sampled_from([1, 2, 3, 5, 7, 11]).filter(lambda c: c % p))
    den = p ** draw(st.integers(0, 3)) * c
    bound = st.sampled_from([-INF, -1, 0, 1, 2])
    shape = tuple(tuple(draw(bound) for _ in range(n)) for _ in range(n))
    return ShapeSubgroup(identity_matrix(n, p), shape), QMatrix(rows, den, p)


def _unbounded(n, p, rows, den):
    """(U, y) for the shape with no bounds: only the determinant decides."""
    shape = tuple(tuple(-INF for _ in range(n)) for _ in range(n))
    return ShapeSubgroup(identity_matrix(n, p), shape), QMatrix(rows, den, p)


@settings(max_examples=500, deadline=None)
@given(case=coordinate_cases())
# det(rows) = p^(n vd) times a unit, and p^(n vd + 1) | det(rows), for p
# dividing d and not.
@example(case=_unbounded(2, 2, ((1, 0), (0, 4)), 2))
@example(case=_unbounded(2, 2, ((1, 0), (0, 8)), 2))
@example(case=_unbounded(2, 2, ((3, 0), (0, 1)), 1))
@example(case=_unbounded(2, 2, ((2, 0), (0, 1)), 1))
@example(case=_unbounded(3, 5, ((1, 0, 0), (0, 5, 0), (0, 0, 5)), 5))
@example(case=_unbounded(3, 5, ((1, 0, 0), (0, 5, 0), (0, 0, 25)), 5))
def test_residue_determinant_matches_the_full_one(case):
    U, y = case
    assert U.contains_coordinates(y) == oracles.contains_coordinates(U, y)


@st.composite
def unnormalised_rows(draw):
    """(rows, den, p): integer n x n rows over a nonzero den, both times a
    common factor, so that den may be negative or composite and the rows
    share a factor with it; entries are often zero."""
    n = draw(st.sampled_from([2, 3]))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    assume(det(rows) != 0)
    den = draw(st.integers(-12, 12).filter(bool))
    scale = draw(st.sampled_from([1, -1, 2, -3, 4, 6, -12]))
    rows = tuple(tuple(scale * e for e in row) for row in rows)
    return rows, scale * den, draw(st.sampled_from([2, 3, 5]))


@settings(max_examples=200, deadline=None)
@given(case=unnormalised_rows())
def test_normalisation_matches_make(case):
    # The unrolled lowest-terms form of QMatrix(rows, den, p) against
    # QMatrix.make of the same Fraction entries.
    rows, den, p = case
    x = QMatrix(rows, den, p)
    y = QMatrix.make([[Fraction(e, den) for e in row] for row in rows], p)
    assert x == y and hash(x) == hash(y) and x.den > 0
    assert math.gcd(x.den, *(e for row in x.rows for e in row)) == 1
    assert x.entries == tuple(tuple(Fraction(e, den) for e in row) for row in rows)


class TestValuation:
    def test_basic_values(self):
        assert vp(8, 2) == 3
        assert vp(Fraction(3, 4), 2) == -2
        assert vp(Fraction(9, 5), 3) == 2
        assert vp(0, 2) == INF
        assert vp(7, 2) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.fractions(min_value=-50, max_value=50).filter(lambda q: q != 0),
        b=st.fractions(min_value=-50, max_value=50).filter(lambda q: q != 0),
        p=st.sampled_from([2, 3, 5]),
    )
    def test_valuation_is_multiplicative(self, a, b, p):
        assert vp(a * b, p) == vp(a, p) + vp(b, p)
        assert vp(a + b, p) >= min(vp(a, p), vp(b, p)) if a + b != 0 else True


class TestMatrixArithmetic:
    @settings(max_examples=80, deadline=None)
    @given(x=invertible_2x2(), y=invertible_2x2())
    def test_mul_inv_det(self, x, y):
        assert det(mat_mul(x.entries, y.entries)) == x.det * y.det
        assert x.mul(x.inv()).is_identity()

    def test_3x3_inverse(self):
        m = QMatrix.make([[2, 1, 0], [0, 1, 1], [1, 0, 1]], 2)
        assert m.mul(m.inv()).is_identity()

    @settings(max_examples=100, deadline=None)
    @given(x=invertible_3x3())
    def test_3x3_inverse_matches_gauss_jordan(self, x):
        assert x.inv().entries == gauss_jordan_inv(x.entries)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            QMatrix.make([[1, 2], [2, 4]], 2)


class TestNewtonValuations:
    def test_diagonal(self):
        g = QMatrix.make([[4, 0], [0, 1]], 2)
        assert newton_valuations(g) == [2, 0]

    def test_conjugation_invariance(self):
        g = QMatrix.make([[2, 0], [0, 1]], 2)
        c = QMatrix.make([[1, 1], [0, 1]], 2)
        gc = c.mul(g).mul(c.inv())
        assert newton_valuations(gc) == newton_valuations(g)

    def test_irrational_eigenvalues(self):
        # x^2 - 2: eigenvalue valuations are each 1/2.
        g = QMatrix.make([[0, 1], [2, 0]], 2)
        assert newton_valuations(g) == [Fraction(1, 2), Fraction(1, 2)]

    def test_3x3(self):
        g = QMatrix.make([[4, 0, 0], [0, 2, 0], [0, 0, 1]], 2)
        assert newton_valuations(g) == [2, 1, 0]


class TestScaleFormula:
    def test_battery(self):
        assert LinearModel(2).scale_formula(QMatrix.make([[2, 0], [0, 1]], 2)) == 2
        assert LinearModel(3).scale_formula(QMatrix.make([[3, 0], [0, Fraction(1, 3)]], 3)) == 9
        assert LinearModel(2).scale_formula(identity_matrix(2, 2)) == 1
        g3 = QMatrix.make([[4, 0, 0], [0, 2, 0], [0, 0, 1]], 2)
        assert LinearModel(2, 3).scale_formula(g3) == 16

    def test_elliptic_element_is_uniscalar(self):
        assert LinearModel(2).scale_formula(QMatrix.make([[0, 1], [-1, 0]], 2)) == 1


def _fraction_roots(coeffs):
    """Reference rational roots: every a/b with a | c_0 and b | c_deg, tested
    with Fraction powers."""
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    lead, const = ints[-1], ints[0]

    def divisors(m):
        m = abs(m)
        return {e for d in range(1, math.isqrt(m) + 1) if m % d == 0 for e in (d, m // d)}

    return sorted({cand for a in divisors(const) for b in divisors(lead)
                   for cand in (Fraction(a, b), Fraction(-a, b))
                   if sum(c * cand**i for i, c in enumerate(coeffs)) == 0})


def _nullspace_vector(m):
    """Reference kernel vector of a rank n - 1 Fraction matrix by row
    reduction: 1 at the first free column, minus its pivot entries."""
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


def fraction_eigenbasis(g):
    """Reference eigen data by Fraction row reduction of g - lam."""
    roots = _fraction_roots(charpoly(g))
    if len(roots) != g.n:
        raise UnsupportedElementError(
            "element outside the supported class (needs n distinct rational "
            "eigenvalues)"
        )
    roots.sort(key=lambda lam: (-vp(lam, g.p), lam))
    n, x = g.n, g.entries
    columns = [_primitive_p_vector(
        _nullspace_vector([[x[i][j] - (lam if i == j else 0) for j in range(n)]
                           for i in range(n)]), g.p) for lam in roots]
    basis = QMatrix.make([[columns[j][i] for j in range(n)] for i in range(n)], g.p)
    return basis, tuple(vp(lam, g.p) for lam in roots)


@st.composite
def root_cases(draw):
    """Coefficients, constant term first, of a rational quadratic or cubic
    with a nonzero constant term: a product of linear factors with rational
    roots, perhaps perturbed, or random coefficients."""
    deg = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        small = st.fractions(min_value=-40, max_value=40, max_denominator=9)
        coeffs = [Fraction(draw(st.integers(-9, 9).filter(bool)))]
        for _ in range(deg):
            root = draw(small.filter(bool))
            coeffs = [b - root * a for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs[draw(st.integers(0, deg - 1))] += draw(st.sampled_from([0, 0, 1, -1]))
    else:
        coeffs = [Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 12)))
                  for _ in range(deg)] + [Fraction(draw(st.integers(-9, 9).filter(bool)))]
    assume(coeffs[0] != 0)
    return coeffs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(coeffs=root_cases())
def test_rational_roots_match_the_divisor_search(coeffs):
    assert _rational_roots(coeffs) == _fraction_roots(coeffs)


@pytest.mark.parametrize("coeffs, roots", [
    ([9, -6, 1], [3]),
    ([-27, 27, -9, 1], [3]),
    ([Fraction(1, 2), 0, -2], [Fraction(-1, 2), Fraction(1, 2)]),
    ([3, -1, -3, 1], [-1, 1, 3]),
    ([2, 0, 1], []),
    # (x - 1)(x - 2)(x - 10^18): a divisor search would run to 10^9.
    ([-2 * 10**18, 2 + 3 * 10**18, -(10**18 + 3), 1], [1, 2, 10**18]),
], ids=["double", "triple", "scaled", "three", "none", "18-digit"])
def test_rational_roots_of_named_polynomials(coeffs, roots):
    assert _rational_roots([Fraction(c) for c in coeffs]) == roots


@st.composite
def diagonalizable_cases(draw):
    """(B diag(lams) B^-1, lams) for n in {2, 3}, p in {2, 3, 5, 7}, distinct
    nonzero rational lams and an invertible integer B."""
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    lam = st.fractions(min_value=-12, max_value=12, max_denominator=8).filter(bool)
    lams = draw(st.lists(lam, min_size=n, max_size=n, unique=True))
    b = [[Fraction(draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)]
    assume(det(b) != 0)
    d = [[lams[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return QMatrix.make(mat_mul(mat_mul(b, d), mat_inv(b)), p), lams


class TestEigenbasis:
    def test_orders_by_descending_valuation(self):
        g = QMatrix.make([[1, 0], [0, 4]], 2)
        basis, vals = eigenbasis(g)
        assert vals == (2, 0)
        d = mat_mul(mat_mul(mat_inv(basis.entries), g.entries), basis.entries)
        assert d[0][0] == 4 and d[1][1] == 1

    def test_non_diagonal(self):
        c = QMatrix.make([[1, 1], [1, 2]], 2)
        g = c.mul(QMatrix.make([[2, 0], [0, 1]], 2)).mul(c.inv())
        basis, vals = eigenbasis(g)
        assert vals == (1, 0)
        d = mat_mul(mat_mul(mat_inv(basis.entries), g.entries), basis.entries)
        assert d[0][1] == 0 and d[1][0] == 0

    def test_rejects_irrational_spectrum(self):
        with pytest.raises(UnsupportedElementError):
            eigenbasis(QMatrix.make([[0, 1], [2, 0]], 2))

    @settings(max_examples=150, deadline=None)
    @given(case=diagonalizable_cases())
    def test_matches_fraction_elimination(self, case):
        g, lams = case
        assert eigenbasis(g) == fraction_eigenbasis(g)
        _, vals = eigenbasis(g)
        assert sorted(vals) == sorted(vp(lam, g.p) for lam in lams)

    @pytest.mark.parametrize("rows", [
        [[0, 1], [2, 0]],                                     # x^2 - 2
        [[0, 1], [-1, 0]],                                    # x^2 + 1
        [[2, 1], [0, 2]],                                     # repeated 2
        [[0, 1, 0], [2, 0, 0], [0, 0, 1]],                    # (x^2 - 2)(x - 1)
        [[3, 1, 0], [0, 3, 0], [1, 0, Fraction(1, 2)]],      # repeated 3
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],                    # x^3 - 1, one rational root
    ])
    @pytest.mark.parametrize("p", [2, 3])
    def test_unsupported_spectra_raise_as_before(self, rows, p):
        g = QMatrix.make(rows, p)
        errors = []
        for fn in (eigenbasis, fraction_eigenbasis):
            with pytest.raises(UnsupportedElementError) as info:
                fn(g)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "distinct rational" in errors[0]

    def test_large_2x2_entries_need_no_divisor_search(self):
        # The divisors of 10^18 run to 10^9; bisection finds the roots.
        g = QMatrix.make([[10**18, 1], [0, 1]], 2)
        basis, vals = eigenbasis(g)
        assert vals == (18, 0) and basis.entries == ((1, -1), (0, 10**18 - 1))
        assert LinearModel(2).scale_formula(g) == 2**18


def invertible(n):
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return rows.filter(lambda r: det(r) != 0).map(lambda r: QMatrix.make(r, 2))


class TestMul:
    @settings(max_examples=120, deadline=None)
    @given(factors=st.sampled_from([2, 3]).flatmap(
        lambda n: st.lists(invertible(n), min_size=2, max_size=5)))
    def test_one_reduction_equals_the_chained_product(self, factors):
        x, rest = factors[0], factors[1:]
        out = x.mul(*rest)
        chained, reference = x, x.entries
        for factor in rest:
            chained, reference = chained.mul(factor), mat_mul(reference, factor.entries)
        assert out == chained and out.entries == reference
        # Canonical form: a positive denominator prime to the rows.
        assert out.den > 0
        assert math.gcd(out.den, *(e for row in out.rows for e in row)) == 1


class TestULFactor:
    @settings(max_examples=80, deadline=None)
    @given(x=st.one_of(invertible_2x2(), invertible_3x3()))
    def test_factors_multiply_back(self, x):
        n = x.n
        try:
            u, low = ul_factor(x)
        except FactorizationError:
            # Bruhat obstruction: a trailing principal minor vanished.
            trailing = [x.entries[n - 1][n - 1]]
            if n == 3:
                trailing.append(det(tuple(row[1:] for row in x.entries[1:])))
            assert 0 in trailing
            return
        u, low = u.entries, low.entries
        assert mat_mul(u, low) == x.entries
        assert all(u[r][s] == (r == s) for r in range(n) for s in range(r + 1))
        assert all(low[r][s] == 0 for r in range(n) for s in range(r + 1, n))

    @settings(max_examples=80, deadline=None)
    @given(x=st.one_of(invertible(2), invertible(3)), data=st.data())
    def test_equals_the_row_operation_oracle(self, x, data):
        # In the identity order (None) and in every other; `split` asks for
        # the reversal when it factors for g^-1.
        order = data.draw(st.one_of(st.none(), st.permutations(range(x.n))))
        try:
            expected = oracles.ul_factor(x, order)
        except FactorizationError:
            with pytest.raises(FactorizationError, match="zero pivot"):
                ul_factor(x, order)
            return
        assert ul_factor(x, order) == expected

    @pytest.mark.parametrize("rows", [
        "4,2,1;6,3,-1;1/2,5,7",          # dense, a denominator
        "1,2,3;0,1,4;0,0,1",             # upper: l is diagonal
        "2,0,0;1,3,0;5,-1,7",            # lower: u is the identity
        "1,1/3,0;0,2,1/2;1,0,1/4",       # second pivot after elimination
        "-2,5,1;3,-7,2;-1,4,-9",         # negative pivots
    ])
    def test_3x3_equals_the_row_operation_oracle(self, rows):
        x = LinearModel(2, 3).parse_element(rows)
        assert ul_factor(x) == oracles.ul_factor(x)
        reversal = [2, 1, 0]
        try:
            expected = oracles.ul_factor(x, reversal)
        except FactorizationError:
            with pytest.raises(FactorizationError, match="zero pivot"):
                ul_factor(x, reversal)
            return
        assert ul_factor(x, reversal) == expected

    @pytest.mark.parametrize("rows", [
        "1,2;3,0",                       # zero last pivot, 2x2
        "1,2,3;4,5,6;7,8,0",             # zero last pivot, 3x3
        "1,2,3;4,2,6;7,1,3",             # zero middle pivot after elimination
    ])
    def test_zero_pivot_raises_with_the_input_as_witness(self, rows):
        x = LinearModel(2, 3 if rows.count(";") == 2 else 2).parse_element(rows)
        for factor in (ul_factor, oracles.ul_factor):
            with pytest.raises(FactorizationError, match="zero pivot") as info:
                factor(x)
            assert info.value.witness == x


class TestShapes:
    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            validate_shape(((-1, 0), (0, 0)))
        with pytest.raises(ValueError):
            validate_shape(((0, -2), (1, 0)))
        validate_shape(iwahori_shape(2))
        validate_shape(congruence_shape(3, 2))

    def test_contains(self):
        model = LinearModel(2, 2)
        iw = ShapeSubgroup(model.identity, iwahori_shape(2))
        assert iw.contains(QMatrix.make([[1, 2], [1, 1]], 2))
        assert not iw.contains(QMatrix.make([[1, 1], [0, 1]], 2))
        assert not iw.contains(QMatrix.make([[2, 0], [0, 1]], 2))

    def test_window_image_order_closed_form(self):
        model = LinearModel(2, 2)
        iw = ShapeSubgroup(model.identity, iwahori_shape(2))
        img = iw.window_image(2)
        assert img.order == len(img.elements)
        assert is_subgroup(img)
        cong = model.filtration(1).window_image(3)
        # Each of the 4 entries of x - I ranges over 2Z/8Z.
        assert cong.order == len(cong.elements) == 4**4

    def test_level_zero_image_is_trivial(self):
        model = LinearModel(2, 2)
        for sub in (model.reference(), model.filtration(1)):
            img = sub.window_image(0)
            assert img.order == len(img.elements) == 1 and type(img.order) is int

    def test_reference_image_is_full_window(self):
        model = LinearModel(3, 2)
        assert model.reference().window_image(1).order == model.window(1).order

    def test_conjugated_basis_image(self):
        model = LinearModel(2, 2)
        c = QMatrix.make([[1, 1], [0, 1]], 2)
        iw = ShapeSubgroup(c, iwahori_shape(2))
        img = iw.window_image(2)
        window = model.window(2)
        b = project_matrix(c, 2)
        binv = window.inv(b)
        plain = ShapeSubgroup(model.identity, iwahori_shape(2)).window_image(2)
        assert img.elements == {
            window.mul(window.mul(b, x), binv) for x in plain.elements
        }

    def test_intersect_and_subset(self):
        model = LinearModel(2, 2)
        a = model.filtration(1)
        b = ShapeSubgroup(model.identity, iwahori_shape(2))
        both = a.intersect(b)
        assert both <= a and both <= b
        assert model.filtration(2) <= model.filtration(1)


@st.composite
def validated_subgroups(draw):
    """(model, g, U, K): g diagonal (valuations distinct, tied or all 0)
    or upper triangular, U read by `parse_subgroup` from a shape drawn and
    then lowered to satisfy the triangle inequality, K in 0..8."""
    n, p = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3, 5]))
    model = LinearModel(p, n)
    if draw(st.booleans()):
        vals = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        text = ";".join(",".join(str(p**v if r == s else 0) for s in range(n))
                        for r, v in enumerate(vals))
    else:
        text = f"{p},1;0,1" if n == 2 else f"{p * p},1,0;0,{p},1;0,0,1"
    entry = st.sampled_from([-1, 0, 1, 2, 3, INF])
    m = triangle_closed([[draw(entry) for _ in range(n)] for _ in range(n)])
    shape = ";".join(",".join("inf" if e == INF else str(e) for e in row) for row in m)
    try:
        g = model.parse_element(text)
        U = model.parse_subgroup(shape, g)
    except ValueError:
        assume(False)
    return model, g, U, draw(st.integers(0, 8))


@settings(max_examples=120, deadline=None)
@given(validated_subgroups())
def test_every_built_shape_is_group_valued(case):
    # The `ShapeImage` docstring proves this; `_shape_order` relies on it.
    model, g, U, K = case
    parts = model.u_parts_symbolic(U, g)
    translates = [model.conj_open(U, g, i) for i in (-3, -1, 1, 2)]
    subgroups = [U, parts.u_plus, parts.u_minus, parts.u_zero, parts.u_mm, parts.u_pp,
                 *translates, *(U.intersect(V) for V in translates)]
    images = [H.window_image(K) for H in subgroups] + [
        model.con_closure_image(g, K), model.par_image(g, K), model.nub_image(g, K),
        *(model.rbco_image(g, v, K) for v in (0, 1, K))]
    images += [im.project(k) for im in images for k in {0, K // 2}]
    images += [meet for a in images[:6] for b in images
               if a.window == b.window and (meet := a._meet(b)) is not None]
    for im in images:
        assert is_group_valued(im.clamped), (im.clamped, K)
        assert im.order >= 1


class TestProjection:
    def test_project_matrix_with_denominators(self):
        x = QMatrix.make([[Fraction(1, 3), 0], [0, 1]], 2)
        # 1/3 = 3^-1 mod 8 = 3
        assert project_matrix(x, 3) == ((3, 0), (0, 1))

    def test_project_rejects_non_integral(self):
        with pytest.raises(NotPIntegralError):
            project_matrix(QMatrix.make([[Fraction(1, 2), 0], [0, 1]], 2), 2)

    def test_project_image(self):
        model = LinearModel(2, 2)
        img = model.filtration(1).window_image(2)
        down = img.project(1)
        assert down.order == 1
        # Oracle: reduce every level-2 residue mod p.
        assert down.elements == {
            tuple(tuple(e % 2 for e in row) for row in c) for c in img.elements}


class TestModelOracles:
    def test_con_oracle_diagonal(self):
        # Conjugation by diag(2,1) doubles the (0,1) entry, so the upper
        # unipotents contract; the lower ones contract under the inverse.
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,1")
        assert model.con_oracle(g, model.parse_element("1,4;0,1"))
        assert not model.con_oracle(g, model.parse_element("1,0;1,1"))
        assert not model.con_oracle(g, model.parse_element("2,0;0,1/2"))
        assert model.con_oracle(g.inv(), model.parse_element("1,0;1,1"))

    def test_con_oracle_tie(self):
        # Equal valuations contract nothing: con(diag(2, 2)) is trivial, and
        # under diag(4, 2, 2) only the entries of the first row contract.
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,2")
        assert model.con_oracle(g, model.identity)
        for text in ["1,1;0,1", "1,0;1,1", "1,4;0,1", "3,0;0,1"]:
            assert not model.con_oracle(g, model.parse_element(text))
        model = LinearModel(2, 3)
        g = model.parse_element("4,0,0;0,2,0;0,0,2")
        assert model.con_oracle(g, model.parse_element("1,1,3;0,1,0;0,0,1"))
        for text in ["1,0,0;0,1,1;0,0,1", "1,0,0;0,1,0;0,1,1", "1,0,0;1,1,0;0,0,1"]:
            assert not model.con_oracle(g, model.parse_element(text))

    def test_par_oracle(self):
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,1")
        assert model.par_oracle(g, model.parse_element("1,1;0,1"))
        assert model.par_oracle(g, model.parse_element("3,0;0,5"))
        assert not model.par_oracle(g, model.parse_element("1,0;4,1"))

    def test_con_matches_trajectory_contraction(self):
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,1")
        rng = random.Random(3)
        for x in sample_con_elements(model, g, rng, 20):
            assert model.con_oracle(g, x)
            assert trajectory_contracts(model, g, x, K=4, N=12)

    def test_bounded_elements_have_trivial_dynamics(self):
        model = LinearModel(2, 2)
        for text in ["0,1;-1,0", "1,1;0,1", "3,2;2,3"]:
            g = model.parse_element(text)
            assert model.con_oracle(g, model.identity)
            assert not model.con_oracle(g, model.parse_element("1,2;0,1"))
            assert model.par_oracle(g, model.parse_element("1,2;0,1"))
            assert model.con_closure_image(g, 2).order == 1
            assert model.nub_image(g, 2).order == 1

    def test_con_closure_image_order(self):
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,1")
        # Upper unipotent subgroup mod 2^K has order 2^K.
        for K in range(1, 4):
            assert model.con_closure_image(g, K).order == 2**K

    def test_proximity_level(self):
        model = LinearModel(2, 2)
        assert model.proximity_level(model.identity) == INF_LEVEL
        assert model.proximity_level(model.parse_element("1,0;4,1")) == 2
        assert model.proximity_level(model.parse_element("2,0;0,1")) == -1
        assert model.proximity_level(model.parse_element("1,1/2;0,1")) == -1


class TestSplitAndParts:
    def test_split_factors_exactly(self):
        model = LinearModel(2, 2)
        g = model.parse_element("2,0;0,1")
        U = ShapeSubgroup(model.identity, iwahori_shape(2))
        parts = model.u_parts_symbolic(U, g)
        x = model.parse_element("1,2;1,1")
        w_minus, w_plus = model.splitter(U, g, parts)(x)
        assert w_minus.mul(w_plus) == x
        assert parts.u_minus.contains(w_minus)
        assert parts.u_plus.contains(w_plus)

    def test_parts_of_invariant_subgroup(self):
        model = LinearModel(2, 2)
        g = model.parse_element("0,1;-1,0")
        U = model.filtration(1)
        parts = model.u_parts_symbolic(U, g)
        assert parts.u_plus is U and parts.u_minus is U and parts.u_zero is U

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("g_text, spread", [
        ("{p},0;0,1", 1), ("{p2},0;0,1", 2), ("{p2},0,0;0,{p},0;0,0,1", 2)],
        ids=["diag(p,1)", "diag(p^2,1)", "diag(p^2,p,1)"])
    def test_net_schedule_satisfies_both_hypotheses(self, p, g_text, spread):
        # u_n = I + p^(n + v_0 - v_last) E_last,0: conjugation by g costs
        # v_0 - v_last levels, so g u_n g^-1 stays in U_n.
        text = g_text.format(p=p, p2=p * p)
        model = LinearModel(p, text.count(";") + 1)
        g = model.parse_element(text)
        for n, U, u in model.net_schedule(g, 5):
            assert U.contains(u)
            assert U.contains(conjugate(g, u))
            assert model.proximity_level(u) == n + spread

    def test_net_schedule_needs_distinct_valuations(self):
        model = LinearModel(2, 3)
        for text in ("4,0,0;0,4,0;0,0,1", "4,0,0;0,1,0;0,0,3"):
            with pytest.raises(UnsupportedElementError, match="distinct eigenvalue valuations"):
                model.net_schedule(model.parse_element(text), 3)


def test_default_resolution_stays_under_the_enumeration_budget():
    from tdlcw.kernel import DEFAULT_CAP, MatrixWindow

    for p, n in [(2, 2), (3, 2), (2, 3)]:
        model = LinearModel(p, n)
        K = model.default_resolution
        assert MatrixWindow(n, p, K).order <= DEFAULT_CAP // 16
        assert MatrixWindow(n, p, K + 1).order > DEFAULT_CAP // 16


def test_unsupported_size_rejected():
    with pytest.raises(ValueError):
        LinearModel(2, 4)


def test_eigen_data_is_computed_once_per_process(monkeypatch):
    # The cache lives on the class, so the models that each battery builds
    # share it; an element's p tells a p = 3 matrix from the same p = 2 one.
    monkeypatch.setattr(LinearModel, "_eigen_cache", {})
    calls = []
    uncached = LinearModel._eigen_data_uncached

    def counted(self, g):
        calls.append(g)
        return uncached(self, g)

    monkeypatch.setattr(LinearModel, "_eigen_data_uncached", counted)
    first, second = LinearModel(2, 2), LinearModel(2, 2)
    g = first.parse_element("3,1;1,3")
    data = first.eigen_data(g)
    assert second.eigen_data(g) is data and first.eigen_data(g) is data
    assert data == eigenbasis(g) and calls == [g]
    g3 = LinearModel(3, 2).parse_element("3,1;1,3")
    assert LinearModel(3, 2).eigen_data(g3) == eigenbasis(g3)
    assert calls == [g, g3]
