"""Structural subgroup images against their materialized element sets.

Every operation of the image protocol (order, membership, containment,
equality, intersection, projection, conjugation, the product formula,
index and the product-set witness) is compared with frozenset algebra on
element sets built independently of the image classes: a coordinate image
from the lamp elements of its window that its vanish-set subgroup
contains, a shape image by testing every element of the matrix window
with exact rational arithmetic in the subgroup's basis.  The generators
of a shape image, which decide containment across unrelated bases, are
checked against the breadth-first closure and the element sets.

The last tests check that the enumeration cap is one constant above the
window-group kernel, and that it still bounds the elements of an image.
"""

import inspect
import itertools
import math
import random
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdlcw import backend, limits, linear, shift, tidy, verify
from tdlcw.kernel import (
    ContainmentError,
    MatrixWindow,
    ResolutionError,
    VectorWindow,
    index,
    product_is,
    product_set_equals,
    subgroup_closure,
)
from tdlcw.linear import LinearModel, QMatrix, ShapeImage, ShapeSubgroup, iwahori_shape, vp
from tdlcw.shift import CoordinateImage, ShiftModel, ShiftOpen, VanishSet, lamp_element

INF = math.inf

# -- independent element sets -------------------------------------------------


@lru_cache(maxsize=None)
def lamp_oracle(p, K, vanish):
    """Digit tuples of the level-K window whose lamp (zero off [-K, K])
    lies in the vanish-set subgroup."""
    U = ShiftOpen(p, vanish)
    return frozenset(
        c for c in itertools.product(range(p), repeat=2 * K + 1)
        if U.contains(lamp_element(p, {i - K: d for i, d in enumerate(c)})))


@lru_cache(maxsize=None)
def basis_coordinates(basis, p, K):
    """(x, b^-1 x b as Fractions) for every x in GL_2(Z/p^K)."""
    b = QMatrix.make(basis, p)
    out = []
    for x in MatrixWindow(2, p, K).elements(cap=10**5):
        y = b.inv().mul(QMatrix.make(x, p)).mul(b)
        out.append((x, y.entries))
    return out


@lru_cache(maxsize=None)
def shape_oracle(basis, shape, p, K):
    """Residues x of GL_2(Z/p^K) with val(y_rs - delta_rs) >= shape_rs,
    capped to [0, K], for y = b^-1 x b: the image of the shape subgroup."""
    def ok(y):
        return all(vp(y[r][s] - (r == s), p) >= max(0, min(K, shape[r][s]))
                   for r in range(2) for s in range(2))
    return frozenset(x for x, y in basis_coordinates(basis, p, K) if ok(y))


def materialized(image):
    return frozenset(image.elements)


# -- strategies ---------------------------------------------------------------

#: Integral bases with unit determinant at every p, so shared and mixed
#: bases both occur; the last two differ from the identity by monomial
#: matrices (a permutation, a unit scaling).
BASES = [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1)),
         ((0, 1), (1, 0)), ((1, 0), (0, -1))]
#: Largest matrix-window level per prime that keeps the oracle cheap.
MAX_K = {2: 3, 3: 2, 5: 1, 7: 1}


@st.composite
def shapes(draw):
    """Valid 2x2 shapes: diagonal >= 0 and m01 + m10 >= both diagonals."""
    diag = st.sampled_from([0, 1, 2, INF])
    off = st.sampled_from([-2, -1, 0, 1, 2, 3, INF])
    m00, m11 = draw(diag), draw(diag)
    m01 = draw(off)
    m10 = draw(off.filter(lambda e: m01 + e >= max(m00, m11)))
    return ((m00, m01), (m10, m11))


@st.composite
def shape_images(draw, count=3):
    """`count` shape images at one (p, K), with their oracle sets."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    K = draw(st.integers(1, MAX_K[p]))
    out = []
    for _ in range(count):
        basis, shape = draw(st.sampled_from(BASES)), draw(shapes())
        image = ShapeSubgroup(QMatrix.make(basis, p), shape).window_image(K)
        out.append((image, shape_oracle(basis, shape, p, K)))
    return p, K, out


@st.composite
def vanish_sets(draw):
    left = draw(st.none() | st.integers(-3, 1))
    right = draw(st.none() | st.integers(-1, 3))
    fin = draw(st.frozensets(st.integers(-3, 3)))
    return VanishSet.make(left, fin, right)


@st.composite
def coordinate_images(draw, count=3):
    """`count` coordinate images at one (p, K); one may be an explicit
    closure of random digit tuples instead, to exercise the mixed forms."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    K = draw(st.integers(0, 1 if p == 7 else 2))
    window = VectorWindow(p, 2 * K + 1)
    out = []
    for _ in range(count):
        if draw(st.integers(0, 3)) == 0:
            digits = st.tuples(*[st.integers(0, p - 1)] * window.length)
            gens = draw(st.lists(digits, max_size=2))
            image = subgroup_closure(window, gens)
            out.append((image, frozenset(image.elements)))
        else:
            v = draw(vanish_sets())
            out.append((ShiftOpen(p, v).window_image(K), lamp_oracle(p, K, v)))
    return p, K, out


# -- the protocol against the oracles -----------------------------------------


def _enumerated(window, a, b, t):
    prod = {window.mul(x, y) for x in a for y in b}
    if prod == t:
        return True, None
    return False, min(t - prod) if t - prod else min(prod - t)


def check_protocol(window, triple, coarser):
    (a, sa), (b, sb), (t, st_) = triple
    for image, oracle in triple:
        assert image.order == len(oracle)
        assert materialized(image) == oracle
        assert image.sorted_codes() == sorted(oracle)
    for x in sorted(sa | sb | st_ | {window.identity}):
        assert (x in a) == (x in sa)
        assert (x in b) == (x in sb)
    assert (a <= b) is (sa <= sb)
    assert (a == b) is (sa == sb)
    assert (a & b).order == len(sa & sb)
    assert materialized(a & b) == sa & sb
    assert materialized(b & a) == sa & sb
    if sb <= sa:
        assert index(a, b) == len(sa) // len(sb)
    else:
        with pytest.raises(ContainmentError) as exc:
            index(a, b)
        assert exc.value.witness == min(sb - sa)
    if len(sa) * len(sb) <= 40000:
        expected = _enumerated(window, sa, sb, st_)
        assert product_is(a, b, t) is expected[0]
        assert product_set_equals(a, b, t) == expected
    for k, reduce in coarser:
        pa, pb = frozenset(map(reduce, sa)), frozenset(map(reduce, sb))
        assert materialized(a.project(k)) == pa
        assert (a.project(k) == b.project(k)) is (pa == pb)


@settings(max_examples=80, deadline=None)
@given(shape_images())
def test_shape_images_match_materialized_sets(case):
    p, K, triple = case
    window = MatrixWindow(2, p, K)

    def reducer(k):
        return lambda c: tuple(tuple(e % p**k for e in row) for row in c)

    check_protocol(window, triple, [(k, reducer(k)) for k in range(K + 1)])
    (a, sa), _, _ = triple
    x = sorted(sa)[len(sa) // 2]
    x_inv = window.inv(x)
    for image, oracle in triple:
        conj = {window.mul(window.mul(x, c), x_inv) for c in oracle}
        assert materialized(image.conjugated(x)) == conj


@settings(max_examples=80, deadline=None)
@given(coordinate_images())
def test_coordinate_images_match_materialized_sets(case):
    p, K, triple = case
    window = VectorWindow(p, 2 * K + 1)

    def reducer(k):
        drop = K - k
        return lambda c: c[drop:drop + 2 * k + 1]

    check_protocol(window, triple, [(k, reducer(k)) for k in range(K + 1)])
    for image, oracle in triple:
        assert materialized(image.conjugated((p - 1,) * window.length)) == oracle


@pytest.mark.parametrize("K, order", [(1, 2), (2, 32), (3, 512)])
def test_distinct_shapes_with_one_image_are_equal(K, order):
    # At p = 2 a level-0 diagonal entry is already 1 mod 2, so these two
    # shapes differ but cut out the same subgroup image: equality and
    # containment must come from orders, never from comparing shapes.
    basis = QMatrix.make(BASES[0], 2)
    a = ShapeSubgroup(basis, iwahori_shape(2)).window_image(K)
    b = ShapeSubgroup(basis, ((1, 1), (0, 1))).window_image(K)
    assert a.clamped != b.clamped
    assert a.order == b.order == order
    assert a == b and a <= b and b <= a
    assert materialized(a) == materialized(b) == shape_oracle(BASES[0], iwahori_shape(2), 2, K)
    assert index(a, b) == 1 and product_is(a, b, a)


def test_cross_basis_images_compare_by_elements():
    # Conjugate images under different bases: equal as sets exactly when
    # the oracle says so, decided without materializing the larger one.
    p, K = 3, 2
    u = ShapeSubgroup(QMatrix.make(BASES[1], p), ((0, 1), (1, 0))).window_image(K)
    v = ShapeSubgroup(QMatrix.make(BASES[2], p), ((0, 1), (1, 0))).window_image(K)
    su = shape_oracle(BASES[1], ((0, 1), (1, 0)), p, K)
    sv = shape_oracle(BASES[2], ((0, 1), (1, 0)), p, K)
    assert (u == v) is (su == sv)
    assert (u <= v) is (su <= sv)
    assert materialized(u & v) == su & sv


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_monomial_change_of_basis_stays_structural(p):
    # The eigenbasis of diag(1, p) swaps the coordinates of diag(p, 1):
    # images in the two bases meet by permuting the shape, with no
    # element built, even where the images exceed the enumeration cap.
    swap = QMatrix.make(BASES[4], p)
    upper = ((INF, 0), (INF, INF))
    for K in (1, 8):
        a = ShapeSubgroup(QMatrix.make(BASES[0], p), upper).window_image(K)
        b = ShapeSubgroup(swap, upper).window_image(K)
        meet = a & b
        assert type(meet) is type(a) and meet.order == 1
        assert not a <= b and a != b and a <= a & a
        assert (a & b.conjugated(b.conj[0])).order == a.order
    a, b = a.project(1), b.project(1)
    sa = shape_oracle(BASES[0], upper, p, 1)
    sb = shape_oracle(BASES[4], upper, p, 1)
    assert materialized(a & b) == sa & sb and materialized(b & a) == sa & sb


def test_upward_projection_is_rejected():
    image = ShiftOpen(2, VanishSet.empty()).window_image(1)
    with pytest.raises(ValueError):
        image.project(2)
    shape = ShapeSubgroup(QMatrix.make(BASES[0], 2), iwahori_shape(2)).window_image(1)
    with pytest.raises(ValueError):
        shape.project(2)



@pytest.mark.parametrize("p, K", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_non_splitting_determinant_is_counted(p, K):
    # Both off-diagonal entries free: the determinant condition does not
    # split, so the order is counted over the residues, not read off.
    shape = ((1, 0), (0, 1))
    image = ShapeSubgroup(QMatrix.make(BASES[3], p), shape).window_image(K)
    oracle = shape_oracle(BASES[3], shape, p, K)
    assert image.order == len(oracle) and materialized(image) == oracle
    assert all((c in image) == (c in oracle) for c in MatrixWindow(2, p, K).elements())


# -- generators of shape images -----------------------------------------------

#: (n, p, K) of the matrix windows the generator tests draw from.
GENERATOR_WINDOWS = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1), (2, 3, 2), (2, 5, 1),
                     (2, 7, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1)]


@st.composite
def group_shape_images(draw, window):
    """A shape image in a random basis whose clamped shape is group-valued:
    entries drawn in [0, K], then closed under m_rt <= m_rs + m_st."""
    n, p, K = window.n, window.p, window.K
    m = [[draw(st.integers(0, K)) for _ in range(n)] for _ in range(n)]
    for s in range(n):
        for r in range(n):
            for t in range(n):
                m[r][t] = min(m[r][t], m[r][s] + m[s][t])
    if draw(st.integers(0, 4)) == 0:
        return ShapeImage(window, tuple(map(tuple, m)), None)
    # A unit-determinant basis: elementary row operations on a permutation.
    rows = [list(row) for row in draw(st.permutations(
        [tuple(int(i == j) for j in range(n)) for i in range(n)]))]
    for r, s, a in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(1, p**K - 1)), max_size=4)):
        if r != s:
            rows[r] = [x + a * y for x, y in zip(rows[r], rows[s])]
    b = window.encode(rows)
    return ShapeImage(window, tuple(map(tuple, m)), (b, window.inv(b)))


@st.composite
def group_shape_pairs(draw):
    window = MatrixWindow(*draw(st.sampled_from(GENERATOR_WINDOWS)))
    a, b = draw(group_shape_images(window)), draw(group_shape_images(window))
    assume(a.order <= 3000 and b.order <= 3000)
    return a, b


@settings(max_examples=100, deadline=None)
@given(group_shape_pairs())
def test_generators_generate_and_decide_containment(pair):
    # A pair in unrelated bases (no `_meet`) is compared by generators alone.
    a, b = pair
    assert backend.closure(a.window, a.generators, 10**5) == a.elements
    assert (a <= b) is (a.elements <= b.elements)
    assert (a == b) is (a.elements == b.elements)


def test_p2_units_need_minus_one(monkeypatch):
    # The diagonal units mod 8 need -1 besides 3.  No shape image can tell
    # diag(-1, 1) from diag(3, 1), which both differ from 1 by 2 times a
    # unit, so the fault shows against an explicit subgroup: the diagonal
    # {1, 3}^2 extended by the upper unipotents, of order 32.
    w = MatrixWindow(2, 2, 3)
    a = ShapeImage(w, ((0, 3), (3, 0)), None)
    diag = [((3, 0), (0, 1)), ((1, 0), (0, 3))]
    b = subgroup_closure(w, diag + [((1, 1), (0, 1))])
    assert (a.order, b.order) == (16, 32) and ((7, 0), (0, 1)) not in b
    assert not a <= b and not a.elements <= b.elements
    real = linear._unit_generators
    monkeypatch.setattr(linear, "_unit_generators",
                        lambda p, e: (3,) if p == 2 and e <= 1 else real(p, e))
    assert ShapeImage(w, a.clamped, None) <= b


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unit_generators_generate_the_units(p):
    m = p**4
    for e in range(4):
        units = {x for x in range(m) if x % p and (x - 1) % p**e == 0}
        group = frontier = {1}
        while frontier:
            frontier = {x * g % m for x in frontier for g in linear._unit_generators(p, e)}
            frontier -= group
            group = group | frontier
        assert group == units


def test_shape_that_is_not_a_group_gives_its_elements():
    # m_00 = 1 > m_01 + m_10 = 0: the residues are not closed under products.
    image = ShapeImage(MatrixWindow(2, 3, 1), ((1, 0), (0, 1)), None)
    assert image.generators == image.elements


# -- the enumeration cap -------------------------------------------------------


def _functions(module):
    """Every function and method defined in `module`."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield from (f for f in vars(obj).values() if inspect.isfunction(f))
            yield from (f.__func__ for f in vars(obj).values()
                        if isinstance(f, (classmethod, staticmethod)))


@pytest.mark.parametrize("module", [tidy, limits, verify, shift, linear])
def test_cap_is_a_constant_above_the_kernel(module):
    takes_cap = [f.__qualname__ for f in _functions(module)
                 if "cap" in inspect.signature(f).parameters]
    assert takes_cap == []


def test_images_have_no_cap_field():
    for cls in (ShapeImage, CoordinateImage):
        assert "cap" not in inspect.signature(cls).parameters
        assert "cap" not in cls.__slots__


@pytest.mark.parametrize("image", [
    lambda: ShiftModel(2).reference().window_image(8),  # 2^17 elements
    lambda: LinearModel(7, 2).reference().window_image(3),
    # GL_3(Z/4): 86,016 elements from 4^9 candidates, under 4 * cap.
    lambda: LinearModel(2, 3).reference().window_image(2),
], ids=["shift", "linear", "linear-n3"])
def test_reading_elements_past_the_cap_raises(image):
    with pytest.raises(ResolutionError, match="cap=65536"):
        image().elements


# -- shape orders ---------------------------------------------------------------


def _shape_orders_against_counts(shapes, p, K):
    """Compare `_shape_order` with a count of `_residues` for each shape the
    count can enumerate; return the shapes it cannot."""
    too_large = []
    for clamped in shapes:
        try:
            count = sum(1 for _ in linear._residues(clamped, p, K))
        except ResolutionError:
            too_large.append(clamped)
            continue
        assert linear._shape_order(clamped, p, K) == count, (clamped, p, K)
    return too_large


@pytest.mark.parametrize("p, K", [(p, K) for p in (2, 3) for K in range(4)])
def test_shape_order_counts_every_2x2_shape(p, K):
    shapes = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(K + 1), repeat=4)]
    too_large = _shape_orders_against_counts(shapes, p, K)
    # Only the full window GL_2(Z/27) is too large to count; it has
    # 27^4 (1 - 1/3)(1 - 1/9) elements.
    assert too_large == ([((0, 0), (0, 0))] if (p, K) == (3, 3) else [])
    if too_large:
        assert linear._shape_order(too_large[0], p, K) == 27**4 * 2 * 8 // 27


@pytest.mark.parametrize("p, K", [(2, 1), (2, 2), (3, 1)])
def test_shape_order_counts_sampled_3x3_shapes(p, K):
    rng = random.Random(p * 10 + K)
    shapes = [tuple(tuple(rng.randint(0, K) for _ in range(3)) for _ in range(3))
              for _ in range(40)]
    shapes = [c for c in shapes if math.prod(p ** (K - e) for row in c for e in row) <= 2**14]
    assert len(shapes) >= 10
    assert _shape_orders_against_counts(shapes, p, K) == []
