"""Window groups, subgroup images, and the enumeration-free shortcuts.

The closure/index/product-set results are cross-checked against exhaustive
enumeration on windows small enough to materialize completely.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import is_subgroup
import oracles

from tdlcw import backend
from tdlcw.kernel import (
    DEFAULT_CAP,
    ContainmentError,
    MatrixWindow,
    ResolutionError,
    SubgroupImage,
    UnsupportedElementError,
    VectorWindow,
    WindowMismatchError,
    adjugate,
    det,
    index,
    product_is,
    product_set_equals,
    subgroup_closure,
)


@pytest.fixture
def vec():
    return VectorWindow(2, 5)


@pytest.fixture
def mat():
    return MatrixWindow(2, 2, 2)


def unit(length, *ones):
    """The digit tuple of the given length with a 1 at each of `ones`."""
    return tuple(int(i in ones) for i in range(length))


def brute_closure(window, gens):
    """Reference closure by saturation over explicit element sets."""
    elems = {window.identity}
    gens = set(gens) | {window.inv(g) for g in gens}
    while True:
        new = {window.mul(x, g) for x in elems for g in gens} - elems
        if not new:
            return elems
        elems |= new


class TestVectorWindow:
    def test_order_and_identity(self, vec):
        assert vec.order == 32
        assert vec.identity == (0, 0, 0, 0, 0)

    def test_elements_are_the_digit_tuples(self, vec):
        elems = list(vec.elements())
        assert len(set(elems)) == len(elems) == vec.order
        assert all(len(a) == 5 and set(a) <= {0, 1} for a in elems)

    def test_group_laws_exhaustive(self, vec):
        elems = list(vec.elements())
        for a in elems:
            assert vec.mul(a, vec.inv(a)) == vec.identity
            for b in elems[:8]:
                assert vec.mul(a, b) == tuple((x + y) % 2 for x, y in zip(a, b))

    def test_mul_and_inv_reduce_mod_p(self):
        vec = VectorWindow(3, 5)
        assert vec.mul((2, 1, 2, 0, 1), (2, 2, 0, 0, 1)) == (1, 0, 2, 0, 2)
        assert vec.inv((2, 1, 0, 0, 1)) == (1, 2, 0, 0, 2)

    def test_wrong_length_rejected(self, vec, mat):
        with pytest.raises(WindowMismatchError):
            vec.level(3)
        with pytest.raises(WindowMismatchError):
            mat.encode(((1, 0, 0), (0, 1, 0)))

    def test_elements_respects_cap(self, vec):
        with pytest.raises(ResolutionError):
            list(vec.elements(cap=8))


class TestMatrixWindow:
    def test_order_formula_matches_enumeration(self, mat):
        # |GL_2(Z/4)| counted directly.
        assert mat.order == 96
        assert len(list(mat.elements())) == 96

    def test_identity(self, mat):
        assert mat.identity == ((1, 0), (0, 1))

    def test_group_laws_exhaustive(self, mat):
        elems = list(mat.elements())
        for a in elems:
            assert mat.mul(a, mat.inv(a)) == mat.identity
        a, b, c = elems[3], elems[17], elems[40]
        assert mat.mul(mat.mul(a, b), c) == mat.mul(a, mat.mul(b, c))

    def test_det_and_invertibility(self, mat):
        assert not mat.is_invertible(((0, 0), (0, 0)))
        assert not mat.is_invertible(((2, 1), (0, 3)))
        assert mat.det(((1, 2), (3, 3))) == 1
        assert mat.det(mat.identity) == 1

    def test_encode_rejects_singular(self, mat):
        with pytest.raises(UnsupportedElementError):
            mat.encode(((2, 0), (0, 1)))
        assert mat.encode(((5, -1), (4, 7))) == ((1, 3), (0, 3))

    def test_level_zero_window_is_trivial(self):
        w = MatrixWindow(2, 2, 0)
        assert w.order == 1 and type(w.order) is int
        assert list(w.elements()) == [w.identity]
        assert w.encode(((1, 0), (0, 1))) == w.identity == ((0, 0), (0, 0))
        assert subgroup_closure(w, [w.identity]).order == 1

    def test_gl3_order_formula(self):
        w = MatrixWindow(3, 2, 1)
        # |GL_3(F_2)| = 168
        assert w.order == 168
        assert len(list(w.elements())) == 168

    @pytest.mark.parametrize("window", [MatrixWindow(3, 2, 1), MatrixWindow(2, 3, 2)])
    def test_inverse_exhaustive(self, window):
        elems = list(window.elements())
        assert len(elems) == window.order
        for a in elems:
            assert window.mul(a, window.inv(a)) == window.identity
            assert window.mul(window.inv(a), a) == window.identity


def square_matrices(entry):
    return st.integers(2, 3).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


class TestDetAdjugate:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        square_matrices(st.integers(-20, 20)),
        square_matrices(st.fractions(min_value=-5, max_value=5, max_denominator=6)),
    ))
    def test_adjugate_times_matrix_is_det_identity(self, a):
        n = len(a)
        d = det(a)
        adj = adjugate(a)
        for left, right in ((a, adj), (adj, a)):
            for i in range(n):
                for j in range(n):
                    entry = sum(left[i][k] * right[k][j] for k in range(n))
                    assert entry == (d if i == j else 0)

    def test_det_by_permutation_expansion(self):
        a = [[Fraction(2), 3, -1], [4, Fraction(1, 2), 5], [0, -3, 7]]
        # Leibniz: sum over permutations of sign * product.
        expected = (2 * Fraction(1, 2) * 7 - 2 * 5 * -3 - 3 * 4 * 7
                    + 3 * 5 * 0 + -1 * 4 * -3 - -1 * Fraction(1, 2) * 0)
        assert det(a) == expected
        assert det([[1, 2], [3, 4]]) == -2


class TestSubgroupClosure:
    def test_matches_brute_force_vec(self, vec):
        import random

        rng = random.Random(1)
        for _ in range(25):
            gens = [tuple(rng.randrange(2) for _ in range(5))
                    for _ in range(rng.randrange(1, 4))]
            got = subgroup_closure(vec, gens)
            assert got.elements == frozenset(brute_closure(vec, gens))
            assert is_subgroup(got)

    def test_matches_brute_force_mat(self, mat):
        import random

        rng = random.Random(2)
        elems = list(mat.elements())
        for _ in range(25):
            gens = rng.sample(elems, rng.randrange(1, 4))
            got = subgroup_closure(mat, gens)
            assert got.elements == frozenset(brute_closure(mat, gens))
            assert is_subgroup(got)

    def test_empty_generators_give_trivial_group(self, vec):
        assert subgroup_closure(vec, []).elements == {(0, 0, 0, 0, 0)}

    def test_cap_exceeded_is_loud(self):
        mat = MatrixWindow(2, 2, 3)
        cases = [
            (VectorWindow(2, 13), [unit(13, i) for i in range(13)]),
            # Elementary unipotents generate SL_2(Z/8), of order 384.
            (mat, [((1, 1), (0, 1)), ((1, 0), (1, 1))]),
        ]
        for window, gens in cases:
            with pytest.raises(ResolutionError):
                subgroup_closure(window, gens, cap=100)

    def test_cap_bounds_subgroup_not_window(self):
        # A small subgroup of a window far larger than the cap: 2^70
        # elements at length 70.
        for length, gens in [(30, [unit(30, 0), unit(30, 1)]),
                             (70, [unit(70, 0), unit(70, 69)])]:
            window = VectorWindow(2, length)
            small = subgroup_closure(window, gens, cap=16)
            assert small.order == 4
            assert small.elements == backend.closure(window, gens, 16)


class TestProductSetEquals:
    def test_product_detects_equality_and_witness(self, vec):
        a = subgroup_closure(vec, [unit(5, 0)])
        b = subgroup_closure(vec, [unit(5, 1)])
        t = subgroup_closure(vec, [unit(5, 0), unit(5, 1)])
        ok, witness = product_set_equals(a, b, t)
        assert ok and witness is None
        big = subgroup_closure(vec, [unit(5, 0), unit(5, 1), unit(5, 2)])
        ok, witness = product_set_equals(a, b, big)
        assert not ok and witness in big.elements

    def test_subgroup_shortcut_agrees_with_enumeration(self, mat):
        t = subgroup_closure(mat, [((1, 1), (0, 1)), ((1, 0), (1, 1))])
        sub = subgroup_closure(mat, [((1, 1), (0, 1))])
        ok, _ = product_set_equals(t, sub, t)
        assert ok
        ok, _ = product_set_equals(sub, t, t)
        assert ok

    def test_excess_product_reports_witness(self, vec):
        a = subgroup_closure(vec, [unit(5, 0), unit(5, 1)])
        small = subgroup_closure(vec, [unit(5, 0)])
        ok, witness = product_set_equals(a, a, small)
        assert not ok and witness not in small.elements

    def test_product_set_forms_one_product_per_element(self, mat):
        # B a subgroup, A a subgroup or any set of elements: a coset aB is
        # formed only for an a outside the cosets before it.
        import random

        class Counting:
            calls = 0

            def mul(self, a, b):
                self.calls += 1
                return mat.mul(a, b)

        rng = random.Random(3)
        elems = list(mat.elements())
        saved = 0
        for _ in range(25):
            b = subgroup_closure(mat, rng.sample(elems, rng.randrange(1, 3))).sorted_codes()
            for a in (subgroup_closure(mat, rng.sample(elems, rng.randrange(1, 3))).sorted_codes(),
                      rng.sample(elems, rng.randrange(1, 20))):
                window = Counting()
                prod = backend.product_set(window, a, b)
                assert prod == oracles.product_set(mat, a, b)
                assert window.calls == len(prod)
                saved += len(prod) < len(a) * len(b)
        assert saved

    @pytest.mark.parametrize("window", ["vec", "mat"])
    def test_verdict_and_witness_match_the_all_pairs_oracle(self, request, window):
        # The witness is the least element of T outside AB, or else the
        # least element of AB outside T, whichever way AB is enumerated.
        import random

        w = request.getfixturevalue(window)
        rng = random.Random(5)
        elems = list(w.elements())
        verdicts = set()
        for _ in range(40):
            a, b, t = (subgroup_closure(w, rng.sample(elems, rng.randrange(0, 3)))
                       for _ in range(3))
            prod = oracles.product_set(w, a.elements, b.elements)
            missing = sorted(c for c in t.elements if c not in prod)
            extra = sorted(c for c in prod if c not in t.elements)
            expected = (True, None) if not missing and not extra else (
                False, (missing or extra)[0])
            assert product_set_equals(a, b, t) == expected
            verdicts.add(expected[0])
        assert verdicts == {True, False}

    def test_window_mismatch_rejected(self, vec, mat):
        with pytest.raises(WindowMismatchError):
            product_set_equals(
                SubgroupImage(vec), SubgroupImage(vec), SubgroupImage(mat)
            )


class TestIndexAndIntersect:
    def test_index_exhaustive(self, mat):
        full = SubgroupImage(mat, frozenset(mat.elements()))
        sub = subgroup_closure(mat, [((1, 1), (0, 1))])
        assert index(full, sub) == 96 // sub.order
        assert index(full, full) == 1

    def test_index_requires_containment(self, vec):
        a = subgroup_closure(vec, [unit(5, 0)])
        b = subgroup_closure(vec, [unit(5, 1)])
        with pytest.raises(ContainmentError) as exc:
            index(a, b)
        assert exc.value.witness == unit(5, 1)

    def test_intersect(self, vec):
        a = subgroup_closure(vec, [unit(5, 0), unit(5, 1)])
        b = subgroup_closure(vec, [unit(5, 1), unit(5, 2)])
        both = a & b
        assert both.elements == subgroup_closure(vec, [unit(5, 1)]).elements

    def test_default_image_is_trivial(self, vec):
        assert SubgroupImage(vec).elements == {vec.identity}
        assert SubgroupImage(vec).order == 1


# -- structural shortcuts against their brute-force oracles -----------------


def _scaled_sum(window, terms):
    """sum c * v over (c, v) in terms, by repeated window multiplication."""
    out = window.identity
    for c, v in terms:
        for _ in range(c % window.p):
            out = window.mul(out, v)
    return out


@st.composite
def vector_generators(draw):
    """A vector window with a generator list mixing independent-looking
    vectors, 0, duplicates and linear combinations of earlier entries."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    length = draw(st.integers(1, 6))
    window = VectorWindow(p, length)
    vector = st.tuples(*[st.integers(0, p - 1)] * length)
    # At most three free vectors keep the BFS oracle cheap (|H| <= 7^3).
    gens = draw(st.lists(vector, min_size=0, max_size=3))
    extras = []
    if gens and draw(st.booleans()):
        extras.append(draw(st.sampled_from(gens)))
    if draw(st.booleans()):
        extras.append(window.identity)
    for _ in range(draw(st.integers(0, 2)) if gens else 0):
        terms = [(draw(st.integers(0, p - 1)), draw(st.sampled_from(gens)))
                 for _ in range(2)]
        extras.append(_scaled_sum(window, terms))
    return window, draw(st.permutations(gens + extras))


def span(window, gens):
    """F_p-span of `gens`: each generator outside the span so far extends it
    by the cyclic factor {c * g : 0 <= c < p}, multiplying its size by p."""
    seen = {window.identity}
    for g in gens:
        if g not in seen:
            coset = list(seen)
            for _ in range(window.p - 1):
                coset = [window.mul(x, g) for x in coset]
                seen.update(coset)
    return frozenset(seen)


class TestSpanClosureOracle:
    @settings(max_examples=150, deadline=None)
    @given(vector_generators())
    def test_span_matches_bfs(self, case):
        window, gens = case
        bfs = backend.closure(window, gens, DEFAULT_CAP)
        assert subgroup_closure(window, gens).elements == frozenset(bfs) == span(window, gens)

    @settings(max_examples=100, deadline=None)
    @given(vector_generators())
    def test_cap_boundary_matches_bfs(self, case):
        window, gens = case
        order = len(backend.closure(window, gens, DEFAULT_CAP))
        # |H| = cap materializes on both paths.
        assert subgroup_closure(window, gens, cap=order).order == order
        assert len(backend.closure(window, gens, order)) == order
        if order == 1:
            return
        # |H| > cap raises the same error on both paths.
        cap = order - 1
        with pytest.raises(ResolutionError) as bfs:
            backend.closure(window, gens, cap)
        with pytest.raises(ResolutionError) as span:
            subgroup_closure(window, gens, cap=cap)
        assert str(span.value) == str(bfs.value)
        assert span.value.cap == bfs.value.cap == cap


def _enumerated(a, b, t):
    """(AB == T, witness) by forming every product, as product_set_equals
    promises: the first element of T missed, else the first excess one."""
    w = a.window
    prod = {w.mul(x, y) for x in a.elements for y in b.elements}
    if prod == t.elements:
        return True, None
    missing = sorted(t.elements - prod)
    return False, (missing or sorted(prod - t.elements))[0]


@st.composite
def subgroup_triples(draw):
    """Subgroup images A, B, T of one vector or matrix window; T is often
    the join of A and B, so that both outcomes occur."""
    window = draw(st.sampled_from([
        VectorWindow(2, 4), VectorWindow(3, 3), VectorWindow(5, 2),
        MatrixWindow(2, 2, 1), MatrixWindow(2, 3, 1), MatrixWindow(2, 2, 2),
    ]))
    elems = sorted(window.elements())
    gens = st.lists(st.sampled_from(elems), max_size=2)
    ga, gb = draw(gens), draw(gens)
    gt = ga + gb if draw(st.booleans()) else draw(gens)
    return tuple(subgroup_closure(window, g) for g in (ga, gb, gt))


class TestProductFormulaOracle:
    @settings(max_examples=150, deadline=None)
    @given(subgroup_triples())
    def test_matches_enumeration(self, triple):
        a, b, t = triple
        expected = _enumerated(a, b, t)
        assert product_is(a, b, t) is expected[0]
        assert product_set_equals(a, b, t) == expected

    def test_failing_product_of_two_reflections(self):
        # GL_2(F_2) is S_3: two reflections generate it, but their product
        # set has |A||B| / |A n B| = 4 < 6 elements.
        w = MatrixWindow(2, 2, 1)
        swap, shear = ((0, 1), (1, 0)), ((1, 1), (0, 1))
        a = subgroup_closure(w, [swap])
        b = subgroup_closure(w, [shear])
        t = subgroup_closure(w, [swap, shear])
        assert t.order == 6 and not product_is(a, b, t)
        ok, witness = product_set_equals(a, b, t)
        assert (ok, witness) == _enumerated(a, b, t)
        assert not ok and witness in t.elements
