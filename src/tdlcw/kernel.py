"""Model-agnostic finite-quotient machinery.

A *window group* is the finite quotient that a model presents at a given
resolution: the additive group F_p^length for the shift model, GL_n(Z/p^K)
for the linear model.  Elements are canonical packed-integer codes, so that
equal elements always have identical encodings and reports are diffable.

Subgroups of a window are materialized as explicit code sets
(:class:`SubgroupImage`); everything here is immutable and pure.

Subgroup questions are decided by group theory rather than enumeration
wherever it is exact.  A subgroup of the abelian, exponent-p vector window
F_p^length is the F_p-span of its generators, built one cyclic factor at a
time; matrix windows keep breadth-first closure.  For subgroups A, B, T the
product AB equals T exactly when A, B <= T and |A||B| = |T||A n B|;
products are enumerated only to name a witness when that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from tdlcw import backend

#: Sentinel for "inside every filtration level", i.e. the identity.
INF_LEVEL = math.inf

#: Default cap on full-window materialization (spec'd loud-failure bound).
DEFAULT_CAP = 2**16


class ResolutionError(ValueError):
    """An operation would enumerate past the configured cap."""

    def __init__(self, message, cap):
        super().__init__(f"{message} (resolution too fine, cap={cap})")
        self.cap = cap


class ContainmentError(ValueError):
    """V was expected inside U; carries a witness element code."""

    def __init__(self, witness):
        super().__init__(f"subgroup containment fails, witness code {witness}")
        self.witness = witness


class WindowMismatchError(ValueError):
    pass


class UnsupportedElementError(ValueError):
    """The element lies outside the class the requested computation supports."""


@dataclass(frozen=True)
class VectorWindow:
    """Additive group F_p^length with coordinatewise arithmetic."""

    p: int
    length: int

    @property
    def desc(self):
        return ("vec", self.p, self.length)

    @property
    def order(self):
        return self.p**self.length

    @property
    def identity(self):
        return 0

    def mul(self, a, b):
        return backend.mul(self.desc, a, b)

    def inv(self, a):
        return backend.inv(self.desc, a)

    def encode(self, digits):
        if len(digits) != self.length:
            raise ValueError("digit vector has wrong length")
        return backend._vec_encode([d % self.p for d in digits], self.p)

    def decode(self, code):
        return tuple(backend._vec_decode(code, self.p, self.length))

    def elements(self, cap=DEFAULT_CAP):
        if self.order > cap:
            raise ResolutionError("vector window too large", cap)
        return range(self.order)


@dataclass(frozen=True)
class MatrixWindow:
    """GL_n(Z/p^K) with row-major entry packing in base p^K."""

    n: int
    p: int
    K: int

    @property
    def modulus(self):
        return self.p**self.K

    @property
    def desc(self):
        return ("mat", self.n, self.p, self.modulus)

    @property
    def order(self):
        # |GL_n(Z/p^K)| = p^((K-1) n^2) * |GL_n(F_p)|; GL_n(Z/p^0) is trivial.
        if self.K == 0:
            return 1
        n, p = self.n, self.p
        glnp = 1
        for i in range(n):
            glnp *= p**n - p**i
        return p ** ((self.K - 1) * n * n) * glnp

    @property
    def identity(self):
        return backend.identity(self.desc)

    def mul(self, a, b):
        return backend.mul(self.desc, a, b)

    def inv(self, a):
        return backend.inv(self.desc, a)

    def encode(self, entries):
        if len(entries) != self.n * self.n:
            raise ValueError("entry vector has wrong length")
        m = self.modulus
        code = backend._mat_encode([e % m for e in entries], m)
        if not self.is_invertible(code):
            raise ValueError("matrix is not invertible modulo p")
        return code

    def decode(self, code):
        return tuple(backend._mat_decode(code, self.n, self.modulus))

    def det(self, code):
        e = self.decode(code)
        n, m = self.n, self.modulus
        if n == 1:
            return e[0] % m
        if n == 2:
            return (e[0] * e[3] - e[1] * e[2]) % m
        if n == 3:
            return (
                e[0] * (e[4] * e[8] - e[5] * e[7])
                - e[1] * (e[3] * e[8] - e[5] * e[6])
                + e[2] * (e[3] * e[7] - e[4] * e[6])
            ) % m
        raise ValueError(f"unsupported matrix size n={self.n}")

    def is_invertible(self, code):
        return self.K == 0 or self.det(code) % self.p != 0

    def elements(self, cap=DEFAULT_CAP):
        if self.order > cap:
            raise ResolutionError("matrix window too large", cap)
        m = self.modulus
        total = m ** (self.n * self.n)
        return (c for c in range(total) if self.is_invertible(c))


@dataclass(frozen=True)
class SubgroupImage:
    """A subgroup of a window group, given by its full element set."""

    window: object
    elements: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.elements:
            object.__setattr__(self, "elements", frozenset({self.window.identity}))

    @property
    def order(self):
        return len(self.elements)

    def sorted_codes(self):
        return sorted(self.elements)

    def __contains__(self, code):
        return code in self.elements

    def __le__(self, other):
        _same_window(self, other)
        return self.elements <= other.elements

    def is_subgroup(self):
        """Exhaustive closure check; meant for tests and small images."""
        w = self.window
        if w.identity not in self.elements:
            return False
        for a in self.elements:
            if w.inv(a) not in self.elements:
                return False
            for b in self.elements:
                if w.mul(a, b) not in self.elements:
                    return False
        return True


def _same_window(*images):
    w = images[0].window
    for im in images[1:]:
        if im.window != w:
            raise WindowMismatchError(f"windows differ: {im.window} vs {w}")
    return w


def subgroup_closure(window, gens, cap=DEFAULT_CAP):
    """Smallest subgroup of `window` containing `gens`.

    The cap bounds the materialized subgroup, not the ambient window: a
    small subgroup of a huge window is still computable exactly.
    """
    gens = list(gens)
    if isinstance(window, VectorWindow):
        return SubgroupImage(window, frozenset(_span(window, gens, cap)))
    try:
        codes = backend.closure(window.desc, gens, cap)
    except ValueError as exc:
        raise ResolutionError(str(exc), cap) from None
    return SubgroupImage(window, frozenset(codes))


def _span(window, gens, cap):
    """F_p-span of `gens`: each generator outside the span so far extends it
    by the cyclic factor {c * g : 0 <= c < p}, multiplying its size by p."""
    seen = {0}
    for g in gens:
        if g in seen:
            continue
        if len(seen) * window.p > cap:
            raise ResolutionError(f"closure exceeded cap {cap}", cap)
        coset = list(seen)
        for _ in range(window.p - 1):
            coset = [window.mul(x, g) for x in coset]
            seen.update(coset)
    return seen


def product_is(a, b, t):
    """Decide AB == T for subgroup images by |A||B| = |T||A n B|.

    For subgroups, AB sits inside T whenever A and B do, and has exactly
    |A||B| / |A n B| elements, so no product is formed.
    """
    _same_window(a, b, t)
    return (
        a.elements <= t.elements
        and b.elements <= t.elements
        and a.order * b.order == t.order * len(a.elements & b.elements)
    )


def product_set_equals(a, b, t):
    """Decide {xy : x in A, y in B} == T; on failure return a witness.

    Returns (True, None) or (False, witness_code).  Equality is decided by
    :func:`product_is`; only a failure enumerates the product, to report the
    first element of T it misses (the tidy-above obstruction) or, when it
    misses none, its first element outside T.
    """
    if product_is(a, b, t):
        return True, None
    prod = backend.product_set(a.window.desc, a.sorted_codes(), b.sorted_codes())
    missing = sorted(t.elements - prod)
    if missing:
        return False, missing[0]
    return False, sorted(prod - t.elements)[0]


def index(u, v):
    """[U : V] for nested subgroup images; errors with a witness otherwise."""
    _same_window(u, v)
    if not v.elements <= u.elements:
        raise ContainmentError(sorted(v.elements - u.elements)[0])
    return u.order // v.order


def intersect(a, b):
    window = _same_window(a, b)
    return SubgroupImage(window, a.elements & b.elements)
