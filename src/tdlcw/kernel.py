"""Model-agnostic finite-quotient machinery.

A *window group* is the finite quotient that a model presents at a given
resolution: the additive group F_p^length for the shift model, GL_n(Z/p^K)
for the linear model.  An element is its residue: the digit tuple of a
lamp window, or a matrix mod p^K as a tuple of row tuples.  Residues are
canonical, so equal elements are equal tuples, and a witness prints as the
digits or the matrix it is.

Subgroups of a window are :class:`Image`s: an order, a membership test,
intersection, containment, equality, projection to a coarser level, and
their elements, built only when read.  The models describe their images
structurally (`shift.CoordinateImage`, `linear.ShapeImage`), so the window
questions are answered from coordinate sets and valuation shapes;
:class:`SubgroupImage` holds an explicit element set, as the breadth-first
`subgroup_closure` and the fallbacks between unlike images produce.  For
subgroups A, B, T the product AB equals T exactly when A, B <= T and
|A||B| = |T||A n B|; products are enumerated only to name a witness when
that fails.  Each window carries its own group law.  `mulmod` is the one
matrix product mod p^K, for windows and images alike; `power`
(square-and-multiply) and `conjugate` are written once for the elements
of both models, which carry their own `mul` and `inv`.

`det` and `adjugate`, over any commutative ring, are unrolled for 2x2 and
3x3 matrices, the sizes the linear model takes; with `QMatrix.__init__`
and `QMatrix.mul` in `linear` they are the only arithmetic that is not
written for any n.  All four are unrolled because paired measurements showed
that it pays.  Written for any n (Bareiss elimination, and cofactors by it), det
and adjugate made one in-process pass of the seed-7 `theorem-check`
commands at resolution 3 take 63-71 ms in place of 52-56 ms (min of 15
passes, 4 alternating rounds, 2 CPUs, CPython 3.11.7): window inverses,
shape membership and the residue filters call them on every element.

Enumeration is bounded by one constant, `DEFAULT_CAP`: anything that would
materialize more elements raises :class:`ResolutionError` instead.  Only
this layer takes the bound as a parameter (`VectorWindow.elements`,
`MatrixWindow.elements`, `subgroup_closure` and `backend.closure`), so that
tests can set it small; every layer above uses the constant.

:class:`Value` is the base of the package's immutable value types, from
the windows here to the conjugator traces of `limits`, each constructed
from the fields its `__slots__` names; :class:`TdlcwError` is the base of
its errors.  A value class gets a constructor written out for its number
of fields (`_constructor`), which stores each value through its slot with
no loop and no `exec`.  An image computes its derived attributes once,
through :class:`cached_attribute` rather than `functools.cached_property`,
which in CPython 3.11 takes a lock on every first read.  A
`theorem-check --which all` run builds some 18,000 values and reads some
2,500 such attributes for the first time, so both sit on its hot path.
"""

from __future__ import annotations

import math
from itertools import product
from operator import attrgetter, mul

from tdlcw import backend

#: Sentinel for "inside every filtration level", i.e. the identity.
INF_LEVEL = math.inf

#: The one bound on enumeration: materializing more elements raises
#: ResolutionError.
DEFAULT_CAP = 2**16


class TdlcwError(Exception):
    """Base of the package's errors.

    `kind` names the failure in a failed result row: the class name
    without "Error", hyphenated (`HorizonExceededError` is
    "horizon-exceeded").  `witness`, when given, is what shows the failure:
    an element, a window residue, or the data that disagrees.  Each subclass
    also derives from ValueError or RuntimeError.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness

    @property
    def kind(self):
        name = type(self).__name__.removesuffix("Error")
        return "".join("-" + c.lower() if c.isupper() else c for c in name)[1:]


class InputError(TdlcwError, ValueError):
    """The command line or the arguments ask for something outside the
    supported range; the command line interface exits 2 on it."""


class ResolutionError(InputError):
    """An operation would enumerate past the configured cap."""

    def __init__(self, message, cap):
        super().__init__(f"{message} (resolution too fine, cap={cap})")
        self.cap = cap


class ContainmentError(TdlcwError, ValueError):
    """Something expected inside a subgroup is not; the witness, when
    known, is an element or residue outside it."""


class WindowMismatchError(TdlcwError, ValueError):
    """Operands belong to different windows or groups."""


class UnsupportedElementError(InputError):
    """The element lies outside the class the requested computation supports."""


def _constructor(cls, setters):
    """An `__init__` for `cls` that takes exactly one positional value per
    slot setter and stores each through its setter, in order.

    One body per field count, 0 to 7, written out: a construction runs no
    loop, and Python itself raises TypeError, naming `cls`, on a wrong
    count or a keyword.
    """
    if len(setters) > 7:
        raise TypeError(f"{cls.__qualname__}: a value class has at most 7 fields")
    s0, s1, s2, s3, s4, s5, s6 = setters + (None,) * (7 - len(setters))
    match len(setters):
        case 0:
            def init(self, /):
                pass
        case 1:
            def init(self, a, /):
                s0(self, a)
        case 2:
            def init(self, a, b, /):
                s0(self, a); s1(self, b)
        case 3:
            def init(self, a, b, c, /):
                s0(self, a); s1(self, b); s2(self, c)
        case 4:
            def init(self, a, b, c, d, /):
                s0(self, a); s1(self, b); s2(self, c); s3(self, d)
        case 5:
            def init(self, a, b, c, d, e, /):
                s0(self, a); s1(self, b); s2(self, c); s3(self, d); s4(self, e)
        case 6:
            def init(self, a, b, c, d, e, f, /):
                s0(self, a); s1(self, b); s2(self, c); s3(self, d); s4(self, e)
                s5(self, f)
        case 7:
            def init(self, a, b, c, d, e, f, g, /):
                s0(self, a); s1(self, b); s2(self, c); s3(self, d); s4(self, e)
                s5(self, f); s6(self, g)
    init.__name__ = "__init__"
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Value:
    """Base of the immutable value types of every layer.

    A subclass names its fields once, in `__slots__`, at most seven.  Its
    constructor takes one positional value per field, in that order, and
    raises TypeError on any other number of values or on a keyword.  When
    the class is created, `__init_subclass__` builds that constructor with
    `_constructor`, one fixed-arity function per field count that stores
    the values through the slot descriptors (which the guard below does not
    see): no loop, no `exec`, and half the cost of a generic `*values`
    loop.  A subclass that checks or normalises its arguments defines an
    `__init__` that ends in `super().__init__(...)` with every field; that
    reaches `Value.__init__`, which hands the values to the same
    constructor, so there is one way to store fields.  Instances are equal
    when they are of the same class with equal field tuples, hash as that
    tuple, print as ``Name(field=value, ...)`` and copy by reconstruction;
    setting or deleting an attribute raises AttributeError.  These are the
    semantics of a frozen dataclass without its import cost: `dataclasses`
    brings in `inspect`, and each decoration compiles methods with `exec`.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls.__dict__.get("__slots__", ())
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)
        cls._init = _constructor(cls, cls._setters)
        # A class without fields (`Image`) keeps `Value.__init__`, so that
        # its subclasses' own `__init__`s reach their constructors through it.
        if fields and "__init__" not in cls.__dict__:
            cls.__init__ = cls._init
        # `obj._key(obj)` is obj's field tuple.  attrgetter of two or more
        # names returns their values' tuple; it is no function, so as a
        # class attribute it binds to no instance.
        if len(fields) > 1:
            cls._key = attrgetter(*fields)
        else:
            cls._key = staticmethod(
                lambda obj: tuple(getattr(obj, name) for name in fields))

    def __init__(self, *values):
        # The constructor of the class being built, so that `SubgroupImage`
        # reaches its own through `Image`, which has no fields.
        self._init(*values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def det(rows):
    """Determinant of a 2x2 or 3x3 matrix over any commutative ring.

    Unrolled for the two sizes, as measured in the module docstring: a
    `theorem-check` pass calls it on every window inverse and every
    residue a shape image filters."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate(rows):
    """Adjugate of a 2x2 or 3x3 matrix: rows @ adjugate(rows) = det(rows) I.

    Unrolled for the two sizes, as `det` is and for the same measured
    reason: every window inverse and `QMatrix.inv` reads it."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return ((d, -b), (-c, a))
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def power(one, g, k):
    """g^k for an element with `mul` and `inv`, by square-and-multiply:
    O(log |k|) multiplications."""
    base = g if k >= 0 else g.inv()
    k = abs(k)
    out = one
    while k:
        if k & 1:
            out = out.mul(base)
        k >>= 1
        if k:
            base = base.mul(base)
    return out


def conjugate(g, x):
    """g x g^-1, for elements with `mul` and `inv`."""
    return g.mul(x, g.inv())


def mulmod(a, b, m):
    """The product of two matrices given as rows, reduced mod m."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % m for col in cols) for row in a)


class VectorWindow(Value):
    """Additive group F_p^length; an element is its digit tuple."""

    __slots__ = ("p", "length")

    @property
    def desc(self):
        """Hashable summary (kind, p, length), used as a trace key."""
        return ("vec", self.p, self.length)

    @property
    def order(self):
        return self.p**self.length

    @property
    def identity(self):
        return (0,) * self.length

    def mul(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def inv(self, a):
        p = self.p
        return tuple(-d % p for d in a)

    def level(self, K):
        """The window at level K: the centred coordinates [-K, K]."""
        if 2 * K + 1 > self.length:
            raise WindowMismatchError("cannot project upward")
        return VectorWindow(self.p, 2 * K + 1)

    def reduce(self, a, K):
        """The digits of `a` on the level-K window's coordinates."""
        drop = (self.length - 1) // 2 - K
        return a[drop : drop + 2 * K + 1]

    def elements(self, cap=DEFAULT_CAP):
        if self.order > cap:
            raise ResolutionError("vector window too large", cap)
        return product(range(self.p), repeat=self.length)


class MatrixWindow(Value):
    """GL_n(Z/p^K); an element is its tuple of rows, each entry reduced mod
    p^K.  Its product, order and levels are written for any n; `inv` and
    what tests invertibility (`det`, `encode`, `elements`) take n in {2, 3},
    the sizes of the unrolled `det` and `adjugate`, which a `theorem-check`
    pass calls on every window inverse and every element it lists (see the
    module docstring for the measurement)."""

    __slots__ = ("n", "p", "K")

    @property
    def modulus(self):
        return self.p**self.K

    @property
    def desc(self):
        """Hashable summary (kind, n, p, p^K), used as a trace key."""
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
        n, m = self.n, self.modulus
        # 1 % m: at m = 1 (K = 0) every entry is 0 and the window is trivial.
        return tuple(tuple(1 % m if r == s else 0 for s in range(n)) for r in range(n))

    def mul(self, a, b):
        return mulmod(a, b, self.modulus)

    def inv(self, a):
        m = self.modulus
        dinv = pow(det(a), -1, m)
        return tuple(tuple(e * dinv % m for e in row) for row in adjugate(a))

    def level(self, K):
        """The window GL_n(Z/p^K) at level K <= this one's."""
        if K > self.K:
            raise WindowMismatchError("cannot project upward")
        return MatrixWindow(self.n, self.p, K)

    def reduce(self, a, K):
        """`a` mod p^K."""
        m = self.p**K
        return tuple(tuple(e % m for e in row) for row in a)

    def encode(self, rows):
        """The matrix with these rows, reduced mod p^K; raises
        UnsupportedElementError when it is not invertible modulo p."""
        if len(rows) != self.n or any(len(row) != self.n for row in rows):
            raise WindowMismatchError("matrix has the wrong size")
        a = self.reduce(rows, self.K)
        if not self.is_invertible(a):
            raise UnsupportedElementError("matrix is not invertible modulo p")
        return a

    def det(self, a):
        return det(a) % self.modulus

    def is_invertible(self, a):
        return self.K == 0 or self.det(a) % self.p != 0

    def elements(self, cap=DEFAULT_CAP):
        if self.order > cap:
            raise ResolutionError("matrix window too large", cap)
        rows = product(range(self.modulus), repeat=self.n)
        return (a for a in product(rows, repeat=self.n) if self.is_invertible(a))


class cached_attribute:
    """An attribute computed on first read and stored in the instance
    `__dict__`, past `Value`'s guard, where later reads find it before this
    descriptor, which defines no `__set__`.

    It replaces `functools.cached_property`, which in CPython 3.11 takes a
    lock on every first read.  Nothing here is shared between threads; two
    racing first reads would both compute the same value.
    """

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Image(Value):
    """A subgroup of a window group, answered from what describes it.

    Subclasses give `window`, `order`, membership (`x in image`) and
    `elements`; `_meet` gives the intersection with an image of the same
    form, or None, and `generators` may name fewer elements than `elements`
    that generate the image.  Intersection, containment and equality
    follow: a meet of unlike forms filters the smaller image's elements
    through membership in the other, so only that image is materialized,
    and without a meet A <= B iff |A| <= |B| and B holds A's generators.

    Images are immutable `Value`s, but compare and hash as subgroups, not
    as field tuples.  `Image` declares no `__slots__`, so each image keeps
    an instance `__dict__` for its `cached_attribute`s.
    """

    def sorted_codes(self):
        return sorted(self.elements)

    def _meet(self, other):
        return None

    @property
    def generators(self):
        return self.elements

    def __and__(self, other):
        window = _same_window(self, other)
        meet = self._meet(other)
        if meet is None:
            small, big = sorted((self, other), key=lambda im: im.order)
            meet = SubgroupImage(window, frozenset(c for c in small.elements if c in big))
        return meet

    def __le__(self, other):
        _same_window(self, other)
        meet = self._meet(other)
        if meet is not None:
            return meet.order == self.order
        return self.order <= other.order and all(c in other for c in self.generators)

    def __eq__(self, other):
        return (isinstance(other, Image) and self.window == other.window
                and self.order == other.order and self <= other)

    def __hash__(self):
        return hash((self.window, self.order))

    def conjugated(self, a):
        """The image of x -> a x a^-1."""
        w = self.window
        a_inv = w.inv(a)
        return SubgroupImage(w, frozenset(w.mul(w.mul(a, x), a_inv) for x in self.elements))

    def project(self, K):
        """The image at level K <= this one's, reduced element by element."""
        w = self.window
        return SubgroupImage(w.level(K), frozenset(w.reduce(c, K) for c in self.elements))


class SubgroupImage(Image):
    """A subgroup of a window group, given by its full element set; the
    trivial subgroup when no element is given."""

    __slots__ = ("window", "elements")

    def __init__(self, window, elements=frozenset()):
        super().__init__(window, elements or frozenset({window.identity}))

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements


def _same_window(*images):
    w = images[0].window
    for im in images[1:]:
        if im.window != w:
            raise WindowMismatchError(f"windows differ: {im.window} vs {w}")
    return w


def subgroup_closure(window, gens, cap=DEFAULT_CAP):
    """Smallest subgroup of `window` containing `gens`, by breadth-first
    closure.

    The cap bounds the materialized subgroup, not the ambient window: a
    small subgroup of a huge window is still computable exactly.
    """
    return SubgroupImage(window, frozenset(backend.closure(window, list(gens), cap)))


def product_is(a, b, t):
    """Decide AB == T for subgroup images by |A||B| = |T||A n B|.

    For subgroups, AB sits inside T whenever A and B do, and has exactly
    |A||B| / |A n B| elements, so no product is formed.
    """
    _same_window(a, b, t)
    return a <= t and b <= t and a.order * b.order == t.order * (a & b).order


def product_set_equals(a, b, t):
    """Decide {xy : x in A, y in B} == T; on failure return a witness.

    Returns (True, None) or (False, witness).  Equality is decided by
    :func:`product_is`; only a failure enumerates the product, to report the
    first element of T it misses (the tidy-above obstruction) or, when it
    misses none, its first element outside T.
    """
    if product_is(a, b, t):
        return True, None
    prod = backend.product_set(a.window, a.sorted_codes(), b.sorted_codes())
    missing = [c for c in t.elements if c not in prod]
    return False, min(missing or (c for c in prod if c not in t))


def index(u, v):
    """[U : V] for nested subgroup images; otherwise an error with the
    smallest element of V outside U as witness."""
    _same_window(u, v)
    if not v <= u:
        witness = min(c for c in v.elements if c not in u)
        raise ContainmentError(
            f"subgroup containment fails, witness {witness}", witness)
    return u.order // v.order

