"""The bilateral shift model: lamp configurations F_p^Z extended by a shift.

Elements are pairs (lamp, m) with the semidirect product law
(a, m)(b, n) = (a + sigma^m b, m + n), where sigma shifts a sequence one
step to the right.  Lamps are exact eventually periodic sequences, so all
group arithmetic is exact and the shift element has a dense, non-closed
contraction group with full nub -- the nub-rich half of the workbench.

Compact open subgroups are "vanish sets": lamp-only subgroups cut out by
requiring coordinates to vanish on a set of the form ray + finite + ray.
The filtration is B_k = W(k) = lamps vanishing on [-k, k].
"""

from __future__ import annotations

from tdlcw.epseq import ZERO, EPSeq
from tdlcw.kernel import (
    DEFAULT_CAP,
    INF_LEVEL,
    ContainmentError,
    Image,
    InputError,
    ResolutionError,
    UnsupportedElementError,
    Value,
    VectorWindow,
    WindowMismatchError,
    cached_attribute,
    power,
)


class ShiftElement(Value):
    __slots__ = ("lamp", "shift")

    @property
    def p(self):
        return self.lamp.p

    def mul(self, *factors):
        """self * factors[0] * factors[1] * ..., factor by factor."""
        lamp, shift = self.lamp, self.shift
        for other in factors:
            if self.p != other.p:
                raise WindowMismatchError("prime mismatch")
            lamp, shift = lamp.add(other.lamp.shift(shift)), shift + other.shift
        return ShiftElement(lamp, shift)

    def inv(self):
        return ShiftElement(self.lamp.neg().shift(-self.shift), -self.shift)

    def is_identity(self):
        return self.shift == 0 and self.lamp.is_zero()


def shift_identity(p):
    return ShiftElement(EPSeq.zero(p), 0)


def shift_generator(p, m=1):
    return ShiftElement(EPSeq.zero(p), m)


def lamp_element(p, support):
    return ShiftElement(EPSeq.from_support(p, support), 0)


class VanishSet(Value):
    """Subset of Z of the form (-inf, left] + finite + [right, inf)."""

    __slots__ = ("left", "fin", "right", "everything")

    @classmethod
    def make(cls, left=None, fin=(), right=None, everything=False):
        fin = set(fin)
        if left is not None:
            while left + 1 in fin:
                left += 1
            fin = {i for i in fin if i > left}
        if right is not None:
            while right - 1 in fin:
                right -= 1
            fin = {i for i in fin if i < right}
        if everything or (left is not None and right is not None and left >= right - 1):
            return cls(None, frozenset(), None, True)
        return cls(left, frozenset(fin), right, False)

    @classmethod
    def interval(cls, a, b):
        return cls.make(fin=range(a, b + 1))

    @classmethod
    def empty(cls):
        return cls.make()

    def is_empty(self):
        return not self.everything and self.left is None and self.right is None and not self.fin

    def translate(self, t):
        if self.everything:
            return self
        return VanishSet.make(
            None if self.left is None else self.left + t,
            {i + t for i in self.fin},
            None if self.right is None else self.right + t,
        )

    def union(self, other):
        if self.everything or other.everything:
            return VanishSet.make(everything=True)
        lefts = [x for x in (self.left, other.left) if x is not None]
        rights = [x for x in (self.right, other.right) if x is not None]
        return VanishSet.make(
            max(lefts) if lefts else None,
            self.fin | other.fin,
            min(rights) if rights else None,
        )

    def __contains__(self, i):
        return (self.everything or i in self.fin
                or (self.left is not None and i <= self.left)
                or (self.right is not None and i >= self.right))

    def __le__(self, other):
        """Subset test (self a subset of other)."""
        if other.everything:
            return True
        if self.everything:
            return False
        if self.left is not None and (other.left is None or self.left > other.left):
            return False
        if self.right is not None and (other.right is None or self.right < other.right):
            return False
        if not all(i in other for i in self.fin):
            return False
        return True


class CoordinateImage(Image):
    """The window image of a vanish-set subgroup: the digit vectors of
    F_p^(2K+1) that are zero off the positions `free` (position i + K holds
    coordinate i).  The elements are built only when read, within
    `DEFAULT_CAP`."""

    __slots__ = ("window", "free")

    @property
    def order(self):
        return self.window.p ** len(self.free)

    def __contains__(self, digits):
        return all(d == 0 or i in self.free for i, d in enumerate(digits))

    def _meet(self, other):
        if isinstance(other, CoordinateImage):
            return CoordinateImage(self.window, self.free & other.free)
        return None

    def project(self, K):
        """The image at level K <= this one's: the coordinates [-K, K]."""
        dst = self.window.level(K)
        drop = (self.window.length - dst.length) // 2
        free = frozenset(i - drop for i in self.free if 0 <= i - drop < dst.length)
        return CoordinateImage(dst, free)

    def conjugated(self, a):
        return self  # the lamp window is abelian

    @cached_attribute
    def elements(self):
        if self.order > DEFAULT_CAP:
            raise ResolutionError(f"coordinate image of order {self.order}", DEFAULT_CAP)
        p, vectors = self.window.p, [()]
        for i in range(self.window.length):
            digits = range(p) if i in self.free else (0,)
            vectors = [v + (d,) for v in vectors for d in digits]
        return frozenset(vectors)


class ShiftOpen(Value):
    """Compact open subgroup {(a, 0): a vanishes on the vanish set}."""

    __slots__ = ("p", "vanish")

    def contains(self, x):
        if x.shift != 0:
            return False
        a = x.lamp
        v = self.vanish
        if v.everything:
            return a.is_zero()
        if v.left is not None:
            if not a.left_tail_is_zero():
                return False
            lo = a.offset - len(a.left)
            if not a.vanishes_on(range(lo, v.left + 1)):
                return False
        if v.right is not None:
            if not a.right_tail_is_zero():
                return False
            hi = a.end + len(a.right)
            if not a.vanishes_on(range(v.right, hi + 1)):
                return False
        fin = v.fin
        if fin:
            lo, hi = min(fin), max(fin)
            if hi - lo + 1 == len(fin):
                # Contiguous, as every W(k) is: read as one slice.
                fin = range(lo, hi + 1)
        return a.vanishes_on(fin)

    def window_image(self, K):
        free = (i + K for i in range(-K, K + 1) if i not in self.vanish)
        return CoordinateImage(VectorWindow(self.p, 2 * K + 1), frozenset(free))

    def intersect(self, other):
        return ShiftOpen(self.p, self.vanish.union(other.vanish))

    def finest_level(self):
        """The largest |i| over the vanish set's finite positions and ray
        ends (0 if none): window images from that level on see all of U."""
        v = self.vanish
        ends = [i for i in (v.left, v.right) if i is not None]
        return max((abs(i) for i in (*v.fin, *ends)), default=0)

    def __le__(self, other):
        return other.vanish <= self.vanish


def w_subgroup(p, k):
    """The filtration subgroup W(k): lamps vanishing on [-k, k]."""
    return ShiftOpen(p, VanishSet.interval(-k, k))


def reference_open(p):
    """The full compact lamp group, the model's reference compact open."""
    return ShiftOpen(p, VanishSet.empty())


class TailZeroSet(Value):
    """Symbolic non-closed set: lamps whose tail on one side is zero.

    This is the shift model's U_-- (or U_++): the union of the backward
    translates of U_-.  It is dense in the lamp group but not closed, so it
    only ever exists as this tagged descriptor plus window images.  `side`
    is "left" or "right": which tail must vanish.
    """

    __slots__ = ("p", "side")

    def contains(self, x):
        lamp = x.lamp
        return x.shift == 0 and (
            lamp.left_tail_is_zero() if self.side == "left" else lamp.right_tail_is_zero())

    def window_image(self, K):
        return reference_open(self.p).window_image(K)


def _forward_union(v, step):
    """Union of v + i*step over i >= 0 (step > 0), in closed form."""
    if v.everything or v.left is not None:
        return VanishSet.make(everything=True)
    if v.is_empty():
        return v
    pieces = []
    if v.right is not None:
        pieces.append(v.right)
    if v.fin:
        lo, hi = min(v.fin), max(v.fin)
        if step == 1 or (set(range(lo, hi + 1)) <= v.fin and hi - lo + 1 >= step):
            pieces.append(lo)
        else:
            raise UnsupportedElementError("vanish set not contiguous enough for symbolic parts")
    return VanishSet.make(right=min(pieces))


def _mirror(v):
    if v.everything:
        return v
    return VanishSet.make(
        None if v.right is None else -v.right,
        {-i for i in v.fin},
        None if v.left is None else -v.left,
    )


def forward_vanish_union(v, m):
    """Union of v + i*m over i >= 0, for m of either sign."""
    if m == 0:
        return v
    if m > 0:
        return _forward_union(v, m)
    return _mirror(_forward_union(_mirror(v), -m))


def restrict_right(a, cutoff):
    """The sequence agreeing with `a` on [cutoff, inf), zero below."""
    end = max(cutoff, a.end)
    return EPSeq.make(a.p, ZERO, a.digits(cutoff, end), cutoff,
                      a.digits(end, end + len(a.right)))


def restrict_left(a, cutoff):
    """The sequence agreeing with `a` on (-inf, cutoff], zero above."""
    start = min(cutoff + 1, a.offset)
    return EPSeq.make(a.p, a.digits(start - len(a.left), start),
                      a.digits(start, cutoff + 1), start, ZERO)


class ShiftModel:
    """Model adapter: the one surface through which `tidy`, `limits`,
    `verify` and `cli` reach a model, shared by `LinearModel`.  Elements
    carry their own `mul`, `inv` and `is_identity`; g x g^-1 is
    `kernel.conjugate(g, x)`.

    - arithmetic: `identity`, `power(g, n)`, `proximity_level(x)`;
    - windows: `min_level`, `default_resolution`, `window(K)`,
      `in_reference(x)`, `project(x, K)`, `filtration(k)`, `reference()`;
    - oracles: `con_oracle(g, x)`, `par_oracle(g, x)`, and the window images
      `con_closure_image(g, K)`, `bco_image(g, K)`, `par_image(g, K)`,
      `rbco_image(g, v, K)`, `nub_image(g, K)`;
    - dynamics: `conj_open(U, g, i)`, `u_parts_symbolic(U, g)`,
      `split(x, U, g, parts)`, `adjust_to_contraction(t, U, g, parts)`,
      `tidy_candidates(g, K)`, `tidy_below_certificate(U, g, parts)`,
      `net_schedule(g, n_max)`;
    - defaults and syntax: `name`, `default_element()`,
      `default_subgroup(g)`, `scale_formula(g)`, `parse_element(text)`,
      `format_element(x)`, `parse_subgroup(text, g)`, `format_subgroup(U)`.
    """

    name = "shift"
    #: Smallest resolution with a meaningful (nontrivial) window group.
    min_level = 0
    #: Resolution at which the generic dynamics checks run by default.
    default_resolution = 3

    def __init__(self, p=2):
        if p > 7:
            raise InputError("shift model supports p <= 7")
        self.p = p

    # -- element arithmetic -------------------------------------------------

    @property
    def identity(self):
        return shift_identity(self.p)

    def power(self, g, n):
        return power(self.identity, g, n)

    def proximity_level(self, x):
        if x.is_identity():
            return INF_LEVEL
        if x.shift != 0:
            return -1
        s = x.lamp.min_abs_support()
        return s - 1

    # -- windows ------------------------------------------------------------

    def window(self, K):
        return VectorWindow(self.p, 2 * K + 1)

    def in_reference(self, x):
        return x.shift == 0

    def project(self, x, K):
        if x.shift != 0:
            raise UnsupportedElementError("element outside the reference compact open")
        return x.lamp.window(K)

    def filtration(self, k):
        return w_subgroup(self.p, k)

    def reference(self):
        return reference_open(self.p)

    # -- oracles ------------------------------------------------------------

    def con_oracle(self, g, x):
        """Exact membership of x in the contraction group of g."""
        if g.shift > 0:
            return x.shift == 0 and x.lamp.left_tail_is_zero()
        if g.shift < 0:
            return x.shift == 0 and x.lamp.right_tail_is_zero()
        return x.is_identity()

    def par_oracle(self, g, x):
        return True

    def con_closure_image(self, g, K):
        # con(g) is dense in the lamp group when g shifts: its closure is
        # the nub.
        return self.nub_image(g, K)

    def bco_image(self, g, K):
        return self.con_closure_image(g, K)

    def par_image(self, g, K):
        return self.reference().window_image(K)

    def rbco_image(self, g, v, K):
        if g.shift != 0:
            return self.reference().window_image(K)
        return self.filtration(v).window_image(K)

    def nub_image(self, g, K):
        """The full lamp window iff g actually shifts, else trivial (the
        image of W(K))."""
        sub = self.reference() if g.shift != 0 else self.filtration(K)
        return sub.window_image(K)

    # -- symbolic subgroup dynamics -----------------------------------------

    def conj_open(self, U, g, i):
        """f^i(U) for f = conjugation by g, as a vanish-set subgroup."""
        return ShiftOpen(self.p, U.vanish.translate(i * g.shift))

    def u_parts_symbolic(self, U, g):
        from tdlcw.tidy import UParts

        m = g.shift
        v = U.vanish
        if m == 0:
            return UParts(U, U, U, U, U)
        u_plus = ShiftOpen(self.p, forward_vanish_union(v, m))
        u_minus = ShiftOpen(self.p, forward_vanish_union(v, -m))
        zero_vanish = u_plus.vanish.union(u_minus.vanish)
        u_zero = ShiftOpen(self.p, zero_vanish)
        if v.is_empty():
            u_mm, u_pp = U, U
        else:
            # U_-- is the union of the translates of U_- (U_++ of U_+):
            # trivial when U_- is, else the lamps with one tail zero.
            left, right = ("left", "right") if m > 0 else ("right", "left")
            u_mm = u_minus if u_minus.vanish.everything else TailZeroSet(self.p, left)
            u_pp = u_plus if u_plus.vanish.everything else TailZeroSet(self.p, right)
        return UParts(u_plus, u_minus, u_zero, u_mm, u_pp)

    def split(self, x, U, g, parts):
        """Factor x = w_minus * w_plus with the factors in U_-/U_+."""
        if g.shift == 0:
            return x, self.identity
        if x.shift != 0 or not U.contains(x):
            raise ContainmentError("split input must lie in U", x)
        vm = parts.u_minus.vanish
        if vm.everything:
            return self.identity, x
        if vm.left is not None:
            w_minus_lamp = restrict_right(x.lamp, vm.left + 1)
        elif vm.right is not None:
            w_minus_lamp = restrict_left(x.lamp, vm.right - 1)
        else:
            return x, self.identity
        w_minus = ShiftElement(w_minus_lamp, 0)
        w_plus = w_minus.inv().mul(x)
        if not (parts.u_minus.contains(w_minus) and parts.u_plus.contains(w_plus)):
            raise UnsupportedElementError("interval split failed membership check")
        return w_minus, w_plus

    def adjust_to_contraction(self, t, U, g, parts):
        """U_0 is trivial for vanish-set subgroups once g really shifts, so
        t needs no adjustment; (t, v, adjusted) with v the split-off part."""
        ok = self.con_oracle(g.inv(), t)
        return t, self.identity, ok

    def tidy_candidates(self, g, K):
        if g.shift != 0:
            return [self.reference()]
        return [self.filtration(k) for k in range(K + 1)]

    def tidy_below_certificate(self, U, g, parts):
        """(True, reason) or (False, witness), decided exactly.

        For a shift by m > 0 and a vanish set V that is not empty, U_-
        vanishes on the union of the V - i m, i >= 0: everything when V has
        a right ray (then U_- and U_-- are trivial), else the left ray up to
        `bound`, which lies in V.  U_--, the lamps with zero left tail, meets
        U in U_- exactly when that ray lies in V; else a lamp outside V on
        it is the witness, searched for from bound - 2 down to the first
        position outside V or to the ray of V, then at bound - 1.  A shift
        by m < 0 is the mirror image.
        """
        m, v, vm = g.shift, U.vanish, parts.u_minus.vanish
        if m == 0 or v.is_empty():
            return True, "U is invariant under conjugation by g"
        if vm.everything:
            return True, "U_- and U_-- are trivial"
        side = 1
        if m < 0:
            side, v, vm = -1, _mirror(v), _mirror(vm)
        bound = vm.left
        end = v.left + 1 if v.left is not None else min(v.fin) - 1
        for i in [*range(bound - 2, min(bound - 2, end) - 1, -1), bound - 1]:
            if i not in v:
                return False, lamp_element(self.p, {side * i: 1})
        return True, "U_- equals U"

    def net_schedule(self, g, n_max):
        """Default shrinking schedule (n, W(n), lamp at n+1) for the shift."""
        if g.shift != 1:
            raise UnsupportedElementError(
                "the default schedule is defined for the unit shift"
            )
        return [
            (n, w_subgroup(self.p, n), lamp_element(self.p, {n + 1: 1}))
            for n in range(1, n_max + 1)
        ]

    # -- defaults and syntax ------------------------------------------------

    def default_element(self):
        return shift_generator(self.p, 1)

    def default_subgroup(self, g):
        return w_subgroup(self.p, 1)

    def scale_formula(self, g):
        """1: conjugation by any element preserves the lamp group, so every
        element is uniscalar."""
        return 1

    def parse_element(self, text):
        x = self.identity
        for token in text.split("*"):
            token = token.strip()
            if not token:
                continue
            try:
                x = x.mul(self._parse_token(token))
            except ValueError:
                raise InputError(f"cannot parse shift-model element {token!r}") from None
        return x

    def _parse_token(self, token):
        if token.startswith("shift:"):
            return shift_generator(self.p, int(token[len("shift:") :]))
        if token.startswith("lamp:"):
            body = token[len("lamp:") :]
            support = {}
            if body:
                for part in body.split(","):
                    i = int(part)
                    support[i] = (support.get(i, 0) + 1) % self.p
            return lamp_element(self.p, support)
        if token.startswith("lamp-ep:"):
            body = token[len("lamp-ep:") :]
            left_s, core_s, right_s = body.split("|")
            core_word, offset_s = core_s.split("@")
            seq = EPSeq.make(
                self.p,
                tuple(int(c) for c in left_s),
                tuple(int(c) for c in core_word),
                int(offset_s),
                tuple(int(c) for c in right_s),
            )
            return ShiftElement(seq, 0)
        raise InputError(f"cannot parse shift-model element {token!r}")

    def format_element(self, x):
        a = x.lamp
        parts = []
        if not a.is_zero():
            if a.left_tail_is_zero() and a.right_tail_is_zero():
                support = [
                    str(i)
                    for i, d in enumerate(a.core, a.offset)
                    for _ in range(d)
                ]
                parts.append("lamp:" + ",".join(support))
            else:
                left = "".join(str(d) for d in a.left)
                core = "".join(str(d) for d in a.core)
                right = "".join(str(d) for d in a.right)
                parts.append(f"lamp-ep:{left}|{core}@{a.offset}|{right}")
        if x.shift != 0 or not parts:
            parts.append(f"shift:{x.shift}")
        return "*".join(parts)

    def parse_subgroup(self, text, g):
        """`W:k`, the lamps vanishing on [-k, k]; `W:none`, the whole lamp
        group (vanishing nowhere); `W:all`, the trivial subgroup (vanishing
        everywhere).  g plays no part."""
        if text.startswith(("W:", "w:")):
            rest = text[2:]
            if rest.isdecimal():
                return w_subgroup(self.p, int(rest))
            if rest in ("none", "all"):
                return ShiftOpen(self.p, VanishSet.make(everything=rest == "all"))
        raise InputError(
            f"cannot parse shift-model subgroup {text!r} (use W:k, W:none or W:all)")

    def format_subgroup(self, U):
        v = U.vanish
        if v.everything:
            return "W:all"
        fin = sorted(v.fin)
        if v.left is None and v.right is None and not fin:
            return "W:none"
        if fin and v.left is None and v.right is None:
            lo, hi = fin[0], fin[-1]
            if fin == list(range(lo, hi + 1)) and lo == -hi:
                return f"W:{hi}"
        return f"vanish:{v.left},{fin},{v.right}"
