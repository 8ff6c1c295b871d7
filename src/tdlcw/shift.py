"""The bilateral shift model: lamp configurations F_p^Z extended by a shift.

Elements are pairs (lamp, m) with the semidirect product law
(a, m)(b, n) = (a + sigma^m b, m + n), where sigma shifts a sequence one
step to the right.  Lamps are exact eventually periodic sequences, so all
group arithmetic is exact and the shift element has a dense, non-closed
contraction group with full nub -- the nub-rich half of the workbench.

Compact open subgroups are lamp-only subgroups cut out by requiring the
lamps to vanish on a set of positions, its "vanish set".  A vanish set is
eventually periodic, and is held as its indicator sequence: an `EPSeq`
over F_2 with a periodic left tail, a finite core and a periodic right
tail, whose canonical form makes equal sets equal values.  Translation is
`shift`, union `combine` with `int.__or__`, and the sets the parts U_+ and
U_- of (U, g) vanish on stay in the class.  The filtration is
B_k = W(k) = lamps vanishing on [-k, k].
"""

from __future__ import annotations

from math import lcm

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
    conjugate,
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


#: The vanish sets of the trivial subgroup (every position) and of the
#: whole lamp group (no position), as indicator sequences over F_2.
EVERYWHERE = EPSeq(2, b"\1", b"", 0, b"\1")
NOWHERE = EPSeq.zero(2)

#: The largest |m| of a shift by m whose parts `u_parts_symbolic` forms:
#: the closed forms read about 3|m| positions of a set, and the tidy-below
#: search about 2|m|.
PART_SHIFT_CAP = 4096


def vanishes_on(a, vanish):
    """Do the digits of the lamp a vanish at every position of the set?"""
    if a.left == ZERO == a.right:
        # Finitely supported: only the set's digits under the core matter.
        under = int.from_bytes(vanish.digits(a.offset, a.end), "big")
        return not int.from_bytes(a.core, "big") & under * 255
    return cleared(a, vanish) == a


def cleared(a, vanish):
    """The lamp a with its digits on the vanish set replaced by zero.  The
    set's 0/1 digits times 255 are a byte mask of it."""
    if a.left == ZERO == a.right:
        mask = int.from_bytes(vanish.digits(a.offset, a.end), "big") * 255
        core = int.from_bytes(a.core, "big") & ~mask
        return EPSeq.make(a.p, ZERO, core.to_bytes(len(a.core), "big"), a.offset, ZERO)
    return a.combine(vanish, lambda x, v: x & ~(v * 255))


def forward_union(v, m):
    """The union of the translates v + i*m over i >= 0, m != 0, in closed
    form.

    For m > 0, x lies in it iff v meets x - i*m for some i >= 0.  Below
    v's offset that depends on x only mod v's left period, so the union
    keeps it.  From end + m*len(right) on, the class of x mod m has passed
    every digit of v's right tail it meets, so the union has period m
    there.  In between, the classes are swept by doubling prefix ORs of
    the digits from (m + 1) left periods below the offset, where every
    class has met all of the left tail.  A shift by m < 0 is the mirror
    image.
    """
    if m < 0:
        return forward_union(v.reflect(), -m).reflect()
    lo, start = v.offset - len(v.left) * (m + 1), v.end + m * len(v.right)
    n = start + m - lo
    acc, step = int.from_bytes(v.digits(lo, start + m), "big"), m
    while step < n:
        acc |= acc >> 8 * step
        step *= 2
    s = acc.to_bytes(n, "big")
    return EPSeq.make(2, s[v.offset - len(v.left) - lo:v.offset - lo],
                      s[v.offset - lo:start - lo], v.offset, s[start - lo:])


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
    """Compact open subgroup {(a, 0): a vanishes on the vanish set}, the
    set an indicator sequence over F_2."""

    __slots__ = ("p", "vanish")

    def contains(self, x):
        return x.shift == 0 and vanishes_on(x.lamp, self.vanish)

    def window_image(self, K):
        free = (i for i, d in enumerate(self.vanish.digits(-K, K + 1)) if not d)
        return CoordinateImage(VectorWindow(self.p, 2 * K + 1), frozenset(free))

    def intersect(self, other):
        return ShiftOpen(self.p, self.vanish.combine(other.vanish, int.__or__))

    def finest_level(self):
        """The larger of |offset| and |end - 1| of the vanish set: outside
        [-K, K], for K at least that, the set only repeats its periodic
        tails, so window images from that level on see every position where
        U differs from the tails' continuation."""
        return max(abs(self.vanish.offset), abs(self.vanish.end - 1))

    def __le__(self, other):
        return self.intersect(other).vanish == self.vanish


def w_subgroup(p, k):
    """The filtration subgroup W(k), k >= 0: lamps vanishing on [-k, k]."""
    return ShiftOpen(p, EPSeq(2, ZERO, b"\1" * (2 * k + 1), -k, ZERO))


def reference_open(p):
    """The full compact lamp group, the model's reference compact open."""
    return ShiftOpen(p, NOWHERE)


class TranslateUnion(Value):
    """The union of the subgroups vanishing on vanish + j*step over
    j >= 0, for a set with vanish + step inside vanish, so that they
    increase with j: the shift model's U_-- (the vanish set S_- of U_-,
    step -m) and U_++ (S_+, step m).  It is in general dense in the lamp
    group but not closed, so it only exists as this descriptor.

    vanish + step inside vanish makes each class mod |step| meet the set
    in all of it, none of it or a ray along the step, so the set repeats
    with period |step| outside its core.  Once a translate's core has
    passed a lamp's, a later translate differs under the lamp only by its
    core's phase against the lamp's periodic tail, which recurs, and by a
    longer stretch of a periodic part the lamp must avoid already.  The
    lamp vanishes on vanish + j*step for some j, monotone in j, iff it
    does on that translate.
    """

    __slots__ = ("p", "vanish", "step")

    def _member(self, offset, end):
        """The member that decides a lamp with core [offset, end)."""
        v, step = self.vanish, self.step
        gap = v.end - offset if step < 0 else end - v.offset
        return ShiftOpen(self.p, v.shift(max(0, -(-gap // abs(step))) * step))

    def contains(self, x):
        return x.shift == 0 and self._member(x.lamp.offset, x.lamp.end).contains(x)

    def window_image(self, K):
        return self._member(-K, K + 1).window_image(K)


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
      `splitter(U, g, parts)`, `adjust_to_contraction(t, U, g, parts)`,
      `tidy_candidates(g, K)`, `tidy_below_certificate(U, g, parts)`,
      `net_schedule(g, n_max)`;
    - defaults and syntax: `name`, `default_element()`,
      `default_subgroup(g)`, `default_u(g, U, two_sided)` (the
      conjugator's perturbation), `scale_formula(g)`, `parse_element(text)`,
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
        return ShiftOpen(self.p, U.vanish.shift(i * g.shift))

    def u_parts_symbolic(self, U, g):
        from tdlcw.tidy import UParts

        m = g.shift
        if m == 0 or U.vanish == NOWHERE:
            return UParts(U, U, U, U, U)
        if abs(m) > PART_SHIFT_CAP:
            raise InputError(f"the parts of U for shift:{m} need |m| <= {PART_SHIFT_CAP}")
        # U_+ vanishes on the union of the V + i m, U_- on that of the V - i m;
        # U_-- and U_++ are the increasing unions of their translates.
        s_plus, s_minus = forward_union(U.vanish, m), forward_union(U.vanish, -m)
        u_plus, u_minus = ShiftOpen(self.p, s_plus), ShiftOpen(self.p, s_minus)
        u_zero = ShiftOpen(self.p, s_plus.combine(s_minus, int.__or__))
        u_mm, u_pp = TranslateUnion(self.p, s_minus, -m), TranslateUnion(self.p, s_plus, m)
        return UParts(u_plus, u_minus, u_zero, u_mm, u_pp)

    def splitter(self, U, g, parts):
        """The split x = w_minus * w_plus of x in U, with the factors in
        U_-/U_+, as a function of x: w_minus is x cleared on U_-'s vanish
        set."""
        if g.shift == 0:
            return lambda x: (x, self.identity)
        u_minus, u_plus = parts.u_minus, parts.u_plus

        def split(x):
            if x.shift != 0 or not U.contains(x):
                raise ContainmentError("split input must lie in U", x)
            w_minus = ShiftElement(cleared(x.lamp, u_minus.vanish), 0)
            w_plus = w_minus.inv().mul(x)
            if not (u_minus.contains(w_minus) and u_plus.contains(w_plus)):
                raise UnsupportedElementError("vanish-set split failed membership check")
            return w_minus, w_plus

        return split

    def adjust_to_contraction(self, t, U, g, parts):
        """(t, v, adjusted) with v = 1 split off: t is left as it is, and
        adjusted says whether it lies in con(g^-1), as a finitely supported
        t does.  U_0 is trivial when the translates of V by g leave no gaps."""
        ok = self.con_oracle(g.inv(), t)
        return t, self.identity, ok

    def tidy_candidates(self, g, K):
        if g.shift != 0:
            return [self.reference()]
        return [self.filtration(k) for k in range(K + 1)]

    def tidy_below_certificate(self, U, g, parts):
        """(True, reason) or (False, witness), decided exactly.

        For a shift by m > 0, U_- vanishes on S, the union of the V - i m
        over i >= 0, and U_-- is the union of the subgroups on the S - j m.
        A lamp of U and U_-- outside U_- has a nonzero digit at some x in
        S but not in V with x + j m outside S for some j, and the lamp at
        x is then a witness.  S - m lies in S, so each class mod m meets S
        in all of it, none of it or a ray; the class of x meets it in a ray
        iff S misses the class's first position from S's end on.  The
        witness is the largest such x below M - 1, else M - 1, for M the
        top of those rays, which lies in V.  Below the offsets of S and V
        both repeat, so the search stops a common period below them and
        M - 1.  A shift by m < 0 is the mirror image.
        """
        m, v, s = g.shift, U.vanish, parts.u_minus.vanish
        if m == 0 or v == NOWHERE:
            return True, "U is invariant under conjugation by g"
        if s == EVERYWHERE:
            return True, "U_- and U_-- are trivial"
        side = 1
        if m < 0:
            side, m, v, s = -1, -m, v.reflect(), s.reflect()

        def in_ray(x):
            return s.value_at(x) and not s.value_at(s.end + (x - s.end) % m)

        top = next((x for x in range(s.end - 1, s.offset - m - 1, -1) if in_ray(x)), None)
        if top is not None:
            lo = min(s.offset, v.offset, top - 1) - lcm(m, len(v.left))
            for x in [*range(top - 2, lo - 1, -1), top - 1]:
                if in_ray(x) and not v.value_at(x):
                    return False, lamp_element(self.p, {side * x: 1})
        return True, "U_-- meets U in U_-"

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

    def default_u(self, g, U, two_sided):
        """The lamp nearest position 2, the right one of two equally near,
        that lies in U, and in g^-1 U g for a two-sided trace; else the
        lamp at 2, whose hypothesis check then names what fails.

        Beyond `radius` of 2, a position and its translate by g's shift
        both lie past the core of U's vanish set on one side, where
        membership repeats with that side's tail period, so a lamp further
        out that qualifies has one nearer that does.  A shift past
        PART_SHIFT_CAP counts as the cap: the construction refuses it
        anyway."""
        vanish = U.vanish
        radius = (max(abs(vanish.offset - 2), abs(vanish.end - 2))
                  + max(len(vanish.left), len(vanish.right))
                  + (min(abs(g.shift), PART_SHIFT_CAP) if two_sided else 0))
        for d in range(radius + 1):
            for i in (2 + d, 2 - d):
                u = lamp_element(self.p, {i: 1})
                if U.contains(u) and (not two_sided or U.contains(conjugate(g, u))):
                    return u
        return lamp_element(self.p, {2: 1})

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
                return ShiftOpen(self.p, EVERYWHERE if rest == "all" else NOWHERE)
        raise InputError(
            f"cannot parse shift-model subgroup {text!r} (use W:k, W:none or W:all)")

    def format_subgroup(self, U):
        """`W:k`, `W:none` and `W:all` as `parse_subgroup` reads them; any
        other set made of rays and finitely many positions as
        `vanish:{left ray's end},{positions},{right ray's start}` (None for
        no ray); any set with a longer tail period as
        `vanish-ep:left|core@offset|right`, its digits as in `lamp-ep:`."""
        v = U.vanish
        if v == EVERYWHERE:
            return "W:all"
        if v == NOWHERE:
            return "W:none"
        if v.left == ZERO == v.right and v.core == b"\1" * (1 - 2 * v.offset):
            return f"W:{-v.offset}"
        if len(v.left) == len(v.right) == 1:
            fin = [i for i, d in enumerate(v.core, v.offset) if d]
            left = v.offset - 1 if v.left[0] else None
            return f"vanish:{left},{fin},{v.end if v.right[0] else None}"
        left, core, right = ("".join(map(str, w)) for w in (v.left, v.core, v.right))
        return f"vanish-ep:{left}|{core}@{v.offset}|{right}"
