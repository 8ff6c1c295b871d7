"""Eventually periodic bi-infinite digit sequences over F_p.

These are the exact lamp configurations of the shift model: a periodic left
tail, a finite core, and a periodic right tail.  They form a subgroup of
F_p^Z closed under addition and shifting, and are dense in the compact
group, so every window pattern is reachable.

Coordinate semantics for ``EPSeq(p, left, core, offset, right)``::

    i <  offset               -> left[(i - offset) % len(left)]
    offset <= i < offset+|c|  -> core[i - offset]
    i >= offset + |core|      -> right[(i - offset - |core|) % len(right)]

Representation: ``left``, ``core`` and ``right`` are ``bytes``, one digit
per byte, so digit arithmetic runs in bulk.  Two aligned digit strings add
as two big integers: every digit is below p, so for p <= 127 each digit sum
is below 256 and no carry crosses a byte; the sum is read back with
``int.to_bytes`` and reduced mod p by ``bytes.translate`` with a per-p
table.  Negation is one ``translate``.  That is why p > 127 is rejected.

Canonical form (enforced by :meth:`EPSeq.make`): primitive tail periods,
a core that neither starts with the continuation of the left tail nor ends
with that of the right tail, with an empty core the boundary slid as far
left as the tails agree, and a purely periodic sequence stored with equal
tails, an empty core and offset 0.  Equal sequences therefore have equal
fields, so value equality (`kernel.Value`) is sequence equality.  Negation
permutes F_p and a shift only moves the offset, so both keep the form
without re-canonicalising; only the period of a purely periodic sequence
rotates under a shift.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from tdlcw.kernel import InputError, Value, WindowMismatchError

ZERO = b"\0"


@cache
def _tables(p):
    """The translate tables of F_p: reduction of any byte mod p, and
    negation of a reduced digit."""
    return (bytes(i % p for i in range(256)),
            bytes(-i % p for i in range(256)))


def _primitive(word):
    """The shortest prefix of `word` whose repetition is `word`."""
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word[:n - d] == word[d:]:
            return word[:d]
    return word


def _cycle(word, phase, n):
    """n digits of the periodic word repeated, from index `phase` of it."""
    return (word * ((phase + n) // len(word) + 1))[phase:phase + n]


def _word(w, p, reduce):
    """The digit word w mod p as bytes."""
    return w.translate(reduce) if isinstance(w, bytes) else bytes(d % p for d in w)


def _rotate(word, k):
    """The word read from index k % len(word)."""
    k %= len(word)
    return word[k:] + word[:k] if k else word


def _lead(word, tail):
    """Length of the run at the start of `word` that continues the periodic
    `tail` read from its first digit."""
    if len(tail) == 1:
        return len(word) - len(word.lstrip(tail))
    x = int.from_bytes(word, "big") ^ int.from_bytes(_cycle(tail, 0, len(word)), "big")
    return len(word) - (x.bit_length() + 7) // 8


def _trail(word, tail):
    """Length of the run at the end of `word` that continues the periodic
    `tail` read backwards from its last digit."""
    if len(tail) == 1:
        return len(word) - len(word.rstrip(tail))
    n = len(word)
    x = int.from_bytes(word, "little") ^ int.from_bytes(_cycle(tail, -n % len(tail), n), "little")
    return n - (x.bit_length() + 7) // 8


class EPSeq(Value):
    __slots__ = ("p", "left", "core", "offset", "right")

    @classmethod
    def make(cls, p, left, core, offset, right):
        """The canonical sequence from digit words given as bytes or as any
        iterables of ints, each digit taken mod p."""
        if p < 2:
            raise InputError("p must be at least 2")
        if p > 127:
            raise InputError("p must be at most 127: digit sums must fit in a byte")
        reduce = _tables(p)[0]
        left = _primitive(_word(left, p, reduce) or ZERO)
        right = _primitive(_word(right, p, reduce) or ZERO)
        core = _word(core, p, reduce)
        if core:
            # Cut the run that continues the left tail off the front of the
            # core, and the run that continues the right tail off its end.
            j = _lead(core, left)
            if j:
                left, core, offset = _rotate(left, j), core[j:], offset + j
            k = _trail(core, right)
            if k:
                core, right = core[:len(core) - k], _rotate(right, -k)
        if not core:
            # Only the tail boundary at `offset` remains: slide it left while
            # the tails agree across it.  If they agree over a common period
            # the sequence is purely periodic and the boundary is immaterial.
            m = lcm(len(left), len(right))
            k = _trail(left * (m // len(left)), right)
            if k == m:
                period = _rotate(left, -offset)
                return cls(p, period, b"", 0, period)
            if k:
                left, offset, right = _rotate(left, -k), offset - k, _rotate(right, -k)
        return cls(p, left, core, offset, right)

    @classmethod
    def zero(cls, p):
        return cls.make(p, ZERO, b"", 0, ZERO)

    @classmethod
    def from_support(cls, p, support):
        """Finitely supported sequence from a {position: digit} mapping."""
        support = {i: d % p for i, d in support.items() if d % p}
        if not support:
            return cls.zero(p)
        lo, hi = min(support), max(support)
        core = bytes(support.get(i, 0) for i in range(lo, hi + 1))
        return cls.make(p, ZERO, core, lo, ZERO)

    @property
    def end(self):
        return self.offset + len(self.core)

    def value_at(self, i):
        if i < self.offset:
            return self.left[(i - self.offset) % len(self.left)]
        if i < self.end:
            return self.core[i - self.offset]
        return self.right[(i - self.end) % len(self.right)]

    def digits(self, start, stop):
        """The digits at start..stop-1, one per byte."""
        offset, end = self.offset, self.end
        out = b""
        if start < offset:
            top = min(stop, offset)
            out = _cycle(self.left, (start - offset) % len(self.left), top - start)
        if start < end and stop > offset:
            out += self.core[max(start, offset) - offset:min(stop, end) - offset]
        if stop > end:
            lo = max(start, end)
            out += _cycle(self.right, (lo - end) % len(self.right), stop - lo)
        return out

    def is_zero(self):
        return not self.core and self.left == ZERO and self.right == ZERO

    def left_tail_is_zero(self):
        return self.left == ZERO

    def right_tail_is_zero(self):
        return self.right == ZERO

    def add(self, other):
        if self.p != other.p:
            raise WindowMismatchError("prime mismatch")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        # Digits are below p <= 127, so no byte of the sum carries.
        if self.left == self.right == other.left == other.right == ZERO:
            return self._add_finite(other)
        return self.combine(other, int.__add__)

    def _add_finite(self, other):
        """`add` of two finitely supported sequences: their cores, aligned
        at the larger end, add as one integer, reduced mod p, with the
        zeros at either end cut off."""
        lo, hi = min(self.offset, other.offset), max(self.end, other.end)
        total = ((int.from_bytes(self.core, "big") << 8 * (hi - self.end))
                 + (int.from_bytes(other.core, "big") << 8 * (hi - other.end)))
        digits = total.to_bytes(hi - lo, "big").translate(_tables(self.p)[0])
        core = digits.lstrip(ZERO)
        offset = lo + len(digits) - len(core)
        core = core.rstrip(ZERO)
        return EPSeq(self.p, ZERO, core, offset if core else 0, ZERO)

    def combine(self, other, op):
        """The sequence over F_p, p = self.p, whose digits are op of the
        digits of self and other at each position, reduced mod p.  op acts
        on the aligned digit strings read as big-endian integers, one digit
        per byte, and must not carry across bytes: `add` is `int.__add__`,
        a union of indicator sequences over F_2 is `int.__or__`."""
        lo = min(self.offset, other.offset)
        hi = max(self.end, other.end)
        ll = lcm(len(self.left), len(other.left))
        rl = lcm(len(self.right), len(other.right))
        a, b = self._digits(lo - ll, hi + rl), other._digits(lo - ll, hi + rl)
        s = op(int.from_bytes(a, "big"), int.from_bytes(b, "big")).to_bytes(len(a), "big")
        return EPSeq.make(self.p, s[:ll], s[ll:ll + hi - lo], lo, s[ll + hi - lo:])

    def _digits(self, start, stop):
        """The digits at start..stop-1, for start <= offset and stop >= end:
        both tails repeated out from the core, then sliced."""
        left, right = self.left, self.right
        nl, nr = self.offset - start, stop - self.end
        return ((left * (nl // len(left) + 1))[len(left) - nl % len(left):]
                + self.core + (right * (nr // len(right) + 1))[:nr])

    def neg(self):
        negate = _tables(self.p)[1]
        return EPSeq(self.p, self.left.translate(negate), self.core.translate(negate),
                     self.offset, self.right.translate(negate))

    def shift(self, m):
        """sigma^m: the shifted sequence has value_at(i) = self.value_at(i-m)."""
        if m == 0:
            return self
        if not self.core and self.left == self.right:
            # Purely periodic: there is no boundary to move; the period rotates.
            if len(self.left) == 1:
                return self
            period = _rotate(self.left, -m)
            return EPSeq(self.p, period, b"", 0, period)
        return EPSeq(self.p, self.left, self.core, self.offset + m, self.right)

    def reflect(self):
        """The mirror image: value_at(i) of the result is self.value_at(-i)."""
        return EPSeq.make(self.p, self.right[::-1], self.core[::-1], 1 - self.end,
                          self.left[::-1])

    def min_abs_support(self):
        """Smallest |i| with a nonzero digit, or None for the zero sequence."""
        if self.is_zero():
            return None
        bound = max(abs(self.offset), abs(self.end)) + len(self.left) + len(self.right) + 1
        upward = self.digits(0, bound + 1)
        downward = self.digits(-bound, 1)[::-1]
        return min(len(w) - len(w.lstrip(ZERO)) for w in (upward, downward))

    def window(self, k):
        """Digit tuple on [-k, k]."""
        return tuple(self.digits(-k, k + 1))
