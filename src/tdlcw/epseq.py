"""Eventually periodic bi-infinite digit sequences over F_p.

These are the exact lamp configurations of the shift model: a periodic left
tail, a finite core, and a periodic right tail.  They form a subgroup of
F_p^Z closed under addition and shifting, and are dense in the compact
group, so every window pattern is reachable.

Coordinate semantics for ``EPSeq(p, left, core, offset, right)``::

    i <  offset               -> left[(i - offset) % len(left)]
    offset <= i < offset+|c|  -> core[i - offset]
    i >= offset + |core|      -> right[(i - offset - |core|) % len(right)]

Canonical form (enforced by :meth:`EPSeq.make`): primitive tail periods,
core minimal on both ends, and offset 0 whenever the core is empty.  Equal
sequences therefore compare equal as dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm


def _primitive(word):
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and all(word[i] == word[i % d] for i in range(n)):
            return tuple(word[:d])
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class EPSeq:
    p: int
    left: tuple
    core: tuple
    offset: int
    right: tuple

    @classmethod
    def make(cls, p, left, core, offset, right):
        if p < 2:
            raise ValueError("p must be at least 2")
        left = tuple(d % p for d in left) or (0,)
        right = tuple(d % p for d in right) or (0,)
        core = tuple(d % p for d in core)
        left = _primitive(left)
        right = _primitive(right)
        changed = True
        while changed and core:
            changed = False
            if core and core[0] == left[0]:
                left = left[1:] + left[:1]
                core = core[1:]
                offset += 1
                changed = True
            if core and core[-1] == right[-1]:
                right = right[-1:] + right[:-1]
                core = core[:-1]
                changed = True
        if not core:
            # Only the tail boundary at `offset` remains; canonicalize by
            # sliding it left while the patterns agree across it.  If it
            # slides through a full common period the sequence is purely
            # periodic and the boundary is immaterial.
            steps = lcm(len(left), len(right))
            slid = 0
            while slid < steps and left[-1] == right[-1]:
                left = left[-1:] + left[:-1]
                right = right[-1:] + right[:-1]
                offset -= 1
                slid += 1
            if slid == steps and left[-1] == right[-1]:
                period = _primitive(
                    tuple(left[(j - offset - slid) % len(left)] for j in range(len(left)))
                )
                return cls(p, period, (), 0, period)
            left = _primitive(left)
            right = _primitive(right)
        return cls(p, left, core, offset, right)

    @classmethod
    def zero(cls, p):
        return cls.make(p, (0,), (), 0, (0,))

    @classmethod
    def from_support(cls, p, support):
        """Finitely supported sequence from a {position: digit} mapping."""
        support = {i: d % p for i, d in support.items() if d % p}
        if not support:
            return cls.zero(p)
        lo, hi = min(support), max(support)
        core = tuple(support.get(i, 0) for i in range(lo, hi + 1))
        return cls.make(p, (0,), core, lo, (0,))

    @property
    def end(self):
        return self.offset + len(self.core)

    def value_at(self, i):
        if i < self.offset:
            return self.left[(i - self.offset) % len(self.left)]
        if i < self.end:
            return self.core[i - self.offset]
        return self.right[(i - self.end) % len(self.right)]

    def is_zero(self):
        return not self.core and self.left == (0,) and self.right == (0,)

    def left_tail_is_zero(self):
        return self.left == (0,)

    def right_tail_is_zero(self):
        return self.right == (0,)

    def add(self, other):
        if self.p != other.p:
            raise ValueError("prime mismatch")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        lo = min(self.offset, other.offset)
        hi = max(self.end, other.end)
        ll = lcm(len(self.left), len(other.left))
        rl = lcm(len(self.right), len(other.right))
        a, b = self._digits(lo - ll, hi + rl), other._digits(lo - ll, hi + rl)
        s = tuple(x + y for x, y in zip(a, b))
        return EPSeq.make(self.p, s[:ll], s[ll:ll + hi - lo], lo, s[ll + hi - lo:])

    def _digits(self, start, stop):
        """The digits at start..stop-1, for start <= offset and stop >= end:
        both tails repeated out from the core, then sliced."""
        left, right = self.left, self.right
        nl, nr = self.offset - start, stop - self.end
        return ((left * (nl // len(left) + 1))[len(left) - nl % len(left):]
                + self.core + (right * (nr // len(right) + 1))[:nr])

    def neg(self):
        return EPSeq.make(
            self.p,
            tuple(-d for d in self.left),
            tuple(-d for d in self.core),
            self.offset,
            tuple(-d for d in self.right),
        )

    def shift(self, m):
        """sigma^m: the shifted sequence has value_at(i) = self.value_at(i-m)."""
        if m == 0 or self.is_zero():
            return self
        return EPSeq.make(self.p, self.left, self.core, self.offset + m, self.right)

    def min_abs_support(self):
        """Smallest |i| with a nonzero digit, or None for the zero sequence."""
        if self.is_zero():
            return None
        bound = max(abs(self.offset), abs(self.end)) + len(self.left) + len(self.right) + 1
        for a in range(bound + 1):
            if self.value_at(a) or self.value_at(-a):
                return a
        raise AssertionError("nonzero sequence with no support near zero")

    def window(self, k):
        """Digit tuple on [-k, k]."""
        return tuple(self.value_at(i) for i in range(-k, k + 1))

    def vanishes_on(self, positions):
        return all(self.value_at(i) == 0 for i in positions)
