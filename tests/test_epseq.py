"""Canonical form and arithmetic of eventually periodic bi-infinite sequences.

The canonical-form property is the load-bearing one: any two constructions
of the same underlying function Z -> F_p must produce equal dataclasses.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tdlcw.epseq import EPSeq

primes = st.sampled_from([2, 3, 5])


@st.composite
def sequences(draw, p=None):
    p = p if p is not None else draw(primes)
    left = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    right = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    core = draw(st.lists(st.integers(0, p - 1), max_size=6))
    offset = draw(st.integers(-8, 8))
    return EPSeq.make(p, tuple(left), tuple(core), offset, tuple(right))


def padded_copy(seq, pad_left, pad_right, rot_left, rot_right):
    """The same function re-represented with expanded tails and a fat core."""
    l, r = seq.left, seq.right
    ll = len(l) * (1 + rot_left % 3)
    rl = len(r) * (1 + rot_right % 3)
    lo = seq.offset - pad_left
    hi = seq.end + pad_right
    left = tuple(seq.value_at(lo - ll + j) for j in range(ll))
    core = tuple(seq.value_at(i) for i in range(lo, hi))
    right = tuple(seq.value_at(hi + j) for j in range(rl))
    return EPSeq.make(seq.p, left, core, lo, right)


@settings(max_examples=300, deadline=None)
@given(seq=sequences(), pads=st.tuples(*[st.integers(0, 5)] * 4))
def test_canonical_form_is_representation_independent(seq, pads):
    other = padded_copy(seq, *pads)
    assert other == seq
    for i in range(-12, 13):
        assert other.value_at(i) == seq.value_at(i)


@settings(max_examples=200, deadline=None)
@given(a=sequences(p=3), b=sequences(p=3))
def test_addition_is_pointwise(a, b):
    c = a.add(b)
    for i in range(-15, 16):
        assert c.value_at(i) == (a.value_at(i) + b.value_at(i)) % 3


@st.composite
def unequal_tail_pairs(draw):
    """Two sequences over one prime whose left and right tail periods
    differ (each drawn from 1..5, then forced apart), offsets far apart."""
    p = draw(primes)
    digits = st.integers(0, p - 1)

    def seq(left_len, right_len):
        return EPSeq.make(
            p,
            tuple(draw(st.lists(digits, min_size=left_len, max_size=left_len))),
            tuple(draw(st.lists(digits, max_size=8))),
            draw(st.integers(-12, 12)),
            tuple(draw(st.lists(digits, min_size=right_len, max_size=right_len))),
        )

    la, ra = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lb = draw(st.integers(1, 5).filter(lambda n: n != la))
    rb = draw(st.integers(1, 5).filter(lambda n: n != ra))
    return seq(la, ra), seq(lb, rb)


@settings(max_examples=300, deadline=None)
@given(pair=unequal_tail_pairs())
def test_addition_matches_digitwise_oracle(pair):
    a, b = pair
    p = a.p
    zero = EPSeq.zero(p)
    for x, y in ((a, b), (b, a), (a, zero), (zero, b), (zero, zero)):
        total = x.add(y)
        lo = min(x.offset, y.offset) - 40
        hi = max(x.end, y.end) + 40
        for i in range(lo, hi):
            assert total.value_at(i) == (x.value_at(i) + y.value_at(i)) % p
        # The sum is canonical: rebuilding it digit by digit gives equal data.
        assert total == padded_copy(total, 2, 3, 1, 2)
    assert a.add(zero) == a and zero.add(b) == b


@settings(max_examples=200, deadline=None)
@given(seq=sequences())
def test_negation_inverts(seq):
    assert seq.add(seq.neg()) == EPSeq.zero(seq.p)


@settings(max_examples=200, deadline=None)
@given(seq=sequences(), m=st.integers(-6, 6))
def test_shift_semantics_and_roundtrip(seq, m):
    shifted = seq.shift(m)
    for i in range(-12, 13):
        assert shifted.value_at(i) == seq.value_at(i - m)
    assert shifted.shift(-m) == seq


def test_step_sequence_distinguishes_shifts():
    # The indicator of [0, inf) moves under shifting; purely periodic
    # canonicalization must not erase its boundary.
    step = EPSeq.make(2, (0,), (), 0, (1,))
    assert step.shift(1) != step
    assert step.value_at(0) == 1 and step.value_at(-1) == 0
    assert step.shift(1).value_at(0) == 0


def test_purely_periodic_sequences_forget_the_boundary():
    # Both represent the all-even indicator ...1,0,1,0,1... with different
    # boundary placements and phases.
    a = EPSeq.make(2, (1, 0), (), 4, (1, 0))
    b = EPSeq.make(2, (0, 1), (), 1, (0, 1))
    assert a == b
    assert a.offset == 0
    # Constant sequences shift to themselves.
    ones = EPSeq.make(3, (1,), (), 5, (1,))
    assert ones.shift(2) == ones


def test_from_support():
    seq = EPSeq.from_support(2, {-3: 1, 0: 1, 5: 1})
    assert [i for i in range(-10, 11) if seq.value_at(i)] == [-3, 0, 5]
    assert seq.left_tail_is_zero() and seq.right_tail_is_zero()
    assert EPSeq.from_support(3, {4: 3}) == EPSeq.zero(3)


def test_min_abs_support():
    assert EPSeq.zero(2).min_abs_support() is None
    assert EPSeq.from_support(2, {3: 1}).min_abs_support() == 3
    assert EPSeq.from_support(2, {-2: 1, 7: 1}).min_abs_support() == 2
    tail = EPSeq.make(2, (0,), (), 5, (1, 0))
    assert tail.min_abs_support() == 5


def test_window_and_vanishes_on():
    seq = EPSeq.from_support(2, {-1: 1, 2: 1})
    assert seq.window(2) == (0, 1, 0, 0, 1)
    assert seq.vanishes_on([0, 1, 3])
    assert not seq.vanishes_on([2])
