"""Canonical form and arithmetic of eventually periodic bi-infinite sequences.

The canonical-form property is the load-bearing one: any two constructions
of the same underlying function Z -> F_p must produce equal values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlcw.epseq import EPSeq
from tdlcw.shift import vanishes_on

primes = st.sampled_from([2, 3, 5, 7])


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
    assert vanishes_on(seq, EPSeq.from_support(2, {0: 1, 1: 1, 3: 1}))
    assert not vanishes_on(seq, EPSeq.from_support(2, {2: 1}))


# -- the byte form against a digit-by-digit oracle ---------------------------
#
# A spec is the raw (p, left, core, offset, right) given to `make`, digits
# any ints; `oracle` reads it by the coordinate semantics alone.


def oracle(spec, i):
    p, left, core, offset, right = spec
    if i < offset:
        return left[(i - offset) % len(left)] % p
    if i < offset + len(core):
        return core[i - offset] % p
    return right[(i - offset - len(core)) % len(right)] % p


@st.composite
def specs(draw, p=None):
    """Raw specs, a third each purely periodic (left = right, no core),
    with an empty core, and general; digits out of [0, p) on purpose."""
    p = p if p is not None else draw(primes)
    digits = st.integers(-p, 3 * p)
    word = st.lists(digits, min_size=1, max_size=4).map(tuple)
    kind = draw(st.sampled_from(["periodic", "empty-core", "general"]))
    left = draw(word)
    right = left if kind == "periodic" else draw(word)
    core = () if kind != "general" else tuple(draw(st.lists(digits, max_size=6)))
    return p, left, core, draw(st.integers(-8, 8)), right


def build(spec):
    return EPSeq.make(*spec)


def assert_canonical(seq):
    """`seq` equals `make` of its own digits and of a padded re-reading."""
    assert EPSeq.make(seq.p, tuple(seq.left), tuple(seq.core), seq.offset,
                      tuple(seq.right)) == seq
    assert padded_copy(seq, 2, 3, 1, 2) == seq


SPAN = range(-30, 31)


@settings(max_examples=300, deadline=None)
@given(spec=specs())
def test_make_reads_like_the_oracle(spec):
    seq = build(spec)
    assert all(seq.value_at(i) == oracle(spec, i) for i in SPAN)
    assert isinstance(seq.core, bytes)
    assert_canonical(seq)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_add_matches_oracle(data):
    a = data.draw(specs())
    b = data.draw(specs(p=a[0]))
    total = build(a).add(build(b))
    assert all(total.value_at(i) == (oracle(a, i) + oracle(b, i)) % a[0]
               for i in SPAN)
    assert_canonical(total)


@settings(max_examples=300, deadline=None)
@given(spec=specs())
def test_neg_matches_oracle(spec):
    negated = build(spec).neg()
    assert all(negated.value_at(i) == -oracle(spec, i) % spec[0] for i in SPAN)
    assert_canonical(negated)


@settings(max_examples=300, deadline=None)
@given(spec=specs(), m=st.integers(-9, 9))
def test_shift_matches_oracle(spec, m):
    shifted = build(spec).shift(m)
    assert all(shifted.value_at(i) == oracle(spec, i - m) for i in range(-21, 22))
    assert_canonical(shifted)


@settings(max_examples=300, deadline=None)
@given(spec=specs(), a=st.integers(-30, 30), n=st.integers(-2, 20))
def test_digits_match_oracle(spec, a, n):
    # Many of these ranges lie wholly in one tail, some are empty.
    got = build(spec).digits(a, a + n)
    assert got == bytes(oracle(spec, i) for i in range(a, a + n))


@settings(max_examples=300, deadline=None)
@given(spec=specs(), a=st.integers(-20, 20), n=st.integers(0, 12),
       k=st.integers(0, 10), points=st.sets(st.integers(-20, 20), max_size=4))
def test_readers_match_oracle(spec, a, n, k, points):
    seq = build(spec)
    for positions in (range(a, a + n), points):
        indicator = EPSeq.from_support(2, dict.fromkeys(positions, 1))
        assert vanishes_on(seq, indicator) == all(oracle(spec, i) == 0 for i in positions)
    assert seq.window(k) == tuple(oracle(spec, i) for i in range(-k, k + 1))
    support = [abs(i) for i in range(-40, 41) if oracle(spec, i)]
    assert seq.min_abs_support() == (min(support) if support else None)


@settings(max_examples=300, deadline=None)
@given(spec=specs())
def test_reflect_matches_oracle(spec):
    reflected = build(spec).reflect()
    assert all(reflected.value_at(i) == oracle(spec, -i) for i in SPAN)
    assert_canonical(reflected)
    assert reflected.reflect() == build(spec)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_combine_reads_both_sequences_at_each_position(data):
    # The union of two indicator sequences over F_2: or on aligned strings.
    a = data.draw(specs(p=2))
    b = data.draw(specs(p=2))
    union = build(a).combine(build(b), int.__or__)
    assert all(union.value_at(i) == oracle(a, i) | oracle(b, i) for i in SPAN)
    assert_canonical(union)


def test_primes_above_127_are_rejected():
    for make in (lambda: EPSeq.make(128, (0,), (1,), 0, (0,)),
                 lambda: EPSeq.zero(128),
                 lambda: EPSeq.from_support(128, {0: 1})):
        with pytest.raises(ValueError, match="127"):
            make()
    assert EPSeq.make(127, (126,), (), 0, (1,)).add(
        EPSeq.make(127, (126,), (), 0, (1,))).value_at(-1) == 125
