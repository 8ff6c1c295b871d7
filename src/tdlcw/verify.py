"""Global checks: Tits-core window images, quotient anisotropy, and a
constructive normal-closure witness in the shift model.

The Tits core is the group generated by the closures of all contraction
groups; here it is the window image generated by the con-closure images of
a finite schedule: the largest of them when it holds all the others, as on
the shift model, else the closure of their elements.  The anisotropy check
relates triviality of contraction groups in a quotient G/N to the
Tits-core image sitting inside N, whose normality is decided from what N
is: the kernel of x -> x.shift, or N = 1.  The witness construction
expresses a finitely supported lamp element as a product of two conjugates
of the shift, certifying membership in every normal subgroup containing the
shift.
"""

from __future__ import annotations

from itertools import accumulate

from tdlcw.epseq import ZERO, EPSeq
from tdlcw.kernel import UnsupportedElementError, Value, subgroup_closure
from tdlcw.shift import ShiftElement, shift_generator


def tits_core_image(model, K, schedule):
    """Subgroup image generated by the con-closure images of the schedule:
    the largest of them when it holds all the others, else the closure of
    their generators."""
    images = [model.con_closure_image(g, K) for g in schedule]
    top = max(images, key=lambda im: im.order, default=None)
    if top is not None and all(im <= top for im in images):
        return top
    gens = set().union(*(im.generators for im in images))
    return subgroup_closure(model.window(K), sorted(gens))


class QuotientDescriptor(Value):
    """A closed normal subgroup N with a computable quotient.

    Supported kinds: "lamp" (shift model; N = the full lamp subgroup, with
    quotient the discrete group of shift amounts) and "trivial" (any model;
    N = 1, quotient the group itself).
    """

    __slots__ = ("model", "kind")

    def __init__(self, model, kind):
        if kind not in ("lamp", "trivial"):
            raise UnsupportedElementError(f"unsupported quotient kind {kind!r}")
        if kind == "lamp" and model.name != "shift":
            raise UnsupportedElementError("the lamp quotient needs the shift model")
        super().__init__(model, kind)

    def n_image(self, K):
        """Window image of N at resolution K."""
        if self.kind == "trivial":
            return self.model.filtration(K).window_image(K)
        return self.model.reference().window_image(K)

    def quotient_con_trivial(self, g, K):
        """Is the contraction group of the image of g in G/N trivial?

        For the lamp quotient the image group is discrete, so every
        contraction group is trivial.  For the trivial quotient this is
        triviality in G itself, decided by the model oracle via the
        con-closure image at resolution K.
        """
        if self.kind == "lamp":
            return True
        return self.model.con_closure_image(g, K).order == 1

    def normal_check(self):
        """Normality of N, decided from what N is (the kernel of the
        homomorphism x -> x.shift, or 1); returns a report dict."""
        if self.kind == "lamp":
            return {"pass": True, "reason": "N is the kernel of x -> x.shift"}
        return {"pass": True, "reason": "N = {1}"}


def quotient_anisotropy_check(q, schedule, K):
    """Two checks on the quotient by N.

    (a) Pushforward identity per schedule element g: the image of
        con(g)N in G/N equals the contraction group of the image of g.
    (b) Equivalence: the Tits-core image lies in N's window image if and
        only if every quotient contraction group over the schedule is
        trivial.
    """
    model = q.model
    schedule = tuple(schedule)
    rows = []
    for g in schedule:
        if q.kind == "lamp":
            # con(g) consists of lamp-only elements, so con(g)N = N, whose
            # image in the discrete quotient is trivial; the image of g in
            # the discrete quotient has trivial contraction group.  Verify
            # the containment con(g) <= N at resolution K.
            con_image = model.con_closure_image(g, K)
            lhs_trivial = con_image <= q.n_image(K)
            rhs_trivial = q.quotient_con_trivial(g, K)
            ok = lhs_trivial and rhs_trivial
        else:
            # N = 1: the quotient map is the identity, so both sides are
            # con(g).  Its level-K image must be the projection of its
            # level-(K+1) image.
            lhs = model.con_closure_image(g, K)
            finer = model.con_closure_image(g, K + 1)
            ok = lhs == finer.project(K)
        rows.append({"element": g, "pushforward": ok})

    tits = tits_core_image(model, K, schedule)
    core_in_n = tits <= q.n_image(K)
    all_quotient_trivial = all(q.quotient_con_trivial(g, K) for g in schedule)
    return {
        "kind": q.kind,
        "resolution": K,
        "pushforward_rows": rows,
        "core_in_n": core_in_n,
        "quotient_con_trivial": all_quotient_trivial,
        "equivalence": core_in_n == all_quotient_trivial,
        "pass": all(r["pushforward"] for r in rows)
        and core_in_n == all_quotient_trivial,
    }


def normal_closure_witness(b):
    """Express the lamp element (b, 0) as a product of two conjugates of the
    shift and its inverse.

    For b with zero left tail, the telescoping partial sums
    a_i = sum_{m <= i} b_m give an eventually periodic sequence with
    a - sigma(a) = b, so that exactly

        ((a,0)(0,1)(a,0)^{-1}) (0,1)^{-1} = (b, 0).

    Returns (a, ok), where ok says whether the identity holds when replayed
    by exact multiplication.
    """
    if not isinstance(b, EPSeq):
        raise TypeError("expected an eventually periodic sequence")
    if not b.left_tail_is_zero():
        raise UnsupportedElementError(
            "partial-sum witness needs a zero left tail"
        )
    p = b.p
    # Partial sums are eventually periodic: over one right-tail period they
    # advance by the period sum, which has additive order dividing p.
    tail_period = len(b.right) * p
    lo = b.offset
    hi = b.end + tail_period
    sums = bytes(total % p for total in accumulate(b.digits(lo, hi + tail_period)))
    a = EPSeq.make(p, ZERO, sums[:hi - lo], lo, sums[hi - lo:])

    g = shift_generator(p, 1)
    a_elem = ShiftElement(a, 0)
    product = a_elem.mul(g, a_elem.inv(), g.inv())
    return a, product == ShiftElement(b, 0)
