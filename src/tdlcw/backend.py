"""Enumerations over a window group's own `mul` and `inv`.

Breadth-first `closure` builds matrix-window subgroups, `product_set` names
the witness when a product check fails, coset by coset, and both serve as
oracles that the tests hold the structural shortcuts in `tdlcw.kernel` to.
"""

from __future__ import annotations

#: Kernel name, reported in the environment header of `perfbench` runs.
BACKEND_NAME = "pure"


def closure(window, gens, cap):
    """Smallest subgroup of `window` containing `gens`, as a set of elements.

    Raises `kernel.ResolutionError` when the closure grows past `cap`
    elements.
    """
    mul = window.mul
    one = window.identity
    seen = {one}
    gens = sorted(set(gens) | {window.inv(g) for g in gens})
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if len(seen) > cap:
            # Imported here: the kernel imports this module.
            from tdlcw.kernel import ResolutionError
            raise ResolutionError(f"closure exceeded cap {cap}", cap)
        frontier = nxt
    return seen


def product_set(window, codes_a, codes_b):
    """The set {a*b : a in A, b in B}, for a subgroup B.

    AB is the union of the cosets aB, and aB = a'B once a lies in a'B, so
    a coset is formed only for an a not yet covered: |AB| products, not
    |A||B|.
    """
    mul = window.mul
    out = set()
    for a in codes_a:
        if a not in out:
            out.update(mul(a, b) for b in codes_b)
    return out
