"""Brute-force oracles over a window group's own `mul` and `inv`.

Breadth-first `closure` builds matrix-window subgroups, `product_set` names
the witness when a product check fails, and both serve as the oracles that
the tests hold the structural shortcuts in `tdlcw.kernel` to.
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
    """The set {a*b : a in A, b in B}."""
    mul = window.mul
    return {mul(a, b) for a in codes_a for b in codes_b}
