"""Enumeration kernel for the window groups.

Elements are packed integer codes.  A window descriptor is a tuple:

    ("vec", p, length)     -- additive F_p^length, code = sum d_i * p**i
    ("mat", n, p, p**K)    -- GL_n(Z/p^K), row-major entries in base p**K

Breadth-first `closure` builds matrix-window subgroups, `product_set` names
the witness when a product check fails, and both serve as the brute-force
oracles that the tests hold the structural shortcuts in `tdlcw.kernel` to.
"""

from __future__ import annotations

#: Kernel name, reported in the environment header of `perfbench` runs.
BACKEND_NAME = "pure"


def _vec_decode(code, p, length):
    out = []
    for _ in range(length):
        code, d = divmod(code, p)
        out.append(d)
    return out


def _vec_encode(digits, p):
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _mat_decode(code, n, m):
    out = []
    for _ in range(n * n):
        code, d = divmod(code, m)
        out.append(d)
    return out


def _mat_encode(entries, m):
    code = 0
    for e in reversed(entries):
        code = code * m + e
    return code


def mul(desc, a, b):
    if desc[0] == "vec":
        _, p, length = desc
        da = _vec_decode(a, p, length)
        db = _vec_decode(b, p, length)
        return _vec_encode([(x + y) % p for x, y in zip(da, db)], p)
    _, n, _p, m = desc
    da = _mat_decode(a, n, m)
    db = _mat_decode(b, n, m)
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                s += da[i * n + k] * db[k * n + j]
            out[i * n + j] = s % m
    return _mat_encode(out, m)


def inv(desc, a):
    if desc[0] == "vec":
        _, p, length = desc
        return _vec_encode([(-d) % p for d in _vec_decode(a, p, length)], p)
    _, n, p, m = desc
    e = _mat_decode(a, n, m)
    if n == 1:
        det = e[0] % m
        return _mat_encode([pow(det, -1, m)], m)
    if n == 2:
        det = (e[0] * e[3] - e[1] * e[2]) % m
        dinv = pow(det, -1, m)
        out = [e[3] * dinv, -e[1] * dinv, -e[2] * dinv, e[0] * dinv]
        return _mat_encode([x % m for x in out], m)
    if n == 3:
        a00, a01, a02, a10, a11, a12, a20, a21, a22 = e
        c00 = a11 * a22 - a12 * a21
        c01 = a12 * a20 - a10 * a22
        c02 = a10 * a21 - a11 * a20
        det = (a00 * c00 + a01 * c01 + a02 * c02) % m
        dinv = pow(det, -1, m)
        adj = [
            c00, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11,
            c01, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12,
            c02, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10,
        ]
        return _mat_encode([(x * dinv) % m for x in adj], m)
    raise ValueError(f"unsupported matrix size n={n}")


def identity(desc):
    if desc[0] == "vec":
        return 0
    _, n, _p, m = desc
    # 1 % m: at m = 1 (K = 0) every entry is 0 and the window is trivial.
    return _mat_encode([1 % m if i % (n + 1) == 0 else 0 for i in range(n * n)], m)


def closure(desc, gens, cap):
    """Smallest subgroup containing `gens`, as a set of codes.

    Raises ValueError when the closure grows past `cap` elements.
    """
    one = identity(desc)
    seen = {one}
    gens = sorted(set(gens) | {inv(desc, g) for g in gens})
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(desc, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if len(seen) > cap:
            raise ValueError(f"closure exceeded cap {cap}")
        frontier = nxt
    return seen


def product_set(desc, codes_a, codes_b):
    """The set {a*b : a in A, b in B}."""
    out = set()
    for a in codes_a:
        for b in codes_b:
            out.add(mul(desc, a, b))
    return out
