"""Seeded workload generators and the output checks that gate them.

A workload is a list of CLI argv lists built from a seed; the program sees
only these generated inputs.  Each generator keeps the cost of a pass
nearly independent of the seed: the seed picks variants of equal cost
(the element u, the order of commands), never the number of commands,
their resolutions or horizons.

`check_output(argv, stdout)` returns the problems found in what one
command printed, using only facts derived here, independently of the
package under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

#: Horizon of every `conjugator` command.  With two-sided certificates the
#: cost grows faster than linearly in it, so it is fixed, not seeded.
HORIZON = 24

#: The `theorem-check` batteries, in the order `--which all` runs them.
BATTERIES = ["scale", "tidy-identities", "nub-characterizations",
             "transport", "normal-closure", "quotient-anisotropy",
             "tits-core", "limits"]


def _fmt(rows):
    return ";".join(",".join(str(e) for e in row) for row in rows)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


# -- workloads ----------------------------------------------------------------


def theorem_all(seed):
    """The ROADMAP headline command, `theorem-check --which all`, run one
    battery per command: all eight batteries over every layer L0-L4.  At
    the default resolution a pass takes 30-37 s, too long to repeat within
    a run on a host whose speed drifts by a third; at resolution 3 it takes
    about 8 s and closures still lead."""
    return [["theorem-check", "--which", name, "--seed", str(seed),
             "--resolution", "3"] for name in BATTERIES]


def _shift_u(rng):
    # Lamps clear of [-2, 1] lie in U = W:1 and in g^-1 U g for g = shift:1.
    while True:
        support = [i for i in range(-8, 9)
                   if not -2 <= i <= 1 and rng.random() < 0.4]
        if support:
            return "lamp:" + ",".join(str(i) for i in support)


def _unit(rng, p, bound):
    while True:
        x = rng.randrange(-bound, bound + 1)
        if x % p:
            return x


def _linear2_u(rng, p):
    # Iwahori element with p | c, so that also g u g^-1 lies in the Iwahori
    # for g = diag(p, 1).
    while True:
        a, d = _unit(rng, p, 2), _unit(rng, p, 2)
        b, c = p * rng.choice((-1, 1)), p * rng.choice((-1, 1))
        if (a * d - b * c) % p:
            return _fmt([[a, b], [c, d]])


def _linear3_u(rng):
    # For g = diag(4, 2, 1): above the diagonal val >= 1 (Iwahori), below it
    # val >= v_s - v_r so that g u g^-1 stays p-integral.
    while True:
        m = [[_unit(rng, 2, 1) if r == s else 0 for s in range(3)]
             for r in range(3)]
        for r, s, scale in ((0, 1, 2), (0, 2, 2), (1, 2, 2),
                            (1, 0, 2), (2, 0, 4), (2, 1, 2)):
            m[r][s] = scale * rng.choice((-1, 1))
        if _det(m) % 2:
            return _fmt(m)


def conjugators(seed):
    """Two-sided conjugator traces: model arithmetic, the kernel idles."""
    rng = random.Random(seed)
    out = [
        ["--model", "shift", "--p", "2", "--u=" + _shift_u(rng)],
        ["--model", "linear", "--p", "2", "--n", "2",
         "--u=" + _linear2_u(rng, 2)],
        ["--model", "linear", "--p", "3", "--n", "2",
         "--u=" + _linear2_u(rng, 3)],
        ["--model", "linear", "--p", "2", "--n", "3",
         "--g", "4,0,0;0,2,0;0,0,1", "--u=" + _linear3_u(rng)],
    ]
    rng.shuffle(out)
    return [["conjugator"] + argv + ["--two-sided", "--horizon", str(HORIZON)]
            for argv in out]


WORKLOADS = {
    "theorem-all": theorem_all,
    "conjugators": conjugators,
}


def range_probe():
    """Commands over the documented parameter ranges, one per attempt."""
    out = []
    for p in (2, 3, 5, 7):
        for command in ("scale", "nub"):
            out.append([command, "--model", "shift", "--p", str(p)])
    out.append(["conjugator", "--model", "linear", "--n", "3", "--two-sided"])
    return out


# -- independent output checks --------------------------------------------------


def _opt(argv, flag):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    raise KeyError(flag)


def _matrix(text):
    return [[Fraction(e) for e in row.split(",")] for row in text.split(";")]


def _vp(q, p):
    """p-adic valuation of a nonzero rational."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _inverse(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _in_iwahori(m, p):
    """Standard Iwahori: p-integral, val >= 1 above the diagonal, unit det."""
    n = len(m)
    for r in range(n):
        for s in range(n):
            e = m[r][s]
            if e and _vp(e, p) < (1 if r < s else 0):
                return False
    return _vp(_det(m), p) == 0


def _det(m):
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _certificates_hold(g, u, x, ks, p):
    """b_k = x^-1 (gu)^k x g^-k lies in U for every k in ks (ks contiguous
    from 0 upwards and from 0 downwards), by running products."""
    n = len(g)
    gu = _mat_mul(g, u)
    x_inv = _inverse(x)
    for step_gu, step_g_inv, sign in ((gu, _inverse(g), 1),
                                      (_inverse(gu), g, -1)):
        lhs = x
        rhs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        k = 0
        while sign * k in ks:
            if not _in_iwahori(_mat_mul(_mat_mul(x_inv, lhs), rhs), p):
                return False
            lhs = _mat_mul(step_gu, lhs)
            rhs = _mat_mul(rhs, step_g_inv)
            k += 1
    return True


def _check_conjugator(argv, row):
    """Re-verify linear certificates with exact arithmetic of our own."""
    if row.get("model") != "linear":
        return []
    p = int(_opt(argv, "--p"))
    g, u = _matrix(row["params"]["g"]), _matrix(row["params"]["u"])
    N = row["params"]["horizon"]
    problems = []
    if not _certificates_hold(g, u, _matrix(row["t"]), range(0, N + 1), p):
        problems.append("conjugator: a forward certificate escapes U")
    if not _certificates_hold(g, u, _matrix(row["r"]), range(-N, N + 1), p):
        problems.append("conjugator: a two-sided certificate escapes U")
    return problems


CHECKS = {"conjugator": _check_conjugator}


def check_output(argv, stdout):
    """Problems in the JSON-lines stdout of one command: no rows, failed
    rows, malformed rows, plus the independent checks above."""
    check = CHECKS.get(argv[0])
    try:
        rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        problems = [f"row failed: {row}" for row in rows
                    if row.get("pass") is not True]
        for row in rows:
            if check:
                problems.extend(check(argv, row))
    except (ValueError, KeyError, TypeError, ZeroDivisionError,
            StopIteration) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"]
    return problems or ([] if rows else ["no output rows"])
