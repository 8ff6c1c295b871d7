"""Apply one-line faults to a copy of the repository and report which ones
the Tier-1 suite catches.

    python3 tools/mutants.py                 # every mutant
    python3 tools/mutants.py shape-sign ...  # the named ones

Each mutant replaces one exact fragment of one source file in a temporary
copy of the repository, and the suite runs there with `-x`, so a caught
mutant stops at its first failing test.  The working tree is never
modified.  A mutant whose fragment does not occur exactly once is reported
as stale and not run; `tests/test_tools.py` fails on such a mutant.  The
report is a Markdown table on stdout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Seconds one suite run may take before the mutant counts as hanging.
TIMEOUT = 900

#: (name, file under src/tdlcw, original fragment, faulty fragment).
MUTANTS = [
    ("shape-sign", "linear.py",
     "else e + (vals[r] - vals[s]) * i",
     "else e - (vals[r] - vals[s]) * i"),
    ("forward-union-off-by-one", "shift.py",
     "s[start - lo:])",
     "s[start - lo - 1:])"),
    ("swap-u-plus-u-minus", "shift.py",
     "return UParts(u_plus, u_minus, u_zero, u_mm, u_pp)",
     "return UParts(u_minus, u_plus, u_zero, u_mm, u_pp)"),
    ("certificate-step-g-power", "limits.py",
     "_certificates(model, U, t_inv.mul(g, u, t), g_inv, N, 1)",
     "_certificates(model, U, t_inv.mul(g, u, t), g, N, 1)"),
    ("replay-b0-check", "limits.py",
     "or certs[0] != model.identity",
     "or certs[0] != certs[0]"),
    ("lead-trim", "epseq.py",
     "return len(word) - (x.bit_length() + 7) // 8",
     "return len(word) - (x.bit_length() + 15) // 8"),
    ("trail-trim-single-digit", "epseq.py",
     "return len(word) - len(word.rstrip(tail))",
     "return 0"),
    ("transport-top-level", "limits.py",
     "k = a.top_level\n",
     "k = a.top_level - 1\n"),
    ("net-limit-bound", "limits.py",
     "d.indistinguishable or d.level > level_r",
     "d.indistinguishable or d.level >= level_r"),
    ("untidy-level-range", "tidy.py",
     "if K < model.min_level or tidy_at(K):",
     "if K < model.min_level or tidy_at(K - 1):"),
    ("untidy-scan-start", "tidy.py",
     "for k in range(model.min_level, K) if not tidy_at(k)",
     "for k in range(model.min_level + 1, K) if not tidy_at(k)"),
    ("tidy-below-next-to-bound", "shift.py",
     "for x in [*range(top - 2, lo - 1, -1), top - 1]:",
     "for x in range(top - 2, lo - 1, -1):"),
    ("transport-level-range", "limits.py",
     "for k in range(model.min_level, TRANSPORT_K + 1):",
     "for k in range(model.min_level, TRANSPORT_K):"),
    ("p2-minus-one-generator", "linear.py",
     "return (3, -1)",
     "return (3,)"),
    ("runner-keeps-input-errors", "cli.py",
     "if isinstance(exc, InputError):",
     "if False:"),
    ("backward-parts-unswapped", "limits.py",
     "backward = tidy.UParts(parts.u_minus, parts.u_plus, parts.u_zero, parts.u_pp, parts.u_mm)",
     "backward = parts"),
    ("qmatrix-den-sign", "linear.py",
     "            if den < 0:\n                g = -g\n",
     ""),
    ("charpoly-coefficient-sign", "linear.py",
     "coeffs.append(c)",
     "coeffs.append(-c if k == n else c)"),
    ("roots-without-derivative-cells", "linear.py",
     "ends = [-bound - 1, *cuts, bound]",
     "ends = [-bound - 1, bound]"),
    ("root-monic-scale", "linear.py",
     "c * lead ** (deg - 1 - i)",
     "c * lead ** (deg - i)"),
    ("vanish-slice-end", "shift.py",
     "mask = int.from_bytes(vanish.digits(a.offset, a.end), \"big\") * 255",
     "mask = int.from_bytes(vanish.digits(a.offset + 1, a.end + 1), \"big\") * 255"),
    ("value-init-order", "kernel.py",
     "def init(self, a, b, /):\n                s0(self, a); s1(self, b)",
     "def init(self, a, b, /):\n                s0(self, b); s1(self, a)"),
    ("cached-attr-on-class", "kernel.py",
     "value = obj.__dict__[self.name] = self.func(obj)",
     "value = self.func(obj)\n        setattr(cls, self.name, value)"),
    ("settings-range", "cli.py",
     "(\"n_max\", int, 8, range(1, 13)),",
     "(\"n_max\", int, 8, range(1, 12)),"),
    ("subgroup-format-w", "shift.py",
     "b\"\\1\" * (1 - 2 * v.offset)",
     "b\"\\1\" * (1 - v.offset)"),
    ("u-mm-trivial", "shift.py",
     "max(0, -(-gap // abs(step)))",
     "max(0, gap // abs(step))"),
    ("shape-validated-at-parse", "linear.py",
     "        validate_shape(shape)\n        if any(e < 0",
     "        if any(e < 0"),
    ("tits-core-any", "verify.py",
     "all(im <= top",
     "any(im <= top"),
    ("con-oracle-tie", "linear.py",
     "NEG_INF if a > b else INF",
     "NEG_INF if a >= b else INF"),
    ("con-membership-guess", "tidy.py",
     "return model.con_oracle(g, x)\n    except UnsupportedElementError:\n        return INCONCLUSIVE",
     "return model.con_oracle(g, x)\n    except UnsupportedElementError:\n        return True"),
    ("tidy-above-skips-parts", "tidy.py",
     "        parts = u_parts(model, V, g)\n",
     "        try:\n            parts = u_parts(model, V, g)\n"
     "        except UnsupportedElementError:\n            continue\n"),
    ("mulmod-rows-by-rows", "kernel.py",
     "cols = tuple(zip(*b))",
     "cols = b"),
    ("window-inv-by-det", "kernel.py",
     "dinv = pow(det(a), -1, m)",
     "dinv = det(a) % m"),
    ("stage-h-conjugated-backwards", "limits.py",
     "y = u.mul(g, w_minus, g_inv)",
     "y = u.mul(g_inv, w_minus, g)"),
    ("stage-final-power-off-by-one", "limits.py",
     "t = Q.inv().mul(model.power(g, N))",
     "t = Q.inv().mul(model.power(g, N - 1))"),
    ("stage-escape-unmapped", "limits.py",
     "        try:\n            w_minus, w_plus = split(y)\n"
     "        except ContainmentError:\n"
     "            raise HypothesisError(f\"certificate b_{n} escapes U\") from None\n",
     "        w_minus, w_plus = split(y)\n"),
    ("residue-det-not-exact", "linear.py",
     "if dt % unit or not dt:",
     "if dt % unit:"),
    ("replay-e-step-g-power", "limits.py",
     "gu_s, g_minus_s = (gu, g.inv()) if s > 0 else (gu.inv(), g)",
     "gu_s, g_minus_s = (gu, g) if s > 0 else (gu.inv(), g)"),
    ("finite-add-unreduced", "epseq.py",
     'digits = total.to_bytes(hi - lo, "big").translate(_tables(self.p)[0])',
     'digits = total.to_bytes(hi - lo, "big")'),
    ("mul-drops-first-den", "linear.py",
     "den = self.den\n        if len(self.rows) == 2:",
     "den = 1\n        if len(self.rows) == 2:"),
    ("mul-3x3-index-swap", "linear.py",
     "a3 * b1 + a4 * b4 + a5 * b7",
     "a3 * b1 + a4 * b4 + a5 * b8"),
    ("ul-multiplier-wrong-pivot", "linear.py",
     "u[r][col] = e * (D // pivot)",
     "u[r][col] = e * (D // steps[0][1])"),
    ("shape-blocks-one-sided", "linear.py",
     "if clamped[r][s] == clamped[s][r] == 0)",
     "if clamped[r][s] == 0)"),
    ("shape-block-factor-unsquared", "linear.py",
     "// p ** len(block) ** 2",
     "// p ** len(block)"),
    ("conjugator-tidy-level-vacuous", "limits.py",
     "untidy_above_level(model, U, max(model.min_level, 1), parts)",
     "untidy_above_level(model, U, max(model.min_level, 1) - 1, parts)"),
    ("battery-scale-expected", "linear.py",
     "(g.mul(h.inv()), p * p)",
     "(g.mul(h.inv()), p)"),
    ("battery-missing-case-skipped", "cli.py",
     "if which != \"all\" and not tables[which]:",
     "if False:"),
]


def run_suite(root):
    """(outcome, first failing test or "") of the Tier-1 suite in `root`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "hangs", ""
    if proc.returncode == 0:
        return "survives", ""
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "caught", failed[0] if failed else f"exit {proc.returncode}"


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        print("| mutant | file | outcome | first failing test | seconds |")
        print("|---|---|---|---|---|")
        for name, file, old, new in chosen:
            path = root / "src" / "tdlcw" / file
            source = path.read_text()
            if source.count(old) != 1:
                print(f"| {name} | {file} | stale | | |", flush=True)
                continue
            path.write_text(source.replace(old, new))
            start = time.perf_counter()
            try:
                outcome, test = run_suite(root)
            finally:
                path.write_text(source)
            print(f"| {name} | {file} | {outcome} | {test} | "
                  f"{time.perf_counter() - start:.0f} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
