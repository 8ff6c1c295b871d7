"""Command-line workbench: deterministic experiments over the two models.

Every command emits JSON-lines rows (one JSON object per line) to stdout
and, with --out, to a file.  All randomness flows from the single --seed,
so identical configurations produce byte-identical output.

Every command and every battery is a list of (model, params, compute)
cases, run by one loop, `_run`.  Each row is computed by `_rows`: a library
error (`kernel.TdlcwError`) fails its row with the error's message, kind
and witness, and the other rows still run.  Exit status: 0 when every row
passes, 1 when some row failed, 2 on bad input (`kernel.InputError`), with
one "error: ..." line on stderr and nothing on stdout.

The models give the cases of each `theorem-check` battery,
`model.cases(battery, K)`: the elements, subgroups, levels and expected
values of its rows.  This module holds each battery's compute, written
once for every model.  A battery that `--which` names exits 2 when the
models have no case for it; `--which all` skips it.

Each shared setting is declared once, as a row of `SETTINGS`, which gives
its `RunConfig` default, its check, its `--config` key and its flag.  A
JSON config file (--config) may supply any of them; flags given on the
command line win over the file.  Unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from functools import cache, partial

from tdlcw import limits, tidy, verify
from tdlcw.epseq import EPSeq
from tdlcw.kernel import InputError, TdlcwError
from tdlcw.linear import LinearModel
from tdlcw.shift import ShiftModel


#: Each shared setting: (name, JSON type, default, allowed values), the
#: allowed values a range or a tuple, None for any value of the type.  A
#: default of None means the setting may be unset.  Every setting is a
#: `--config` key and a flag, `--n-max` of `experiment limits` only.
SETTINGS = (
    ("model", str, None, ("shift", "linear")),  # None: the default battery
    ("p", int, 2, (2, 3, 5, 7)),
    ("n", int, 2, range(2, 4)),                 # matrix size, linear model
    ("resolution", int, None, range(0, 9)),     # window level K
    ("horizon", int, 12, range(0, 65)),         # certificate horizon N
    ("max_k", int, 10, range(0, 33)),           # tidying intersection depth
    ("seed", int, 0, None),
    ("samples", int, 50, range(1, 1001)),       # echoed in transport rows
    ("n_max", int, 8, range(1, 13)),            # limits schedule length
    ("out", str, None, None),
)


def setting_text(setting):
    """The allowed values and default of a setting, as `--help` and the
    README give them: "2, 3, 5, 7; default 2", "0..8"."""
    _, _, default, allowed = setting
    parts = []
    if isinstance(allowed, range):
        parts.append(f"{allowed[0]}..{allowed[-1]}")
    elif allowed is not None:
        parts.append(", ".join(map(str, allowed)))
    if default is not None:
        parts.append(f"default {default}")
    return "; ".join(parts)


class RunConfig:
    """Shared run settings: one attribute per row of `SETTINGS`."""

    def __init__(self, **values):
        unknown = values.keys() - {name for name, *_ in SETTINGS}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        for name, _, default, _ in SETTINGS:
            setattr(self, name, values.get(name, default))

    def validate(self):
        for name, kind, default, allowed in SETTINGS:
            value = getattr(self, name)
            # A config file may give any JSON value.
            if value is None and default is None:
                continue
            if type(value) is not kind:
                raise InputError(f"{name} must be of type {kind.__name__}, got {value!r}")
            if allowed is not None and value not in allowed:
                if isinstance(allowed, range):
                    raise InputError(
                        f"{name} must be in [{allowed[0]}, {allowed[-1]}], got {value}")
                raise InputError(f"{name} must be one of "
                                 f"{', '.join(map(str, allowed))}, got {value!r}")
        return self

    @classmethod
    def from_args(cls, args):
        """The settings of a `--config` file, if given, overridden by the
        flags given on the command line."""
        values = {}
        if getattr(args, "config", None):
            try:
                with open(args.config, encoding="utf-8") as fh:
                    values = json.load(fh)
            except (OSError, ValueError) as exc:
                raise InputError(f"cannot read config {args.config}: {exc}") from None
            if not isinstance(values, dict):
                raise InputError("a config file holds one JSON object")
        for name, *_ in SETTINGS:
            value = getattr(args, name, None)
            if value is not None:
                values[name] = value
        return cls(**values).validate()


def battery_models(cfg):
    """The models a command runs over: the configured one, or the default
    cross-model battery when --model is omitted."""
    if cfg.model == "shift":
        return [ShiftModel(cfg.p)]
    if cfg.model == "linear":
        return [LinearModel(cfg.p, cfg.n)]
    return [ShiftModel(2), LinearModel(2, 2), LinearModel(3, 2)]


def _verdict(value):
    return value if isinstance(value, (bool, str)) else str(value)


def _rows(key, name, model, params, compute):
    """Rows of one computation: the head {key: name, "model", "params"}
    (net-limit rows, with params None, have none) followed by each dict of
    fields in the list `compute()` returns; or, on a library error, one
    failed row.  Bad input and program faults propagate."""
    head = {key: name, "model": model.name}
    if params is not None:
        head["params"] = params
    try:
        return [{**head, **fields} for fields in compute()]
    except TdlcwError as exc:
        if isinstance(exc, InputError):
            raise
        witness = exc.witness
        if not (witness is None or isinstance(witness, (int, tuple, dict))):
            witness = model.format_element(witness)
        return [{**head, "error": str(exc), "kind": exc.kind,
                 "counterexample": witness, "pass": False}]


def _run(key, name, cases):
    """The rows of each (model, params, compute) case, in order: the one
    loop that runs every command and battery."""
    return [row for model, params, compute in cases
            for row in _rows(key, name, model, params, compute)]


def _per_model(cfg, name, case):
    """The rows of the experiment command `name`: one case per battery
    model, whose (params, compute) is `case(model)`."""
    return _run("experiment", name, [(model, *case(model)) for model in battery_models(cfg)])


# -- commands ---------------------------------------------------------------


def cmd_scale(cfg, args):
    if cfg.model == "linear" and cfg.n == 3 and cfg.p > 3:
        # find_tidy forms a witness at every failing level; for 3x3 matrices
        # at p >= 5 those product sets are too large to form.
        raise InputError("scale of a 3x3 matrix needs p in {2, 3}")

    def case(model):
        g = _element_arg(model, args)

        def scale():
            value = tidy.scale_index(model, g, cfg.resolution)
            formula = model.scale_formula(g)
            agree = value == formula
            return [{"scale": value, "formula": formula, "agree": agree, "pass": agree}]

        return {"g": model.format_element(g), "p": model.p}, scale

    return _per_model(cfg, "scale", case)


def cmd_tidy(cfg, args):
    def case(model):
        g = _element_arg(model, args)
        U = _subgroup_arg(cfg, model, args, g)
        K = cfg.resolution if cfg.resolution is not None else model.default_resolution

        def diagnose():
            V, k, parts = tidy.tidy_above_procedure(model, U, g, cfg.max_k, K)
            below, below_witness = tidy.is_tidy_below(model, V, g, parts)
            witness = None
            ok = True
            if below is False:
                witness = model.format_element(below_witness)
                # U_-- meets V beyond U_-: the witness must lie in V, not in U_-.
                ok = V.contains(below_witness) and not parts.u_minus.contains(
                    below_witness
                )
            return [{"k": k, "V": model.format_subgroup(V), "tidy_below": _verdict(below),
                     "witness": witness, "pass": ok}]

        return ({"g": model.format_element(g), "U": model.format_subgroup(U), "resolution": K},
                diagnose)

    return _per_model(cfg, "tidy", case)


def cmd_con_test(cfg, args):
    def case(model):
        g = _element_arg(model, args)
        x = model.parse_element(args.x) if args.x else model.identity

        def membership():
            in_con = tidy.con_membership(model, g, x)
            in_par = tidy.par_membership(model, g, x)
            return [{"in_con": _verdict(in_con), "in_par": _verdict(in_par),
                     # con(g) <= par(g): a contracted element has a bounded orbit.
                     "pass": not (in_con is True and in_par is False)}]

        return {"g": model.format_element(g), "x": model.format_element(x)}, membership

    return _per_model(cfg, "con-test", case)


def cmd_nub(cfg, args):
    def case(model):
        g = _element_arg(model, args)
        K = cfg.resolution if cfg.resolution is not None else model.default_resolution
        return {"g": model.format_element(g), "resolution": K}, partial(_nub, cfg, model, g, K)

    return _per_model(cfg, "nub", case)


def cmd_conjugator(cfg, args):
    def case(model):
        g = _element_arg(model, args)
        U = _subgroup_arg(cfg, model, args, g)
        u = model.parse_element(args.u) if args.u else model.default_u(g, U, args.two_sided)

        def conjugator():
            if args.two_sided:
                two = limits.conjugator_two_sided(model, g, u, U, cfg.horizon)
                trace = two.forward
            else:
                trace = limits.conjugator_forward(model, g, u, U, cfg.horizon)
            fields = {
                "t": model.format_element(trace.t),
                "level_t": limits.level_json(model.proximity_level(trace.t)),
                "replay": trace.replay(model),
            }
            if args.two_sided:
                fields["r"] = model.format_element(two.r)
                fields["level_r"] = limits.level_json(model.proximity_level(two.r))
                fields["replay_two_sided"] = two.replay(model)
            fields["pass"] = fields["replay"] and fields.get("replay_two_sided", True)
            return [fields]

        return ({"g": model.format_element(g), "u": model.format_element(u),
                 "U": model.format_subgroup(U), "horizon": cfg.horizon}, conjugator)

    return _per_model(cfg, "conjugator", case)


def cmd_experiment_limits(cfg, args):
    return _per_model(cfg, "net-limit",
                      lambda model: (None, partial(_net_limit, cfg, model, cfg.n_max)))


# -- theorem-check batteries ------------------------------------------------
#
# Each model gives the cases of a battery, `model.cases(battery, K)`: the
# rows' params and the data that the battery's compute takes.  A compute
# is `compute(cfg, model, **data)`, written once for every model.


def _scale(cfg, model, g, expected):
    value = tidy.scale_index(model, g)
    formula = model.scale_formula(g)
    return [{"scale": value, "expected": expected, "pass": value == expected == formula}]


def _tidy_identities(cfg, model, check, U, g, K=None, expected=None):
    """The level identities of U at K; the tidying procedure from U, which
    should end at `expected`, (k, V); or U tidy above at level K and not
    below, with the witness."""
    if check == "identities":
        report = tidy.tidy_identity_report(model, U, g, K)
        return [{"levels": report["levels"], "pass": report["pass"]}]
    if check == "procedure":
        V, k, _ = tidy.tidy_above_procedure(model, U, g, cfg.max_k)
        return [{"k": k, "V": model.format_subgroup(V), "pass": (k, V) == expected}]
    parts = tidy.u_parts(model, U, g)
    above = tidy.untidy_above_level(model, U, K, parts) is None
    below, witness = tidy.is_tidy_below(model, U, g, parts)
    return [{"tidy_above": _verdict(above), "tidy_below": _verdict(below),
             "witness": None if below is not False else model.format_element(witness),
             "pass": above is True and below is False and witness is not None}]


def _nub(cfg, model, g, K, full=None):
    """The nub of g at K, whose order should be the full window's when
    `full`, else 1; any order when `full` is None."""
    image, report = tidy.nub_compute(model, g, K)
    ok = full is None or image.order == (
        model.reference().window_image(K).order if full else 1)
    return [{"order": image.order, "characterizations": report,
             "pass": all(report.values()) and ok}]


def _transport(cfg, model, g, U, u, u2, U2):
    trace = limits.conjugator_forward(model, g, u, U, cfg.horizon)
    t, _, adjusted = model.adjust_to_contraction(trace.t, U, g, tidy.u_parts(model, U, g))
    con_report = limits.con_transport_check(model, g, u, t)
    # At most 10 stages: ample for TRANSPORT_K, the level the nub check reads.
    two = limits.conjugator_two_sided(model, g, u2, U2, min(cfg.horizon, 10))
    nub_report = limits.nub_transport_check(model, g, u2, two.r)
    replay, two_sided_replay = trace.replay(model), two.replay(model)
    return [{"replay": replay, "adjusted": adjusted,
             "con_transport": con_report["pass"],
             "two_sided_replay": two_sided_replay,
             "nub_transport": nub_report["pass"],
             "pass": all([replay, con_report["pass"], two_sided_replay,
                          nub_report["pass"]])}]


def _normal_closure(cfg, model, samples, rng):
    failures = 0
    for _ in range(samples):
        support = {i: rng.randrange(1, model.p) for i in range(-10, 11)
                   if rng.random() < 0.3}
        _, ok = verify.normal_closure_witness(EPSeq.from_support(model.p, support))
        failures += 0 if ok else 1
    return [{"failures": failures, "pass": failures == 0}]


def _quotient_anisotropy(cfg, model, kind, schedule, K):
    q = verify.QuotientDescriptor(model, kind)
    normal = q.normal_check()
    report = verify.quotient_anisotropy_check(q, schedule, K)
    return [{"normal": normal["pass"], "core_in_n": report["core_in_n"],
             "quotient_con_trivial": report["quotient_con_trivial"],
             "pass": normal["pass"] and report["pass"]}]


def _tits_core(cfg, model, K, schedule, holds=None):
    """The Tits-core image at K: the full window image, or one that holds
    the residues `holds`."""
    image = verify.tits_core_image(model, K, schedule)
    ok = (image == model.reference().window_image(K) if holds is None
          else all(c in image for c in holds))
    return [{"order": image.order, "pass": ok}]


def _net_limit(cfg, model, n_max=8):
    """Net-limit rows along the default element's schedule; K 6 by default."""
    g = model.default_element()
    schedule = model.net_schedule(g, n_max)
    return limits.net_experiment(model, g, schedule,
                                 cfg.resolution if cfg.resolution is not None else 6)


def _table(cfg, battery):
    """The (model, params, data) cases of a battery: each battery model's
    own, then, when there are any, those each model family adds once per
    run."""
    K = cfg.resolution if cfg.resolution is not None else 4
    models = battery_models(cfg)
    cases = [case for model in models for case in model.cases(battery, K)]
    families = {type(model): model for model in models}.values() if cases else ()
    return cases + [case for model in families for case in model.family_cases(battery)]


def _battery(battery, compute, key="check", name=None, echo=()):
    """A battery's check: the rows of `compute` on each case of its table
    (built here unless given), the settings `echo` names appended to the
    params."""
    def check(cfg, table=None):
        return _run(key, name or battery, [
            (model, params and {**params, **{e: getattr(cfg, e) for e in echo}},
             partial(compute, cfg, model, **data))
            for model, params, data in (_table(cfg, battery) if table is None else table)])
    return check


def _check_normal_closure(cfg, table=None):
    # The one battery that draws: one stream from the seed, p = 2 first.
    return _battery("normal-closure",
                    partial(_normal_closure, rng=random.Random(cfg.seed)))(cfg, table)


CHECKS = {
    "scale": _battery("scale", _scale),
    "tidy-identities": _battery("tidy-identities", _tidy_identities),
    "nub-characterizations": _battery("nub-characterizations", _nub),
    "transport": _battery("transport", _transport, echo=("samples",)),
    "normal-closure": _check_normal_closure,
    "quotient-anisotropy": _battery("quotient-anisotropy", _quotient_anisotropy),
    "tits-core": _battery("tits-core", _tits_core),
    # A fixed schedule length: `n_max` sets that of `experiment limits`.
    "limits": _battery("limits", _net_limit, "experiment", "net-limit"),
}


def cmd_theorem_check(cfg, args):
    which = args.which or "all"
    if which != "all" and which not in CHECKS:
        names = ", ".join(sorted(CHECKS) + ["all"])
        raise InputError(f"unknown check {which!r}; valid names: {names}")
    tables = {name: _table(cfg, name) for name in CHECKS if which in ("all", name)}
    if which != "all" and not tables[which]:
        # `--which all` skips a battery with no case for the model.
        names = ", ".join(name for name in CHECKS if _table(cfg, name))
        raise InputError(f"theorem-check --which {which} has no case for --model "
                         f"{cfg.model} --n {cfg.n}; batteries with cases: {names}")
    if (which in ("all", "transport") and cfg.model in (None, "linear")
            and cfg.horizon < limits.TRANSPORT_K - 1):
        # A linear stage-N conjugator fixes levels <= TRANSPORT_K from here on.
        raise InputError(f"theorem-check --which {which} needs --horizon >= "
                         f"{limits.TRANSPORT_K - 1} on the linear model")
    return [row for name, table in tables.items() for row in CHECKS[name](cfg, table)]


# -- orchestration ----------------------------------------------------------


def _element_arg(model, args):
    """--g, or the model's default element when it is not given."""
    return model.parse_element(args.g) if args.g else model.default_element()


def _subgroup_arg(cfg, model, args, g):
    """The subgroup --U, which is read in the one model --model names, or
    the default subgroup for g."""
    if not args.subgroup:
        return model.default_subgroup(g)
    if not cfg.model:
        raise InputError("--U needs --model: a subgroup is read in one model")
    return model.parse_subgroup(args.subgroup, g)


def _add_settings(parser, command):
    """A flag for each setting the command takes, and `--config`.  Flags
    default to None, so that only those given override the config file."""
    for setting in SETTINGS:
        name, kind = setting[:2]
        if name != "n_max" or command == "limits":
            parser.add_argument("--" + name.replace("_", "-"), type=kind,
                                help=setting_text(setting) or None)
    parser.add_argument("--config")


#: Each command: (help, function, flags), a flag as (name, keyword
#: arguments of `add_argument`).  `experiment` holds a table of its own
#: subcommands in place of a function.
COMMANDS = {
    "scale": ("scale of an element, two ways", cmd_scale,
              [("--g", {})]),
    "tidy": ("tidying procedure diagnosis", cmd_tidy,
             [("--g", {}), ("--U", {"dest": "subgroup"})]),
    "con-test": ("contraction/parabolic membership", cmd_con_test,
                 [("--g", {}), ("--x", {})]),
    "nub": ("nub via five characterizations", cmd_nub, [("--g", {})]),
    "conjugator": ("conjugator trace with replay", cmd_conjugator,
                   [("--g", {}), ("--u", {}), ("--U", {"dest": "subgroup"}),
                    ("--two-sided", {"dest": "two_sided", "action": "store_true"})]),
    "experiment": ("convergence experiments", {
        "limits": ("shrinking-schedule experiment", cmd_experiment_limits, []),
    }, []),
    "theorem-check": ("verification batteries", cmd_theorem_check,
                      [("--which", {"default": "all"})]),
}


def _add_commands(parser, dest, commands, only=None):
    """One subparser per command, each with its help; only the command
    `only` (every one when None) gets its flags."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (text, fn, flags) in commands.items():
        p = sub.add_parser(name, help=text)
        if only not in (None, name):
            continue
        if isinstance(fn, dict):
            _add_commands(p, name, fn)
            continue
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        _add_settings(p, name)
        p.set_defaults(func=fn)


def build_parser(command=None):
    """The argument parser; with a command named, only that command's
    flags are added, which parses its command lines as the full parser
    does."""
    parser = argparse.ArgumentParser(
        prog="tdlcw",
        description="finite-resolution workbench for t.d.l.c. dynamics",
    )
    _add_commands(parser, "command", COMMANDS, command)
    return parser


def _open_out(path):
    """--out, opened before any work, to append: a run that exits 2 leaves
    the file as it was.  A null context without --out."""
    try:
        return open(path, "a", encoding="utf-8") if path else contextlib.nullcontext()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def emit(rows, out):
    """Print the rows, and put them in place of the content of `out`, the
    open --out file, if any."""
    text = "".join(json.dumps(row, default=str) + "\n" for row in rows)
    sys.stdout.write(text)
    if out is not None:
        out.truncate(0)
        out.write(text)


@cache
def _parser(command):
    """The parser for a command line starting with `command` (None for one
    that names no command), built once per process: it holds no state
    between parses."""
    return build_parser(command)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = _parser(command).parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        with _open_out(cfg.out) as out:
            rows = args.func(cfg, args)
            emit(rows, out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(row["pass"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
