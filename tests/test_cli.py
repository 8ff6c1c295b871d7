"""Command-line surface: config handling, determinism, and exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import vanish_set

from tdlcw import cli, kernel, shift


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    rows = [json.loads(line) for line in out.out.splitlines()]
    return code, rows, out.err


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = cli.RunConfig().validate()
        assert cfg.p == 2 and cfg.seed == 0

    def test_range_enforcement(self):
        with pytest.raises(ValueError):
            cli.RunConfig(p=11).validate()
        with pytest.raises(ValueError):
            cli.RunConfig(resolution=99).validate()
        with pytest.raises(ValueError):
            cli.RunConfig(model="other").validate()

    def test_config_file_merging(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 3, "seed": 5, "samples": 7}))

        class Args:
            config = str(path)
            p = None
            seed = 9  # flag wins over the file

        cfg = cli.RunConfig.from_args(Args())
        assert cfg.p == 3 and cfg.seed == 9 and cfg.samples == 7

    def test_unknown_config_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"primes": [2, 3]}))

        class Args:
            config = str(path)

        with pytest.raises(ValueError, match="unknown config keys"):
            cli.RunConfig.from_args(Args())


@pytest.mark.parametrize("setting", cli.SETTINGS, ids=lambda s: s[0])
def test_every_setting_round_trips_through_a_config_file(setting, tmp_path):
    # The largest allowed value, or any other than the default.
    name, kind, default, allowed = setting
    value = allowed[-1] if allowed is not None else {int: 11, str: "rows.jsonl"}[kind]
    assert value != default
    command = ["experiment", "limits"] if name == "n_max" else ["scale"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({name: value}))
    flag = ["--" + name.replace("_", "-"), str(value)]
    from_file, from_flag = (
        cli.RunConfig.from_args(cli.build_parser().parse_args(command + tail))
        for tail in (["--config", str(path)], flag))
    assert getattr(from_file, name) == getattr(from_flag, name) == value
    assert vars(from_file) == vars(from_flag) == {**vars(cli.RunConfig()), name: value}


def _shared_flags_paragraph():
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    start = readme.index("Shared flags:")
    return " ".join(readme[start:readme.index("\n\n", start)].split())


@pytest.mark.parametrize("setting", cli.SETTINGS, ids=lambda s: s[0])
def test_readme_names_every_setting_with_its_range(setting):
    flag, text = "`--" + setting[0].replace("_", "-") + "`", cli.setting_text(setting)
    assert (f"{flag} ({text})" if text else flag) in _shared_flags_paragraph()


class TestElementParsing:
    def test_subgroup_roundtrip_shift(self):
        # W:none is the whole lamp group, W:all the trivial subgroup.
        model = cli.ShiftModel(2)
        for text, vanish in [("W:0", vanish_set(fin=[0])),
                             ("W:2", vanish_set(fin=range(-2, 3))),
                             ("W:none", vanish_set()),
                             ("W:all", vanish_set(left=0, right=1))]:
            U = model.parse_subgroup(text, model.default_element())
            assert U == shift.ShiftOpen(2, vanish)
            assert model.format_subgroup(U) == text
            assert model.parse_subgroup(model.format_subgroup(U), None) == U

    def test_subgroup_roundtrip_linear(self):
        model = cli.LinearModel(2, 2)
        g = model.default_element()
        U = model.parse_subgroup("0,1;0,0", g)
        assert model.format_subgroup(U) == "0,1;0,0"
        inf_shape = model.parse_subgroup("0,inf;inf,0", g)
        assert model.format_subgroup(inf_shape) == "0,inf;inf,0"

    def test_bad_subgroup_text(self):
        model = cli.ShiftModel(2)
        with pytest.raises(ValueError):
            model.parse_subgroup("whatever", model.default_element())

    def test_invalid_shape_exits_2(self, capsys):
        # The shape parses, but U would not be a subgroup: entries (0, 1)
        # and (1, 0) sum below 0.
        assert cli.main(["tidy", "--model", "linear", "--U", "0,1;-2,0"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == "error: off-diagonal shape entries must have sum >= 0\n"


class TestCommands:
    def test_scale_default_battery(self, capsys):
        code, rows, _ = run(["scale"], capsys)
        assert code == 0
        assert {row["model"] for row in rows} == {"shift", "linear"}
        assert all(row["scale"] == row["formula"] for row in rows)

    def test_scale_explicit_element(self, capsys):
        code, rows, _ = run(
            ["scale", "--model", "linear", "--g", "2,0;0,1/2"], capsys
        )
        assert code == 0
        assert rows[0]["scale"] == 4

    def test_tidy_command(self, capsys):
        code, rows, _ = run(["tidy", "--model", "shift"], capsys)
        assert code == 0
        assert rows[0]["k"] == 0 and rows[0]["tidy_below"] is False

    def test_con_test_command(self, capsys):
        code, rows, _ = run(
            ["con-test", "--model", "shift", "--x", "lamp:4"], capsys
        )
        assert code == 0
        assert rows[0]["in_con"] is True and rows[0]["in_par"] is True

    @pytest.mark.parametrize("g", ["0,1;2,0", "0,-2;1,-1"])
    def test_con_test_without_rational_eigenvalues(self, capsys, g):
        # No eigenbasis over Q, so no exact oracle: both answers are
        # inconclusive.  The eigenvalues of "0,1;2,0" are +-sqrt(2); those
        # of "0,-2;1,-1" lie in Q_2, with valuations 1 and 0, but are not
        # rational.
        code, rows, _ = run(
            ["con-test", "--model", "linear", "--g", g, "--x", "1,0;2,1"], capsys)
        assert code == 0
        assert (rows[0]["in_con"], rows[0]["in_par"]) == ("inconclusive", "inconclusive")

    def test_con_test_is_exact_or_inconclusive(self, capsys):
        # A finite stretch of the orbit proves nothing here: det x = 2^20 + 1
        # is not 1, so the first x lies outside con(g), and the orbit of the
        # second leaves GL_2(Z_2) at step 21, so it lies outside par(g).
        g = ["--model", "linear", "--g", "0,-2;1,-1"]
        for x in ["1048577,0;0,1", "1,1048576;0,1"]:
            code, rows, _ = run(["con-test", *g, "--x", x], capsys)
            assert code == 0
            assert (rows[0]["in_con"], rows[0]["in_par"]) == ("inconclusive", "inconclusive")
        # The identity lies in con(g) and par(g) for every g.
        code, rows, _ = run(["con-test", *g], capsys)
        assert code == 0 and (rows[0]["in_con"], rows[0]["in_par"]) == (True, True)
        assert rows[0]["params"] == {"g": "0,-2;1,-1", "x": "1,0;0,1"}

    @pytest.mark.parametrize("subgroup, V, witness", [
        (["--g", "shift:2", "--U", "W:0"], "W:0", "lamp:-2"),
        (["--g", "shift:5"], "W:1", "lamp:-4")], ids=["shift:2 W:0", "shift:5"])
    def test_tidy_with_gapped_translates(self, capsys, subgroup, V, witness):
        # The translates of W:k by shift:m leave gaps when |m| > 2k + 1:
        # U_+ and U_- vanish on periodic sets, and U_+ U_- = W:k, so W:k is
        # tidy above at k = 0 and not tidy below.
        code, rows, err = run(["tidy", "--model", "shift", *subgroup], capsys)
        assert code == 0 and not err
        assert {key: rows[0][key] for key in ("k", "V", "tidy_below", "witness", "pass")} == {
            "k": 0, "V": V, "tidy_below": False, "witness": witness, "pass": True}
        code, rows, err = run(["conjugator", "--two-sided", "--model", "shift", *subgroup],
                              capsys)
        assert code == 0 and not err
        assert rows[0]["replay"] is True and rows[0]["replay_two_sided"] is True

    def test_tidy_with_symbolic_parts(self, capsys):
        code, rows, _ = run(["tidy", "--model", "shift", "--g", "shift:3", "--U", "W:1"], capsys)
        assert code == 0 and rows[0]["k"] == 0 and rows[0]["V"] == "W:1"

    def test_nub_command(self, capsys):
        code, rows, _ = run(["nub", "--model", "linear"], capsys)
        assert code == 0
        assert rows[0]["order"] == 1

    def test_nub_command_at_level_zero(self, capsys):
        # GL_n(Z/p^0) is trivial, so every subgroup image has order 1.
        code, rows, _ = run(["nub", "--model", "linear", "--resolution", "0"], capsys)
        assert code == 0
        assert rows[0]["order"] == 1

    def test_conjugator_command(self, capsys):
        code, rows, _ = run(
            ["conjugator", "--model", "shift", "--two-sided", "--horizon", "8"],
            capsys,
        )
        assert code == 0
        assert rows[0]["replay"] and rows[0]["replay_two_sided"]

    def test_conjugator_linear_n3_default_element(self, capsys):
        # The n = 3 default is diag(4, 2, 1): distinct eigenvalues.
        code, rows, _ = run(
            ["conjugator", "--model", "linear", "--n", "3", "--two-sided"], capsys
        )
        assert code == 0
        assert [row["params"]["g"] for row in rows] == ["4,0,0;0,2,0;0,0,1"]
        assert all(row["pass"] for row in rows)

    def test_experiment_limits(self, capsys):
        code, rows, _ = run(
            ["experiment", "limits", "--model", "shift", "--n-max", "4",
             "--resolution", "4"],
            capsys,
        )
        assert code == 0
        assert [row["n"] for row in rows] == [1, 2, 3, 4]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        code, _, _ = run(
            ["scale", "--model", "shift", "--out", str(path)], capsys
        )
        assert code == 0
        assert path.read_text().count("\n") == 1

    def test_out_path_that_cannot_be_written_exits_2_before_any_work(
            self, capsys, tmp_path, monkeypatch):
        def no_work(*args):
            raise AssertionError("scale computed before --out was opened")

        monkeypatch.setattr(cli.tidy, "scale_index", no_work)
        missing = tmp_path / "no-such-dir" / "x.json"
        for path in (missing, tmp_path):
            code, rows, err = run(["scale", "--model", "shift", "--out", str(path)], capsys)
            assert (code, rows) == (2, [])
            assert err.startswith(f"error: cannot write {path}: ")
            assert err.count("\n") == 1
        assert not missing.parent.exists()

    def test_out_file_keeps_its_content_on_bad_input(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("earlier rows\n")
        code, _, _ = run(["scale", "--model", "shift", "--g", "nonsense", "--out", str(path)],
                         capsys)
        assert code == 2 and path.read_text() == "earlier rows\n"
        code = cli.main(["scale", "--model", "shift", "--out", str(path)])
        assert code == 0 and path.read_text() == capsys.readouterr().out


class TestChecksCanFail:
    """Each command check rejects a wrong input fed in by a patched oracle."""

    def test_con_test_rejects_con_outside_par(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.tidy, "par_membership", lambda *args: False)
        code, rows, _ = run(
            ["con-test", "--model", "shift", "--x", "lamp:4"], capsys
        )
        assert rows[0]["in_con"] is True and rows[0]["in_par"] is False
        assert code == 1 and rows[0]["pass"] is False

    def test_tidy_rechecks_below_witness(self, capsys, monkeypatch):
        # The identity lies in U_-, so it cannot witness U_-- escaping it.
        monkeypatch.setattr(
            cli.tidy, "is_tidy_below",
            lambda model, *args, **kwargs: (False, model.identity),
        )
        code, rows, _ = run(["tidy", "--model", "shift"], capsys)
        assert rows[0]["tidy_below"] is False
        assert code == 1 and rows[0]["pass"] is False

    def test_normal_closure_counts_replay_failures(self, capsys, monkeypatch):
        # Conjugating by the wrong shift breaks the telescoping identity.
        monkeypatch.setattr(
            cli.verify, "shift_generator",
            lambda p, m=1: cli.shift_generator(p, 2 * m),
        )
        code, rows, _ = run(
            ["theorem-check", "--which", "normal-closure"], capsys
        )
        assert code == 1
        assert all(row["failures"] > 0 and row["pass"] is False for row in rows)


class TestRowErrors:
    """A library error inside one row fails that row, not the command."""

    def test_transport_failure_names_its_counterexample(self):
        # At horizon 0 the conjugator is t = 1, which does not carry
        # closure(con g) onto closure(con gu).  The command line narrows
        # that horizon away (exit 2), so the battery runs directly.
        cfg = cli.RunConfig(model="linear", horizon=0).validate()
        (row,) = cli.CHECKS["transport"](cfg)
        level = row["counterexample"]
        assert row["pass"] is False and row["kind"] == "transport"
        assert row["error"] == ("t closure(con g) t^-1 differs from closure(con gu) "
                                f"at level {level}")
        model = cli.LinearModel(2, 2)
        g, u = model.parse_element(row["params"]["g"]), model.parse_element(row["params"]["u"])
        gu = g.mul(u)
        same = [model.con_closure_image(g, k) == model.con_closure_image(gu, k)
                for k in range(model.min_level, level + 1)]
        assert same == [True] * (level - model.min_level) + [False]

    def test_tidy_horizon_exceeded(self, capsys):
        code, rows, err = run(
            ["tidy", "--model", "linear", "--g", "2,0;0,1", "--U", "0,0;0,0",
             "--max-k", "0"],
            capsys,
        )
        assert code == 1 and not err
        (row,) = rows
        assert row["params"]["U"] == "0,0;0,0" and row["pass"] is False
        assert row["error"] == "no tidy-above intersection within max_k=0"

    def test_tidy_identities_keep_their_other_rows(self, capsys):
        argv = ["theorem-check", "--which", "tidy-identities"]
        _, reference, _ = run(argv, capsys)
        code, rows, err = run(argv + ["--max-k", "0"], capsys)
        assert code == 1 and not err
        failed = [row for row in rows if not row["pass"]]
        assert [row["params"]["U"] for row in failed] == ["level-0"] * 2
        assert all("max_k=0" in row["error"] for row in failed)
        assert [row for row in rows if row["pass"]] == [
            row for row in reference if row["params"]["U"] != "level-0"
        ]


class TestFailedRows:
    """A library error that escaped as a traceback now fails its rows."""

    @pytest.mark.parametrize("argv", [
        ["nub", "--model", "linear"],
        ["theorem-check", "--which", "nub-characterizations", "--model", "linear"],
    ], ids=" ".join)
    def test_nub_disagreement(self, argv, capsys, monkeypatch):
        # A wrong characterization: the whole reference group for the nub.
        monkeypatch.setattr(cli.tidy, "_tidy_intersection_image",
                            lambda model, g, K: model.reference().window_image(K))
        code, rows, err = run(argv, capsys)
        assert code == 1 and not err and rows
        for row in rows:
            assert row["pass"] is False and row["kind"] == "nub-disagreement"
            assert row["error"].startswith("nub characterizations disagree")
            orders = row["counterexample"]
            assert orders["tidy"] > orders["con-con"] == 1

    @pytest.mark.parametrize("argv", [
        ["scale", "--model", "linear"],
        ["theorem-check", "--which", "scale"],
    ], ids=" ".join)
    def test_no_tidy_subgroup(self, argv, capsys, monkeypatch):
        def find_tidy(model, g, K=None):
            raise cli.tidy.HorizonExceededError("no tidy subgroup found among the candidates")

        monkeypatch.setattr(cli.tidy, "find_tidy", find_tidy)
        code, rows, err = run(argv, capsys)
        assert code == 1 and not err and rows
        for row in rows:
            assert row["pass"] is False and row["kind"] == "horizon-exceeded"
            assert row["error"] == "no tidy subgroup found among the candidates"
            assert "counterexample" in row and row["counterexample"] is None

    def test_window_witness_prints_as_its_residue(self, capsys):
        # An index across non-nested images fails its row with the smallest
        # element of the inner image outside the outer one: a matrix mod p^K
        # as rows, or the digits of a lamp window.
        cases = [
            (cli.LinearModel(2, 2), [[0, 1], [1, 0]]),  # GL_2(Z/4) outside I + 2M
            (cli.ShiftModel(2), [0, 0, 0, 1, 0]),  # a lamp at 1, outside W(1)
        ]
        for model, expected in cases:
            outer = model.filtration(1).window_image(2)
            inner = model.reference().window_image(2)
            rows = cli._rows("check", "index", model, {},
                             lambda: [{"index": kernel.index(outer, inner)}])
            cli.emit(rows, None)
            row = json.loads(capsys.readouterr().out)
            assert (row["kind"], row["counterexample"]) == ("containment", expected)
            as_tuple = tuple(map(tuple, expected)) if model.name == "linear" else tuple(expected)
            assert as_tuple in inner and as_tuple not in outer
        # Elements project to their residues: rows times den^-1 mod p^K, and
        # the lamp's digits on [-K, K].
        linear = cli.LinearModel(2, 2)
        x = linear.parse_element("1/3,2;5,7/3")
        assert linear.project(x, 3) == ((3, 2), (5, 5))
        inv_den = pow(x.den, -1, 8)
        assert linear.project(x, 3) == tuple(tuple(e * inv_den % 8 for e in row)
                                             for row in x.rows)
        lamps = cli.ShiftModel(2)
        x = lamps.parse_element("lamp:-1,2")
        assert lamps.project(x, 3) == x.lamp.window(3) == (0, 0, 1, 0, 0, 1, 0)

    def test_program_fault_is_not_a_failed_row(self, capsys, monkeypatch):
        # Only library errors fail a row; a bug in the program stays visible.
        monkeypatch.setattr(cli.tidy, "scale_index", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cli.main(["scale", "--model", "shift"])


@pytest.mark.parametrize("argv, message", [
    (["theorem-check", "--model", "linear", "--n", "3"],
     "theorem-check --which all runs the linear model at n = 2 only "
     "(at n = 3: --which transport)"),
    (["theorem-check", "--which", "limits", "--model", "linear", "--n", "3"],
     "theorem-check --which limits runs the linear model at n = 2 only "
     "(at n = 3: --which transport)"),
    (["theorem-check", "--which", "normal-closure", "--model", "linear"],
     "theorem-check --which normal-closure runs on the shift model only"),
    (["theorem-check", "--which", "quotient-anisotropy", "--model", "linear"],
     "theorem-check --which quotient-anisotropy runs on the shift model only"),
    (["scale", "--model", "linear", "--n", "3", "--p", "5"],
     "scale of a 3x3 matrix needs p in {2, 3}"),
    (["theorem-check", "--which", "transport", "--horizon", "0"],
     "theorem-check --which transport needs --horizon >= 2 on the linear model"),
    (["theorem-check", "--model", "linear", "--horizon", "1"],
     "theorem-check --which all needs --horizon >= 2 on the linear model"),
    (["theorem-check", "--which", "transport", "--model", "linear", "--n", "3",
      "--horizon", "1"],
     "theorem-check --which transport needs --horizon >= 2 on the linear model"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_narrowed_range_exits_2_before_computing(argv, message, capsys, monkeypatch):
    for name in cli.CHECKS:
        monkeypatch.setitem(cli.CHECKS, name, None)
    monkeypatch.setattr(cli.tidy, "scale_index", None)
    code, rows, err = run(argv, capsys)
    assert (code, rows, err) == (2, [], f"error: {message}\n")


@pytest.mark.parametrize("command", [["tidy"], ["conjugator", "--two-sided"]], ids=" ".join)
@pytest.mark.parametrize("m", [4097, -1000000000])
def test_shift_past_the_part_cap_exits_2_before_forming_parts(command, m, capsys, monkeypatch):
    # The parts' sets would be read over about 3|m| positions.
    monkeypatch.setattr(shift, "forward_union", None)
    argv = [*command, "--model", "shift", "--g", f"shift:{m}", "--U", "W:0"]
    message = f"error: the parts of U for shift:{m} need |m| <= {shift.PART_SHIFT_CAP}\n"
    assert run(argv, capsys) == (2, [], message)


@pytest.mark.parametrize("argv, message", [
    (["tidy", "--model", "linear", "--U", "0,0"], "expected a 2x2 shape"),
    (["scale", "--model", "linear", "--g", "1/0,0;0,1"], "cannot parse matrix '1/0,0;0,1'"),
    (["scale", "--model", "shift", "--g", "lamp:x"],
     "cannot parse shift-model element 'lamp:x'"),
    (["tidy", "--model", "shift", "--U", "W:x"],
     "cannot parse shift-model subgroup 'W:x' (use W:k, W:none or W:all)"),
    (["experiment", "limits", "--n-max", "-1"], "n_max must be in [1, 12], got -1"),
    (["experiment", "limits", "--n-max", "0"], "n_max must be in [1, 12], got 0"),
    (["experiment", "limits", "--n-max", "13"], "n_max must be in [1, 12], got 13"),
    (["tidy", "--U", "W:3"], "--U needs --model: a subgroup is read in one model"),
    (["conjugator", "--U", "W:3"], "--U needs --model: a subgroup is read in one model"),
    # Met while a row is computed: bad input is not a row failure.
    (["conjugator", "--model", "shift", "--u", "lamp:0"], "u must lie in U"),
    # No lamp lies in the trivial subgroup, so the default u cannot either.
    (["conjugator", "--model", "shift", "--U", "W:all"], "u must lie in U"),
    (["conjugator", "--model", "shift", "--U", "W:all", "--two-sided"], "u must lie in U"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_bad_input_exits_2(argv, message, capsys):
    assert run(argv, capsys) == (2, [], f"error: {message}\n")


@pytest.mark.parametrize("argv, u", [
    ([], "lamp:2"),
    (["--two-sided"], "lamp:2"),
    (["--g", "shift:-2", "--U", "W:0"], "lamp:2"),
    (["--U", "W:2"], "lamp:3"),
    (["--U", "W:2", "--two-sided"], "lamp:3"),
    (["--g", "shift:-2", "--U", "W:0", "--two-sided"], "lamp:3"),
    (["--g", "shift:-1", "--U", "W:2", "--two-sided"], "lamp:4"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_default_shift_u_is_the_nearest_lamp_that_qualifies(argv, u, capsys):
    code, rows, _ = run(["conjugator", "--model", "shift", *argv], capsys)
    assert code == 0 and [row["params"]["u"] for row in rows] == [u]


def test_default_shift_u_takes_the_right_lamp_of_two_and_may_lie_left():
    model = shift.ShiftModel(2)
    g = model.parse_element("shift:1")
    for fin, i in [((2,), 3), ((2, 3), 1), ((1, 2, 3), 4)]:
        U = shift.ShiftOpen(2, vanish_set(fin=fin))
        assert model.default_u(g, U, False) == shift.lamp_element(2, {i: 1})


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config "),
    ("{", "cannot read config "),
    ("5", "a config file holds one JSON object"),
])
def test_unreadable_config_exits_2(content, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    if content is not None:
        path.write_text(content)
    code, rows, err = run(["scale", "--config", str(path)], capsys)
    assert (code, rows) == (2, []) and err.startswith(f"error: {message}")


def test_transport_runs_at_n3(capsys):
    argv = ["theorem-check", "--which", "transport", "--model", "linear", "--n", "3"]
    code, rows, _ = run(argv, capsys)
    assert code == 0 and [row["params"]["g"] for row in rows] == ["4,0,0;0,2,0;0,0,1"]


class TestScaleResolution:
    def _spy(self, monkeypatch):
        seen = []
        real = cli.tidy.find_tidy

        def find_tidy(model, g, K=None, *args, **kwargs):
            seen.append(K)
            return real(model, g, K, *args, **kwargs)

        monkeypatch.setattr(cli.tidy, "find_tidy", find_tidy)
        return seen

    def test_resolution_reaches_find_tidy(self, capsys, monkeypatch):
        seen = self._spy(monkeypatch)
        code, rows, _ = run(
            ["scale", "--model", "linear", "--g", "2,0;0,1/2",
             "--resolution", "1"],
            capsys,
        )
        assert seen == [1]
        assert code == 0 and rows[0]["scale"] == rows[0]["formula"] == 4

    def test_default_resolution_left_to_the_model(self, capsys, monkeypatch):
        seen = self._spy(monkeypatch)
        code, _, _ = run(["scale", "--model", "shift"], capsys)
        assert code == 0 and seen == [None]


class TestTheoremCheck:
    def test_unknown_check_exits_2(self, capsys):
        code, rows, err = run(["theorem-check", "--which", "nonsense"], capsys)
        assert code == 2 and not rows
        assert "valid names" in err

    def test_single_battery(self, capsys):
        code, rows, _ = run(
            ["theorem-check", "--which", "normal-closure"], capsys
        )
        assert code == 0
        assert all(row["check"] == "normal-closure" for row in rows)
        assert {row["params"]["p"] for row in rows} == {2, 3}

    def test_determinism_byte_identical(self, capsys):
        argv = ["theorem-check", "--which", "transport", "--seed", "3"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second and first

    def test_model_filter(self, capsys):
        code, rows, _ = run(
            ["theorem-check", "--which", "scale", "--model", "shift"], capsys
        )
        assert code == 0
        assert {row["model"] for row in rows} == {"shift"}


def test_invalid_flag_value_exits_2(capsys):
    code, rows, err = run(["scale", "--p", "9"], capsys)
    assert code == 2 and not rows and "error:" in err


@pytest.mark.parametrize("argv, config", [
    (["scale", "--model", "shift"], {"resolution": 2.5}),
    (["conjugator"], {"horizon": 3.0}),
    (["scale", "--model", "shift"], {"samples": True}),
    (["scale", "--model", "shift"], {"p": 2.0}),
    (["scale", "--model", "shift"], {"out": 5}),
])
def test_mistyped_config_value_exits_2(argv, config, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code, rows, err = run(argv + ["--config", str(path)], capsys)
    name = next(iter(config))
    assert code == 2 and not rows and f"error: {name} must be of type" in err


def test_mistyped_config_message_names_the_type(tmp_path, capsys):
    for config, message in (({"resolution": 2.5}, "resolution must be of type int, got 2.5"),
                            ({"out": 5}, "out must be of type str, got 5")):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code, rows, err = run(["scale", "--model", "shift", "--config", str(path)], capsys)
        assert (code, rows, err) == (2, [], f"error: {message}\n")


@pytest.mark.parametrize("command", ["tidy", "conjugator"])
@pytest.mark.parametrize("subgroup", [[], ["--U", "0,1;0,0"]], ids=["default-U", "given-U"])
def test_non_integral_eigenbasis_is_named(command, subgroup, capsys):
    # g = ((0,1),(1,0)) lies in GL_2(Z_2), but its eigenbasis ((-1,1),(1,1))
    # has determinant -2, not a 2-adic unit; at p = 3 it is a unit.
    argv = [command, "--model", "linear", "--g", "0,1;1,0", *subgroup]
    code, rows, err = run(argv, capsys)
    assert (code, rows) == (2, [])
    assert err == ("error: eigenbasis is not p-integral with unit determinant; "
                   "window computations are unavailable for this element\n")
    code, rows, _ = run(argv + ["--p", "3"], capsys)
    assert code == 0 and len(rows) == 1 and rows[0]["pass"]


@pytest.mark.parametrize("middle", ["1", "2"])
def test_18_digit_3x3_matrix_exits_at_once(middle, capsys):
    # A divisor search for the eigenvalue 10^18 would run to 10^9;
    # bisection finds it.  Both spectra lack an integral eigenbasis.
    argv = ["scale", "--model", "linear", "--n", "3",
            "--g", f"1000000000000000000,1,0;0,{middle},0;0,0,1"]
    start = time.perf_counter()
    code, rows, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (code, rows) == (2, []) and err.startswith("error: ") and "eigen" in err


@pytest.mark.parametrize("p", [5, 7])
def test_untidy_u_exits_at_once_with_its_level(p, capsys):
    # The zero shape (all of GL_3(Z_p)) is not tidy above for diag(p^2, p, 1)
    # at level 1; the verdict comes from orders, and no product set of
    # GL_3(F_p)-sized images is formed.
    argv = ["conjugator", "--model", "linear", "--n", "3", "--p", str(p),
            "--U", "0,0,0;0,0,0;0,0,0"]
    start = time.perf_counter()
    code, rows, err = run(argv, capsys)
    assert time.perf_counter() - start < 5
    assert (code, rows, err) == (2, [], "error: U is not tidy above for g (level 1)\n")


#: Commands run one after another in one process: a flag given to one
#: (`--two-sided`, `--model`) must not leak into the next, which omits it.
SEQUENCE = [
    ["conjugator", "--model", "shift", "--horizon", "4", "--two-sided"],
    ["conjugator", "--model", "shift", "--horizon", "4"],
    ["scale", "--p", "9"],
    ["theorem-check", "--which", "scale", "--seed", "3"],
]


def test_commands_in_one_process_print_as_in_a_fresh_one(capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in SEQUENCE:
        code = cli.main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "tdlcw.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


#: The benchmark's pinned stdout digests, one per seed-7 command; read only.
PINNED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json")
    .read_text())


@pytest.mark.parametrize("command", sorted(PINNED))
def test_stdout_matches_pinned_sha256(command, capsys):
    assert cli.main(command.split(" ")) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED[command]


#: stdout digest of the default `experiment limits` (the net-limit rows).
EXPERIMENT_LIMITS_SHA256 = (
    "16b94c5965f04708e4ae48423557d9698107b79ab934d156f6f5888cbdda292d")


def test_experiment_limits_stdout_sha256(capsys):
    assert cli.main(["experiment", "limits"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPERIMENT_LIMITS_SHA256


#: The documented parameter range: the range probe's commands (copied, not
#: imported, from the benchmark's workloads) plus finer resolutions whose
#: images exceed the enumeration cap and so must never be materialized.
RANGE_COMMANDS = [
    [command, "--model", "shift", "--p", str(p)]
    for p in (2, 3, 5, 7) for command in ("scale", "nub")
] + [
    ["conjugator", "--model", "linear", "--n", "3", "--two-sided"],
    ["nub", "--model", "shift", "--p", "3", "--resolution", "8"],
    ["nub", "--model", "linear", "--p", "7", "--resolution", "8"],
    ["nub", "--model", "linear", "--n", "3", "--p", "5"],
    ["nub", "--model", "linear", "--n", "3", "--p", "7"],
    ["experiment", "limits", "--resolution", "8"],
    # Con-closure images in two unrelated eigenbases, compared by generators.
    ["experiment", "limits", "--model", "linear", "--p", "7", "--resolution", "8"],
    ["experiment", "limits", "--n-max", "12"],
    ["experiment", "limits", "--model", "linear", "--n", "3"],
    # No levels at all (min_level is 1): every level-wise identity is vacuous.
    ["experiment", "limits", "--model", "linear", "--resolution", "0"],
    ["scale", "--resolution", "4"],
    # An 18-digit eigenvalue: its roots come from bisection.
    ["scale", "--model", "linear", "--g", "1000000000000000000,1;0,1"],
] + [
    # The default u of the shift model, the lamp nearest 2 that qualifies:
    # the lamp at 2 lies neither in W:2 nor, for shift:-2, in g^-1 W:0 g.
    ["conjugator", "--model", "shift", "--U", "W:2"],
    ["conjugator", "--model", "shift", "--g", "shift:-2", "--U", "W:0", "--two-sided"],
] + [
    # A maximal parahoric U of GL_3 whose determinant does not split mod p:
    # its orders have a closed form at every resolution.
    ["tidy", "--model", "linear", "--n", "3", "--p", str(p),
     "--g", f"{p * p},0,0;0,{p},0;0,0,1", "--U", "0,0,1;0,0,1;0,0,0", "--resolution", str(K)]
    for p in (2, 3, 5) for K in (1, 3, 8)
] + [
    # Translates of W:k by g that leave gaps (2k + 1 < |m| <= 5): U_+ and
    # U_- vanish on periodic sets.  The lamp at 9 lies in U and g^-1 U g
    # for every such g.
    [*command, "--model", "shift", "--p", str(p), "--g", g, "--U", U]
    for p in (2, 3)
    for g, U in [("shift:2", "W:0"), ("lamp:0*shift:-3", "W:0"), ("shift:4", "W:1"),
                 ("lamp:1,-2*shift:-5", "W:1"), ("lamp:3*shift:5", "W:0")]
    for command in (["tidy"], ["conjugator", "--two-sided", "--u", "lamp:9"])
]


@pytest.mark.parametrize("argv", RANGE_COMMANDS, ids=" ".join)
def test_documented_range_runs_and_passes(argv, capsys):
    code, rows, err = run(argv, capsys)
    assert code == 0 and not err
    assert rows and all(row["pass"] is True for row in rows)


#: Element and subgroup texts per model, and malformed or unsupported ones.
TEXTS = {
    "shift": ["shift:1", "shift:-1", "shift:2", "lamp:0,3", "lamp:1*shift:1",
              "lamp-ep:01|0@0|01", "W:0", "W:1", "W:3"],
    "linear": ["2,0;0,1", "2,0;0,1/2", "1,1;0,1", "0,1;1,0", "1,2;0,1", "1,0;2,1",
               "9,0;0,1/3", "4,0,0;0,2,0;0,0,1", "1,0,0;0,1,0;2,0,1", "0,0;0,0",
               "0,1;0,0", "0,1,1;0,0,1;0,0,0"],
    None: ["bogus", "1/0,0;0,1", "1,0;0,0", "W:x", "lamp-ep:1", "0,-1;0,0"],
}
#: The flags each command takes besides the shared ones.
COMMAND_FLAGS = {"scale": ["--g"], "tidy": ["--g", "--U"],
                 "con-test": ["--g", "--x"], "nub": ["--g"],
                 "conjugator": ["--g", "--u", "--U"], "experiment limits": [],
                 "theorem-check": []}
#: The shared flags over their documented ranges (`RunConfig`).
SHARED = [("--p", st.sampled_from([2, 3, 5, 7])), ("--n", st.integers(2, 3)),
          ("--resolution", st.integers(0, 8)), ("--horizon", st.integers(0, 64)),
          ("--max-k", st.integers(0, 32)), ("--seed", st.integers(0, 99)),
          ("--samples", st.integers(1, 1000))]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = command.split()
    if command == "theorem-check":
        argv += ["--which", draw(st.sampled_from(sorted(cli.CHECKS) + ["all"]))]
    if command == "conjugator" and draw(st.booleans()):
        argv.append("--two-sided")
    if command == "experiment limits" and draw(st.booleans()):
        argv += ["--n-max", str(draw(st.integers(0, 12)))]
    model = draw(st.sampled_from([None, "shift", "linear"]))
    if model:
        argv += ["--model", model]
    for flag, values in SHARED:
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    texts = TEXTS[None] + 3 * TEXTS.get(model, TEXTS["shift"] + TEXTS["linear"])
    for flag in COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(texts))}")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=command_lines())
def test_every_command_line_keeps_the_exit_contract(argv):
    """0 when every row passes, 1 when a row failed (and every error row
    names its kind), 2 on bad input with one error line and no rows; never
    an exception."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert code in (0, 1) and not err.getvalue()
    assert all("kind" in row and "counterexample" in row for row in rows if "error" in row)
    assert (code == 1) == any(row["pass"] is not True for row in rows)


#: Command lines whose help, usage or error text the parser prints.
PARSER_LINES = [[command, *tail] for command in cli.COMMANDS
                for tail in (["--help"], ["--bogus", "1"], ["--p", "x"], [])] + [
    ["experiment", "limits", "--help"], ["experiment", "limits", "--n-max", "x"],
    ["experiment", "limits", "--g", "1"], ["experiment", "bogus"],
    ["conjugator", "--two-sided=1"], ["theorem-check", "--which"],
    ["conjugator", "--two-sided", "--model", "shift", "--horizon", "4"],
    ["experiment", "limits", "--n-max", "3", "--seed", "2"],
]


def _parse(parser, argv):
    """(exit code, stdout, stderr, parsed values) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code, values = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            values = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), values


@pytest.mark.parametrize("argv", PARSER_LINES, ids=" ".join)
def test_command_parser_prints_and_parses_as_the_full_one(argv):
    assert _parse(cli.build_parser(argv[0]), argv) == _parse(cli.build_parser(), argv)
