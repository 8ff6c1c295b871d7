"""Command-line surface: config handling, determinism, and exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from tdlcw import cli


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


class TestElementParsing:
    def test_subgroup_roundtrip_shift(self):
        model = cli.ShiftModel(2)
        U = cli.parse_subgroup(model, "W:2")
        assert cli.format_subgroup(model, U) == "W:2"

    def test_subgroup_roundtrip_linear(self):
        model = cli.LinearModel(2, 2)
        U = cli.parse_subgroup(model, "0,1;0,0")
        assert cli.format_subgroup(model, U) == "0,1;0,0"
        inf_shape = cli.parse_subgroup(model, "0,inf;inf,0")
        assert cli.format_subgroup(model, inf_shape) == "0,inf;inf,0"

    def test_bad_subgroup_text(self):
        with pytest.raises(ValueError):
            cli.parse_subgroup(cli.ShiftModel(2), "whatever")


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

    def test_transport_failure_names_its_counterexample(self, capsys):
        code, rows, err = run(
            ["theorem-check", "--which", "transport", "--model", "linear",
             "--horizon", "0"],
            capsys,
        )
        assert code == 1 and not err
        (row,) = rows
        assert row["pass"] is False
        assert row["error"] == "t con(g) t^-1 sample escapes con(gu)"
        assert cli.LinearModel(2, 2).parse_element(row["counterexample"])

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
    ["experiment", "limits", "--resolution", "8"],
    ["scale", "--resolution", "4"],
]


@pytest.mark.parametrize("argv", RANGE_COMMANDS, ids=" ".join)
def test_documented_range_runs_and_passes(argv, capsys):
    code, rows, err = run(argv, capsys)
    assert code == 0 and not err
    assert rows and all(row["pass"] is True for row in rows)
