"""End-to-end tests for the experiment harness and CLI.

Small but complete runs: every artifact a run directory promises must exist,
parse, agree with independent recomputation, and reproduce byte-for-byte
under the same seed. These runs use tiny populations and vocabularies so the
whole file stays fast.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpsim import (
    ExperimentConfig,
    ParticipationSchema,
    PrivacyLedger,
    SweepConfig,
    compare,
    post_hoc_report,
    run_experiment,
    sweep_privacy,
    zcdp,
    zcdp_to_eps,
)
from fpsim.cli import main as cli_main
from fpsim.harness import (
    METRICS_COLUMNS,
    REPORT_DELTA,
    read_checkpoint,
    read_metrics,
    write_checkpoint,
)

SMALL_CONFIG = """
seed = 7
rounds = 12
report_goal = 8
population = 120
timer_rounds = 3
noise_multiplier = 0.5
model.vocab_size = 10
data.examples_per_client = 30
data.eval_examples = 200
clip.mode = adaptive
clip.c0 = 0.4
restart.mode = explicit
restart.rounds = 5, 9
"""


SECAGG_CONFIG = """
seed = 3
rounds = 10
report_goal = 6
population = 60
timer_rounds = 4
noise_multiplier = 0.8
model.vocab_size = 8
data.examples_per_client = 10
data.eval_examples = 100
clip.mode = fixed
clip.c0 = 0.5
secagg.enabled = true
restart.mode = explicit
restart.rounds = 6
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "small"
    config = ExperimentConfig.from_text(SMALL_CONFIG)
    result = run_experiment(config, out)
    return config, result


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        params = np.linspace(-2, 2, 37)
        path = tmp_path / "model.bin"
        write_checkpoint(path, params)
        np.testing.assert_array_equal(read_checkpoint(path), params)

    def test_magic_detected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTFPS" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.bin"
        write_checkpoint(path, np.ones(10))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            read_checkpoint(path)


class TestRunArtifacts:
    def test_expected_files_exist(self, small_run):
        _, result = small_run
        for name in (
            "metrics.csv",
            "checkpoint.bin",
            "participation.csv",
            "config.resolved",
            "report.csv",
            "report.txt",
        ):
            assert (result.directory / name).exists(), name

    def test_metrics_table_shape(self, small_run):
        _, result = small_run
        metrics = read_metrics(result.directory)
        assert tuple(metrics.keys()) == METRICS_COLUMNS
        assert len(metrics["round"]) == 12
        assert metrics["round"] == list(range(12))

    def test_cumulative_zcdp_nondecreasing(self, small_run):
        """The running column tracks the worst case the timer allows, so it
        can only tighten when the final report reads the actual log."""
        _, result = small_run
        rho = read_metrics(result.directory)["cumulative_zcdp"]
        assert all(a <= b + 1e-12 for a, b in zip(rho, rho[1:]))
        assert result.final_rho <= rho[-1] + 1e-12

    def test_cohorts_hit_report_goal_every_round(self, small_run):
        _, result = small_run
        assert set(read_metrics(result.directory)["cohort_size"]) == {8.0}

    def test_checkpoint_matches_model_dim(self, small_run):
        _, result = small_run
        params = read_checkpoint(result.directory / "checkpoint.bin")
        assert params.shape == (10 * 10,)

    def test_resolved_config_reparses_to_same_hash(self, small_run):
        config, result = small_run
        text = (result.directory / "config.resolved").read_text()
        assert ExperimentConfig.from_text(text).config_hash() == config.config_hash()
        assert result.config_hash == config.config_hash()

    def test_adaptive_clip_trace_changes(self, small_run):
        """The tracked quantile estimate must actually move during the run,
        and the active clip may only change at the configured restarts."""
        _, result = small_run
        metrics = read_metrics(result.directory)
        estimates = metrics["quantile_estimate"]
        assert len(set(estimates)) > 1
        active = metrics["active_clip"]
        changes = [t for t in range(1, 12) if active[t] != active[t - 1]]
        assert set(changes) <= {5, 9}


def _timer_prefix_rhos(config, run_dir):
    """cumulative_zcdp recomputed round by round: zcdp of each prefix's
    timer-worst-case schema, scaled like the run's final report."""
    report = post_hoc_report(run_dir)
    z, scale = report["z_equivalent"], report["sensitivity_scale"]
    worst_max_part = math.ceil(config.rounds / config.timer_rounds)
    restarts = config.restart_schedule().rounds
    rhos = [
        zcdp(z, ParticipationSchema(n, config.timer_rounds, worst_max_part, restarts)) * scale**2
        for n in range(1, config.rounds + 1)
    ]
    return rhos, scale


class TestCumulativeZcdp:
    def test_adaptive_run_with_restarts(self, small_run):
        config, result = small_run
        expected, _ = _timer_prefix_rhos(config, result.directory)
        assert read_metrics(result.directory)["cumulative_zcdp"] == expected

    def test_secagg_run_scales_every_row(self, tmp_path):
        config = ExperimentConfig.from_text(SECAGG_CONFIG)
        result = run_experiment(config, tmp_path / "secagg")
        expected, scale = _timer_prefix_rhos(config, result.directory)
        assert scale != 1.0
        assert read_metrics(result.directory)["cumulative_zcdp"] == expected


class TestReportConsistency:
    def test_rho_recomputable_from_participation_log(self, small_run):
        """The reported rho must equal an independent ledger built from the
        observed participation limits in the run's own log."""
        _, result = small_run
        report = post_hoc_report(result.directory)
        schema = ParticipationSchema(
            12,
            int(report["observed_min_sep"]),
            int(report["observed_max_part"]),
            (5, 9),
        )
        ledger = PrivacyLedger(
            schema,
            z=float(report["z_equivalent"]),
            sensitivity_scale=float(report["sensitivity_scale"]),
        )
        assert float(report["rho"]) == pytest.approx(ledger.rho, rel=1e-12)
        assert result.final_rho == pytest.approx(ledger.rho, rel=1e-12)

    def test_epsilon_consistent_with_rho(self, small_run):
        _, result = small_run
        report = post_hoc_report(result.directory)
        eps = zcdp_to_eps(float(report["rho"]), REPORT_DELTA)
        assert float(report["epsilon"]) == pytest.approx(eps, rel=1e-9)
        assert float(report["epsilon"]) <= float(report["epsilon_loose"]) + 1e-9

    def test_observed_limits_respect_timer(self, small_run):
        """A timer of 3 rounds makes observed separations at least 3."""
        _, result = small_run
        assert result.observed_min_sep >= 3
        assert result.observed_max_part <= math.ceil(12 / 3)

    def test_report_text_mentions_caveats(self, small_run):
        _, result = small_run
        text = (result.directory / "report.txt").read_text()
        assert "caveats" in text
        assert "Hyperparameter" in text
        assert "participation log" in text

    def test_run_result_limits_are_python_ints(self, small_run):
        _, result = small_run
        assert type(result.observed_max_part) is int
        assert type(result.observed_min_sep) is int


@pytest.fixture(scope="module")
def fixed_run(tmp_path_factory):
    """The small run with a fixed clip: 12 rounds, timer_rounds 3."""
    out = tmp_path_factory.mktemp("runs") / "fixed"
    config = ExperimentConfig.from_text(SMALL_CONFIG.replace("clip.mode = adaptive", "clip.mode = fixed"))
    return config, run_experiment(config, out)


def _tampered_log(run, tmp_path, edit):
    """A copy of a run's config and participation log, with the log's data
    rows passed through ``edit``."""
    _, result = run
    (tmp_path / "config.resolved").write_bytes((result.directory / "config.resolved").read_bytes())
    header, *rows = (result.directory / "participation.csv").read_text().splitlines()
    (tmp_path / "participation.csv").write_text("\n".join([header, *edit(rows)]) + "\n")
    return tmp_path


class TestParticipationLogValidation:
    """participation.csv is input from outside the program: post_hoc_report
    rejects a log no run could have written, naming the file."""

    def test_untampered_copy_accepted(self, small_run, tmp_path):
        _, result = small_run
        copy = _tampered_log(small_run, tmp_path, lambda rows: rows)
        assert post_hoc_report(copy)["rho"] == result.final_rho

    def test_round_outside_run_rejected(self, small_run, tmp_path):
        copy = _tampered_log(small_run, tmp_path, lambda rows: [*rows, "119,12"])
        with pytest.raises(ValueError, match=r"participation\.csv: round 12 lies outside \[0, 12\)"):
            post_hoc_report(copy)

    def test_negative_client_id_rejected(self, small_run, tmp_path):
        copy = _tampered_log(small_run, tmp_path, lambda rows: ["-1,0", *rows])
        with pytest.raises(ValueError, match=r"participation\.csv: negative client id -1"):
            post_hoc_report(copy)

    def test_repeated_pair_rejected(self, small_run, tmp_path):
        copy = _tampered_log(small_run, tmp_path, lambda rows: [rows[0], *rows])
        client_id, round_index = (copy / "participation.csv").read_text().splitlines()[1].split(",")
        with pytest.raises(
            ValueError,
            match=rf"participation\.csv: client {client_id} is listed twice for round {round_index}",
        ):
            post_hoc_report(copy)

    def test_header_only_log_rejected(self, small_run, tmp_path):
        copy = _tampered_log(small_run, tmp_path, lambda rows: [])
        with pytest.raises(
            ValueError, match=r"participation\.csv: round 0 lists 0 clients, not report_goal = 8"
        ):
            post_hoc_report(copy)

    def test_thinned_log_rejected(self, small_run, tmp_path):
        """Keeping one row per client would account every client as a
        single participation; each round must list report_goal clients."""

        def first_row_per_client(rows):
            return list({row.split(",")[0]: row for row in reversed(rows)}.values())

        copy = _tampered_log(small_run, tmp_path, first_row_per_client)
        with pytest.raises(ValueError, match=r"participation\.csv: round \d+ lists \d+ clients"):
            post_hoc_report(copy)

    def test_client_back_before_its_timer_rejected(self, fixed_run, tmp_path):
        """One client swapped into every round keeps each round at
        report_goal distinct clients, but no timer of 3 rounds lets a client
        back after 1."""

        def one_client_every_round(rows):
            client = rows[0].split(",")[0]
            by_round = {}
            for row in rows:
                by_round.setdefault(row.split(",")[1], []).append(row)
            out = []
            for round_index, round_rows in by_round.items():
                if client not in {row.split(",")[0] for row in round_rows}:
                    round_rows = [f"{client},{round_index}", *round_rows[1:]]
                out.extend(round_rows)
            return out

        config, result = fixed_run
        assert (config.rounds, config.timer_rounds, result.observed_min_sep) == (12, 3, 3)
        copy = _tampered_log(fixed_run, tmp_path, one_client_every_round)
        with pytest.raises(
            ValueError,
            match=r"participation\.csv: a client returns 1 round\(s\) after its previous one, "
            r"under timer_rounds = 3",
        ):
            post_hoc_report(copy)

    def test_timer_longer_than_the_run_accepted(self, tmp_path):
        """With no client back at all, the observed separation reads the run
        length, which a timer longer than the run does not make a violation."""
        text = SMALL_CONFIG.replace("clip.mode = adaptive", "clip.mode = fixed")
        config = ExperimentConfig.from_text(text.replace("timer_rounds = 3", "timer_rounds = 14"))
        result = run_experiment(config, tmp_path / "run")
        assert (result.observed_max_part, result.observed_min_sep) == (1, 12)
        assert post_hoc_report(result.directory)["rho"] == result.final_rho


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        config = ExperimentConfig.from_text(SMALL_CONFIG)
        a = run_experiment(config, tmp_path / "a")
        b = run_experiment(config, tmp_path / "b")
        for name in ("metrics.csv", "checkpoint.bin", "participation.csv", "report.csv"):
            assert (a.directory / name).read_bytes() == (b.directory / name).read_bytes(), name

    def test_seed_changes_the_outputs(self, tmp_path):
        base = ExperimentConfig.from_text(SMALL_CONFIG)
        other = ExperimentConfig.from_text(SMALL_CONFIG.replace("seed = 7", "seed = 8"))
        a = run_experiment(base, tmp_path / "a")
        b = run_experiment(other, tmp_path / "b")
        assert (a.directory / "metrics.csv").read_bytes() != (
            b.directory / "metrics.csv"
        ).read_bytes()


class TestWarmStart:
    def test_warm_start_loads_checkpoint(self, small_run, tmp_path):
        _, result = small_run
        warm_cfg = ExperimentConfig.from_text(
            SMALL_CONFIG + f"warm_start = {result.directory / 'checkpoint.bin'}\n"
        )
        warm = run_experiment(warm_cfg, tmp_path / "warm")
        # Warm start resumes from trained weights: round-0 accuracy must beat
        # the cold run's zero-weight round-0 accuracy.
        cold_acc = read_metrics(result.directory)["eval_acc"]
        warm_acc = read_metrics(warm.directory)["eval_acc"]
        assert warm_acc[0] > cold_acc[0]

    def test_dimension_mismatch_rejected(self, tmp_path):
        write_checkpoint(tmp_path / "tiny.bin", np.zeros(4))
        cfg = ExperimentConfig.from_text(
            SMALL_CONFIG + f"warm_start = {tmp_path / 'tiny.bin'}\n"
        )
        with pytest.raises(ValueError):
            run_experiment(cfg, tmp_path / "run")


class TestCompare:
    def test_self_comparison_is_a_wash(self, small_run):
        _, result = small_run
        rows = compare(result.directory, result.directory)
        assert len(rows) == 2
        assert rows[0]["final_accuracy"] == rows[1]["final_accuracy"]
        assert rows[0]["rounds_to_threshold"] == rows[1]["rounds_to_threshold"]
        assert rows[0]["rho"] == rows[1]["rho"]

    def test_threshold_crossing_round(self, small_run, tmp_path):
        _, result = small_run
        rows = compare(result.directory, result.directory, threshold=0.0)
        # Accuracy is nonnegative, so the crossing happens at round 0.
        assert rows[0]["rounds_to_threshold"] == 0
        unreachable = compare(result.directory, result.directory, threshold=2.0)
        assert unreachable[0]["rounds_to_threshold"] is None


class TestSweepPrivacy:
    def test_writes_table(self, tmp_path):
        cfg = SweepConfig(
            z=7.0, report_goal=100, population=10_000, rounds=(128, 512), scaling=(1.0, 2.0)
        )
        out = tmp_path / "sweep.csv"
        rows = sweep_privacy(cfg, out)
        assert len(rows) == 4
        header = out.read_text().splitlines()[0]
        assert header == "total_rounds,report_goal,z,min_sep,max_part,rho"


class TestCli:
    def test_run_and_account_and_compare(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert cli_main(["account", "--run", str(out)]) == 0
        assert cli_main(["compare", str(out), str(out)]) == 0

    def test_account_from_flags(self, capsys):
        rc = cli_main(
            ["account", "--rounds", "4", "--min-sep", "1", "--max-part", "1", "--z", "7"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rho" in out

    def test_account_rejects_zero_max_part(self, capsys):
        flags = ["--rounds", "4", "--min-sep", "1", "--max-part", "0", "--z", "7"]
        assert cli_main(["account", *flags]) == 1
        assert "max_part" in capsys.readouterr().err

    def test_account_delta_sets_epsilon(self, capsys):
        """--delta reaches the report row: epsilon is the tight conversion
        of the schema's rho at that delta."""
        flags = ["--rounds", "4", "--min-sep", "1", "--max-part", "1", "--z", "7"]
        assert cli_main(["account", *flags, "--delta", "1e-6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rho = zcdp(7.0, ParticipationSchema(total_rounds=4, min_sep=1, max_part=1))
        assert f"rho: {rho!r}" in lines
        assert "delta: 1e-06" in lines
        assert f"epsilon: {zcdp_to_eps(rho, 1e-6)!r}" in lines

    def test_sweep_grid(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            "sweep.z = 7\nsweep.report_goal = 100\nsweep.population = 10000\n"
            "sweep.rounds = 128\nsweep.scaling = 1\n"
        )
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
        assert out.exists()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("rounds = -5\n")
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_secagg_modulus_overflow_fails_before_training(self, tmp_path, capsys):
        """A scale whose modulus cannot be summed in int64 stops the run at
        setup with an error naming the key, not mid-round."""
        cfg_path = tmp_path / "wide.cfg"
        cfg_path.write_text(SECAGG_CONFIG + "secagg.s = 1e19\n")
        out = tmp_path / "wide"
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert "secagg.s" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            (SECAGG_CONFIG.replace("clip.c0 = 0.5", "clip.c0 = inf"), "clip.c0"),
            (SECAGG_CONFIG + "secagg.s = inf\n", "secagg.s"),
            (SMALL_CONFIG.replace("clip.c0 = 0.4", "clip.c0 = inf"), "clip.c0"),
            (
                SMALL_CONFIG.replace("clip.mode = adaptive", "clip.mode = fixed").replace(
                    "clip.c0 = 0.4", "clip.c0 = inf"
                ),
                "clip.c0",
            ),
        ],
        ids=["secagg-clip", "secagg-scale", "adaptive-clip", "fixed-clip"],
    )
    def test_infinite_clip_or_scale_exits_naming_the_key(self, tmp_path, capsys, text, key):
        """An infinite clip norm in a private or SecAgg run, or an infinite
        SecAgg scale, exits 1 with the key before training, not with an
        uncaught OverflowError or a divergence at round 0."""
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "inf"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPSIM_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CONFIG)
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        children = list((tmp_path / "root").iterdir())
        assert len(children) == 1
        assert (children[0] / "metrics.csv").exists()
