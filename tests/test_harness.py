"""End-to-end tests for the experiment harness and CLI.

Small but complete runs: every artifact a run directory promises must exist,
parse, agree with independent recomputation, and reproduce byte-for-byte
under the same seed. These runs use tiny populations and vocabularies so the
whole file stays fast.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fpsim import (
    ExperimentConfig,
    ParticipationSchema,
    PrivacyLedger,
    SeedPath,
    SweepConfig,
    TrainingDiverged,
    compare,
    post_hoc_report,
    run_experiment,
    start_run,
    sweep_privacy,
    synthesize_clients,
    zcdp,
    zcdp_to_eps,
)
from fpsim import harness
from fpsim.cli import main as cli_main
from fpsim.harness import (
    METRICS_COLUMNS,
    REPORT_DELTA,
    read_checkpoint,
    read_metrics,
    write_checkpoint,
)
from oracles import reference_participation_csv, reference_restart_rounds

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

    def test_short_header_rejected(self, tmp_path):
        """A file that ends inside the 8-byte count is a ValueError naming
        the file, not a struct.error."""
        path = tmp_path / "short.bin"
        path.write_bytes(b"FPSIM1" + b"\x01\x00\x00")
        message = f"{path}: malformed checkpoint: 9 bytes, expected 14 "
        with pytest.raises(ValueError, match=re.escape(message)):
            read_checkpoint(path)

    def test_ragged_payload_rejected(self, tmp_path):
        """A payload that is not whole float64s names the file and both byte
        counts."""
        path = tmp_path / "ragged.bin"
        write_checkpoint(path, np.ones(3))
        path.write_bytes(path.read_bytes()[:-3])
        message = f"{path}: malformed checkpoint: 35 bytes, expected 38 "
        with pytest.raises(ValueError, match=re.escape(message)):
            read_checkpoint(path)

    def test_overlong_payload_rejected(self, tmp_path):
        """Bytes past the header's count are an error too, and not called a
        truncation."""
        path = tmp_path / "long.bin"
        write_checkpoint(path, np.ones(3))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        message = f"{path}: malformed checkpoint: 46 bytes, expected 38 "
        with pytest.raises(ValueError, match=re.escape(message)):
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
    restarts = reference_restart_rounds(config)
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

    def test_lowest_repeated_pair_named(self, small_run, tmp_path):
        """With two pairs repeated, the error names the lower in (client,
        round) order, whichever comes first in the file."""
        copy = _tampered_log(small_run, tmp_path, lambda rows: [rows[-1], rows[3], *rows])
        _, *rows = (copy / "participation.csv").read_text().splitlines()
        high, low = (tuple(map(int, row.split(","))) for row in rows[:2])
        assert low < high
        with pytest.raises(
            ValueError,
            match=rf"participation\.csv: client {low[0]} is listed twice for round {low[1]}$",
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

    def test_malformed_log_rejected(self, small_run, tmp_path):
        """A log under another header, or with a row that is not two
        integers, is refused naming the file; no reader warning leaks."""
        copy = _tampered_log(small_run, tmp_path, lambda rows: rows)
        log = copy / "participation.csv"
        text = log.read_text()
        log.write_text(text.replace("client_id,round", "round,client_id", 1))
        with pytest.raises(ValueError, match=r"participation\.csv: header 'round,client_id'"):
            post_hoc_report(copy)
        for row in ("3,x", "3", "2.5,1"):
            log.write_text(text + row + "\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"participation\.csv: "):
                    post_hoc_report(copy)
        log.write_text("client_id,round\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"participation\.csv: round 0 lists 0 clients"):
                post_hoc_report(copy)

    def test_log_read_peaks_under_100_bytes_per_row(self, tmp_path):
        """A valid 2048-round log of 100 clients a round (round t lists
        clients 100 t onward, modulo the population) is read, checked and
        accounted in under 100 bytes per row at the traced peak, not as a
        list of Python int pairs (~190 bytes per row)."""
        config = ExperimentConfig(rounds=2048, population=100_000, report_goal=100)
        rows = config.rounds * config.report_goal
        (tmp_path / "config.resolved").write_text(config.canonical_text())
        rounds = np.repeat(np.arange(config.rounds), config.report_goal)
        harness._write_participation(
            tmp_path / "participation.csv", np.arange(rows) % config.population, rounds
        )
        tracemalloc.start()
        try:
            report = post_hoc_report(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report["observed_max_part"], report["observed_min_sep"]) == (3, 1000)
        assert peak < 100 * rows


class TestParticipationWriter:
    def test_chunked_log_matches_the_one_string_formula(self, tmp_path, monkeypatch):
        """A run whose log spans more than two write chunks, the last one
        partial, writes the bytes of the whole log formatted as one string."""
        logs = []
        write = harness._write_participation

        def spy(path, client_ids, rounds):
            logs.append((client_ids.copy(), rounds.copy()))
            write(path, client_ids, rounds)

        monkeypatch.setattr(harness, "_write_participation", spy)
        chunk = harness._PARTICIPATION_CHUNK_ROWS
        config = ExperimentConfig(
            seed=5,
            rounds=2 * chunk // 50 + 3,
            report_goal=50,
            population=1000,
            timer_rounds=10,
            noise_multiplier=0.5,
            vocab_size=8,
            examples_per_client=10,
            eval_examples=100,
            clip_mode="fixed",
        )
        result = run_experiment(config, tmp_path / "run")
        ((client_ids, rounds),) = logs
        assert client_ids.size > 2 * chunk and client_ids.size % chunk
        written = (result.directory / "participation.csv").read_bytes()
        assert written == reference_participation_csv(client_ids, rounds).encode()


class TestStartRun:
    def test_state_at_round_zero(self):
        """start_run builds the run from its config alone: the config's
        one derivation of the privacy terms, the noise trees, clip state and
        seed derived from them, its population, and a round loop that has
        not started."""
        config = ExperimentConfig.from_text(SMALL_CONFIG)
        state = start_run(config)
        terms = state.terms
        assert terms is config.privacy_terms()
        assert state.delta_tree.z == terms.z_delta
        assert state.delta_tree.clip_norm == config.clip_c0
        assert state.clip.sigma_b == terms.sigma_b > 0
        assert state.clip.cohort_size == config.report_goal
        assert state.seed == SeedPath(config.seed).child("federation")
        assert state.model.num_params == config.vocab_size**2
        assert state.data.labels.shape == (config.population, config.examples_per_client)
        assert state.eval_set.labels.shape == (1, config.eval_examples)
        assert state.round == 0 and state.history == []
        assert state.log.shape == (config.rounds, config.report_goal)
        np.testing.assert_array_equal(state.next_eligible, np.zeros(config.population))
        np.testing.assert_array_equal(state.theta, state.theta0)
        assert state.clip is not None and state.active_clip == config.clip_c0


class TestRoundClock:
    def test_one_select_cohort_per_round_after_synthesis(self, tmp_path, monkeypatch):
        """A round clock that wraps harness.select_cohort (as the benchmark
        worker's does) sees every round start and nothing else: the loop
        looks select_cohort up as the harness module's global, once per
        round, and only after the population is synthesized."""
        events = []

        def recording(name, inner):
            def wrapped(*args, **kwargs):
                events.append(name)
                return inner(*args, **kwargs)

            return wrapped

        # Every fpsim module's binding of synthesize_clients is wrapped, so
        # the order holds wherever the run synthesizes its population.
        for name, module in list(sys.modules.items()):
            if name == "fpsim" or name.startswith("fpsim."):
                for attribute, value in list(vars(module).items()):
                    if value is synthesize_clients:
                        wrapped = recording("synthesize_clients", synthesize_clients)
                        monkeypatch.setattr(module, attribute, wrapped)
        select = recording("select_cohort", harness.select_cohort)
        monkeypatch.setattr(harness, "select_cohort", select)
        config = ExperimentConfig.from_text(SMALL_CONFIG)
        run_experiment(config, tmp_path / "run")
        assert events == ["synthesize_clients"] + ["select_cohort"] * config.rounds


DIVERGING_CONFIG = """
rounds = 20
report_goal = 10
population = 400
eta_c = 1e308
noise_multiplier = 0
clip.mode = fixed
clip.c0 = 1.0
"""


class TestDivergence:
    @pytest.mark.parametrize(
        "edits",
        [{}, {"clip.c0 = 1.0": "clip.c0 = 1.0\nsecagg.enabled = true"}, {"1.0": "inf"}],
        ids=["plain", "secagg", "unclipped"],
    )
    def test_non_finite_updates_stop_the_run_naming_the_round(self, tmp_path, edits):
        """Local steps of eta_c = 1e308 leave every client's delta finite
        but overflow its norm at round 0, and the run must stop there with
        TrainingDiverged naming the round, before the round's sum reaches
        the noise tree or the SecAgg encoder.  Clipped to a finite norm, an
        overflowed delta would be scaled to zero, and the run would finish
        all 20 rounds on zero updates, with or without SecAgg; unclipped,
        its entries would be summed until the sum overflowed rounds later."""
        text = DIVERGING_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        config = ExperimentConfig.from_text(text)
        assert config.secagg_enabled == ("secagg" in text)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDiverged, match=r"^non-finite client updates at round 0$"
        ):
            run_experiment(config, tmp_path / "run")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        config = ExperimentConfig.from_text(SMALL_CONFIG)
        a = run_experiment(config, tmp_path / "a")
        b = run_experiment(config, tmp_path / "b")
        for name in ("metrics.csv", "checkpoint.bin", "participation.csv", "report.csv"):
            assert (a.directory / name).read_bytes() == (b.directory / name).read_bytes(), name

    def test_byte_identical_reruns_at_a_two_byte_vocabulary(self, tmp_path):
        """At V = 300 the tokens are stored as uint16, and a short run still
        reproduces every artifact."""
        config = ExperimentConfig.from_text(
            SMALL_CONFIG.replace("model.vocab_size = 10", "model.vocab_size = 300")
            .replace("rounds = 12", "rounds = 6")
            .replace("restart.rounds = 5, 9", "restart.rounds = 4")
        )
        assert start_run(config).data.tokens.dtype == np.uint16
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
        with pytest.raises(
            ValueError, match=r"^warm_start checkpoint has 4 parameters, model needs 100$"
        ):
            run_experiment(cfg, tmp_path / "run")
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_malformed_checkpoint_fails_cleanly_in_cli(self, tmp_path, capsys):
        """A warm_start file too short for its header exits 1 with the
        file's name, instead of a traceback."""
        bad = tmp_path / "short.bin"
        bad.write_bytes(b"FPSIM1\x00")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CONFIG + f"warm_start = {bad}\n")
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert f"{bad}: malformed checkpoint" in capsys.readouterr().err


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

    def test_account_run_refuses_schema_flags(self, small_run, capsys):
        """With --run the schema is the run's own: a schema flag is an error
        naming it, while --delta still sets the report's delta."""
        run = str(small_run[1].directory)
        cases = [
            (["--rounds", "4"], "--rounds"),
            (["--min-sep", "2"], "--min-sep"),
            (["--max-part", "3"], "--max-part"),
            (["--restarts", "3,x", "--rounds", "0"], "--rounds --restarts"),
            (["--z", "7"], "--z"),
            (["--sensitivity-scale", "1"], "--sensitivity-scale"),
        ]
        for flags, named in cases:
            assert cli_main(["account", "--run", run, *flags]) == 1, flags
            err = capsys.readouterr().err
            assert err == f"error: --run accounts the run's own schema; drop {named}\n"
        assert cli_main(["account", "--run", run, "--delta", "1e-6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "delta: 1e-06" in lines
        assert f"epsilon: {post_hoc_report(run, 1e-6)['epsilon']!r}" in lines

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
        err = capsys.readouterr().err
        assert "max_part" in err
        assert err.startswith("error: --max-part: ")

    @pytest.mark.parametrize(
        "flag, value, why",
        [
            ("--restarts", "3,x", "invalid literal for int()"),
            ("--restarts", "5,3", "restart rounds must be strictly increasing"),
            ("--restarts", "0,5", "first restart round must be >= 1"),
            ("--rounds", "0", "total_rounds must be >= 1"),
            ("--min-sep", "0", "min_sep must be >= 1"),
        ],
    )
    def test_account_schema_errors_name_the_flag(self, capsys, flag, value, why):
        flags = {"--rounds": "8", "--min-sep": "1", "--max-part": "2", "--z": "7"}
        flags[flag] = value
        assert cli_main(["account", *(item for pair in flags.items() for item in pair)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ")
        assert why in err

    def test_account_prints_the_schema_it_accounts(self, capsys):
        """A --max-part above ceil(rounds / min_sep) is capped by the schema,
        and the report prints the capped value that rho is accounted at."""
        flags = ["--rounds", "4", "--min-sep", "2", "--max-part", "5", "--z", "7"]
        assert cli_main(["account", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "observed_max_part: 2" in lines
        assert "observed_min_sep: 2" in lines
        rho = zcdp(7.0, ParticipationSchema(total_rounds=4, min_sep=2, max_part=2))
        assert f"rho: {rho!r}" in lines

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

    def test_account_note_names_the_cause_of_an_infinite_rho(self, capsys):
        """z = 0 keeps its note; a nonzero z whose 2 z^2 underflows leaves rho
        infinite too, and its note names the infinite rho, not a zero z."""
        flags = ["account", "--rounds", "4", "--min-sep", "1", "--max-part", "1", "--z"]
        assert cli_main([*flags, "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "NOTE: noise multiplier 0 — this run is NOT differentially private." in lines
        assert cli_main([*flags, "1e-200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "noise_multiplier: 1e-200" in lines
        assert "rho: inf" in lines
        assert (
            "NOTE: rho is infinite: the noise multiplier is too small to account "
            "— this run is NOT differentially private."
        ) in lines
        assert not any("noise multiplier 0" in line for line in lines)

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
