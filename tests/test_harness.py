"""End-to-end tests for the experiment harness and CLI.

Small but complete runs: every artifact a run directory promises must exist,
parse, agree with independent recomputation, and reproduce byte-for-byte
under the same seed. These runs use tiny populations and vocabularies so the
whole file stays fast.
"""

import csv
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fpsim import (
    CohortExhausted,
    ExperimentConfig,
    ParticipationSchema,
    PrivacyLedger,
    SweepConfig,
    TrainingDiverged,
    compare,
    post_hoc_report,
    run_experiment,
    sweep_privacy,
    zcdp,
    zcdp_to_eps,
)
from fpsim.data import synthesize_clients
from fpsim.seeds import SeedPath
from fpsim import accounting, harness
from fpsim.cli import main as cli_main
from fpsim.harness import (
    METRICS_COLUMNS,
    REPORT_DELTA,
    read_checkpoint,
    read_metrics,
    start_run,
    write_checkpoint,
)
from oracles import reference_limits, reference_participation_csv, reference_restart_rounds

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
        assert set(metrics["bits_per_update"]) == {0.0}

    def test_cumulative_zcdp_nondecreasing(self, small_run):
        """Every prefix is accounted at the same observed limits, so the
        running column only grows, and the whole run's prefix is the
        report's rho."""
        _, result = small_run
        rho = read_metrics(result.directory)["cumulative_zcdp"]
        assert all(a <= b for a, b in zip(rho, rho[1:]))
        assert result.final_rho == rho[-1]

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


def _prefix_rhos(config, report, max_part, min_sep):
    """cumulative_zcdp recomputed round by round: zcdp of each prefix at
    (max_part, min_sep) with the run's restarts, scaled like the run's
    report."""
    z, scale = report["z_equivalent"], report["sensitivity_scale"]
    restarts = reference_restart_rounds(config)
    return [
        zcdp(z, ParticipationSchema(n, min_sep, max_part, restarts)) * scale**2
        for n in range(1, config.rounds + 1)
    ]


class TestCumulativeZcdp:
    """One rho per run: the column accounts every prefix at the whole run's
    observed limits, so its last entry is the report's rho, and no row
    exceeds the timer's worst case for that prefix."""

    @staticmethod
    def _check_column(config, result):
        column = read_metrics(result.directory)["cumulative_zcdp"]
        report = post_hoc_report(result.directory)
        observed = (report["observed_max_part"], report["observed_min_sep"])
        assert column == _prefix_rhos(config, report, *observed)
        timer = math.ceil(config.rounds / config.timer_rounds), config.timer_rounds
        assert observed != timer
        assert all(a <= b for a, b in zip(column, _prefix_rhos(config, report, *timer)))
        header, values = (result.directory / "report.csv").read_text().splitlines()
        written = float(dict(zip(header.split(","), values.split(",")))["rho"])
        assert column[-1] == written == report["rho"] == result.final_rho
        return report

    def test_adaptive_run_with_restarts(self, small_run):
        self._check_column(*small_run)

    def test_fixed_clip_run(self, tmp_path):
        config = ExperimentConfig.from_text(
            SMALL_CONFIG.replace("clip.mode = adaptive", "clip.mode = fixed")
        )
        self._check_column(config, run_experiment(config, tmp_path / "fixed"))

    def test_secagg_run_scales_every_row(self, tmp_path):
        config = ExperimentConfig.from_text(SECAGG_CONFIG)
        result = run_experiment(config, tmp_path / "secagg")
        report = self._check_column(config, result)
        assert report["sensitivity_scale"] != 1.0
        # The run's one bits per update fills both files' columns.
        bits = config.privacy_terms().secagg.bits_per_update
        assert read_metrics(result.directory)["bits_per_update"] == [bits] * config.rounds
        with open(result.directory / "secagg.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["round"]), int(r["bits_per_update"])) for r in rows] == [
            (t, bits) for t in range(config.rounds)
        ]

    def test_sparse_run_below_the_timer_on_both_limits(self, tmp_path):
        """At population 2000 the log attains max_part 2 and min_sep 4
        against the timer's 4 and 3: a wider solver than the timer's."""
        config = ExperimentConfig.from_text(
            SMALL_CONFIG.replace("population = 120", "population = 2000")
        )
        report = self._check_column(config, run_experiment(config, tmp_path / "sparse"))
        assert (report["observed_max_part"], report["observed_min_sep"]) == (2, 4)


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


def _refused(copy, line):
    """post_hoc_report refuses the copy, naming its participation.csv and the
    first line that differs from the config's log; no reader warning leaks."""
    message = f"{copy / 'participation.csv'}: line {line} differs from the config's log"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            post_hoc_report(copy)


def _first_difference(rows, edited):
    """The file line number (header = 1) of the first row ``edited`` changes."""
    return next(i for i, (a, b) in enumerate(zip(edited, rows)) if a != b) + 2


def _log_rows(run):
    return (run[1].directory / "participation.csv").read_text().splitlines()[1:]


class TestParticipationLogValidation:
    """participation.csv is input from outside the program.  A run's log is
    a function of its config, so post_hoc_report accounts a log only if it
    is, byte for byte, the one the config's cohorts write; any other is
    refused, naming the file and its first differing line."""

    def test_untampered_copy_accepted(self, small_run, tmp_path):
        _, result = small_run
        copy = _tampered_log(small_run, tmp_path, lambda rows: rows)
        assert post_hoc_report(copy)["rho"] == result.final_rho

    def test_foreign_log_rejected(self, fixed_run, tmp_path):
        """The log of the same config at another seed is one a run wrote,
        with every round at report_goal distinct clients of the population
        and every timer kept; accounted, it would read max_part 4 and rho
        26.0, not this run's 3 and 22.0."""
        config, result = fixed_run
        other = run_experiment(replace(config, seed=9), tmp_path / "seed9")
        assert (result.observed_max_part, result.final_rho) == (3, 22.0)
        assert (other.observed_max_part, other.final_rho) == (4, 26.0)
        foreign = (other.directory / "participation.csv").read_text().splitlines()[1:]
        copy = _tampered_log(fixed_run, tmp_path, lambda rows: foreign)
        _refused(copy, _first_difference(_log_rows(fixed_run), foreign))

    def test_round_outside_run_rejected(self, small_run, tmp_path):
        rows = _log_rows(small_run)
        copy = _tampered_log(small_run, tmp_path, lambda rows: [*rows, "119,12"])
        _refused(copy, len(rows) + 2)

    def test_negative_client_id_rejected(self, small_run, tmp_path):
        rows = _log_rows(small_run)
        copy = _tampered_log(small_run, tmp_path, lambda rows: ["-1,0", *rows])
        _refused(copy, 2)

    def test_client_id_outside_population_rejected(self, fixed_run, tmp_path):
        """Every repeat participation moved to a fresh id at or above the
        population keeps each round at report_goal distinct clients, but
        would account every client as participating once."""

        fresh = iter(range(120, 1000))

        def repeats_to_fresh_ids(rows):
            seen, out = set(), []
            for row in rows:  # sorted by client, then round
                client, round_index = row.split(",")
                out.append(f"{next(fresh)},{round_index}" if client in seen else row)
                seen.add(client)
            return out

        config, result = fixed_run
        assert (config.population, result.observed_max_part, result.observed_min_sep) == (120, 3, 3)
        rows = _log_rows(fixed_run)
        edited = repeats_to_fresh_ids(rows)
        copy = _tampered_log(fixed_run, tmp_path, lambda rows: edited)
        assert next(fresh) == 146  # the repeats moved to ids 120-145
        line = _first_difference(rows, edited)
        assert edited[line - 2].startswith("120,")  # the first fresh id
        _refused(copy, line)

    def test_repeated_pair_rejected(self, small_run, tmp_path):
        rows = _log_rows(small_run)
        copy = _tampered_log(small_run, tmp_path, lambda rows: [rows[0], *rows])
        _refused(copy, 3)

    def test_lowest_repeated_pair_named(self, small_run, tmp_path):
        """With two pairs repeated ahead of the log, the error names line
        2, the first line that differs, not the lower pair's."""
        rows = _log_rows(small_run)
        copy = _tampered_log(small_run, tmp_path, lambda rows: [rows[-1], rows[3], *rows])
        _refused(copy, 2)

    def test_header_only_log_rejected(self, small_run, tmp_path):
        rows = _log_rows(small_run)
        copy = _tampered_log(small_run, tmp_path, lambda rows: [])
        _refused(copy, 2)

    def test_thinned_log_rejected(self, small_run, tmp_path):
        """Keeping one row per client would account every client as a
        single participation."""

        def first_row_per_client(rows):
            return list({row.split(",")[0]: row for row in reversed(rows)}.values())

        rows = _log_rows(small_run)
        edited = first_row_per_client(rows)
        copy = _tampered_log(small_run, tmp_path, lambda rows: edited)
        _refused(copy, _first_difference(rows, edited))

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
        rows = _log_rows(fixed_run)
        edited = one_client_every_round(rows)
        copy = _tampered_log(fixed_run, tmp_path, lambda rows: edited)
        _refused(copy, _first_difference(rows, edited))

    def test_timer_longer_than_the_run_accepted(self, tmp_path):
        """With no client back at all, the observed separation reads the run
        length, which a timer longer than the run does not make a violation."""
        text = SMALL_CONFIG.replace("clip.mode = adaptive", "clip.mode = fixed")
        config = ExperimentConfig.from_text(text.replace("timer_rounds = 3", "timer_rounds = 14"))
        result = run_experiment(config, tmp_path / "run")
        assert (result.observed_max_part, result.observed_min_sep) == (1, 12)
        assert post_hoc_report(result.directory)["rho"] == result.final_rho

    def test_malformed_log_rejected(self, small_run, tmp_path):
        """A log under another header, with a row that is not two integers,
        with a third field on every row or with other line endings is
        refused naming the file and the line; no reader warning leaks."""
        copy = _tampered_log(small_run, tmp_path, lambda rows: rows)
        log = copy / "participation.csv"
        text = log.read_text()
        header, *rows = text.splitlines()
        log.write_text(text.replace("client_id,round", "round,client_id", 1))
        _refused(copy, 1)
        for row in ("3,x", "3", "2.5,1", "0,5,junk", "0,5,7", "0,5,"):
            log.write_text(text + row + "\n")
            _refused(copy, len(rows) + 2)
        log.write_text("\n".join([header, *(row + ",0" for row in rows)]) + "\n")
        _refused(copy, 2)
        log.write_bytes(text.replace("\n", "\r\n").encode())
        _refused(copy, 1)
        log.write_bytes(text.encode()[:-1])  # the last line's newline cut off
        _refused(copy, len(rows) + 1)
        log.write_bytes(b"client_id,round\n\xff\xfe\n")
        _refused(copy, 2)

    def test_line_named_past_the_first_chunk(self, small_run, tmp_path, monkeypatch):
        """The log is compared a chunk at a time; a difference in a later
        chunk, or at a chunk's edge, still names its line in the file."""
        monkeypatch.setattr(harness, "_PARTICIPATION_CHUNK_ROWS", 7)
        rows = _log_rows(small_run)
        for index in (0, 6, 7, 50, len(rows) - 1):
            edited = [*rows[:index], "-1,0", *rows[index + 1 :]]
            _refused(_tampered_log(small_run, tmp_path, lambda rows: edited), index + 2)
        for kept in (7, 50):
            _refused(_tampered_log(small_run, tmp_path, lambda rows: rows[:kept]), kept + 2)

    def test_log_read_peaks_under_100_bytes_per_row(self, tmp_path):
        """The log of a 2048-round run of 100 clients a round is replayed,
        checked and accounted in under 100 bytes per row at the traced
        peak, not as a list of Python int pairs (~190 bytes per row)."""
        config = ExperimentConfig(rounds=2048, population=10_000, report_goal=100)
        rows = config.rounds * config.report_goal
        (tmp_path / "config.resolved").write_text(config.canonical_text())
        log = np.array(list(harness.cohorts(config)))
        harness._write_participation(tmp_path / "participation.csv", *harness._by_client(log))
        tracemalloc.start()
        try:
            report = post_hoc_report(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rounds = np.repeat(np.arange(config.rounds), config.report_goal)
        limits = reference_limits(log.ravel().tolist(), rounds.tolist(), config.rounds)
        assert (report["observed_max_part"], report["observed_min_sep"]) == limits
        assert report["observed_min_sep"] >= config.timer_rounds
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
        assert state.round == 0
        # The timers live in cohorts(config), the log and the history in the harness's loop.
        for name in ("next_eligible", "log", "history"):
            assert not hasattr(state, name)
        np.testing.assert_array_equal(state.theta, state.theta0)
        assert state.clip.learning_rate == config.clip_eta_gamma
        assert state.active_clip == state.clip.estimate == config.clip_c0
        assert state.restarts == frozenset(terms.timer_schema.restart_rounds)


    @staticmethod
    def _refuse_synthesis(monkeypatch):
        """Make every fpsim binding of synthesize_clients and select_cohort
        fail the test if called."""

        def refuse(name):
            def called(*args, **kwargs):
                raise AssertionError(f"{name} called before start_run's checks")

            return called

        for name, module in list(sys.modules.items()):
            if name == "fpsim" or name.startswith("fpsim."):
                for attribute, value in list(vars(module).items()):
                    if value is synthesize_clients or value is harness.select_cohort:
                        monkeypatch.setattr(module, attribute, refuse(attribute))

    def test_exhausting_config_fails_before_synthesis(self, tmp_path, monkeypatch):
        """Timers of 20 rounds over 60 clients, 8 a round, leave 4 eligible
        at round 7: the run raises CohortExhausted naming that round before
        it synthesizes the population or draws a cohort."""
        self._refuse_synthesis(monkeypatch)
        text = SMALL_CONFIG.replace("population = 120", "population = 60")
        config = ExperimentConfig.from_text(text.replace("timer_rounds = 3", "timer_rounds = 20"))
        with pytest.raises(
            CohortExhausted,
            match=r"^population exhausted at round 7: 4 eligible clients for report_goal 8;",
        ):
            run_experiment(config, tmp_path / "run")

    def test_non_finite_warm_start_fails_before_synthesis(self, tmp_path, monkeypatch):
        """A warm start of the model's width with one NaN is refused, naming
        the file, before the population is synthesized."""
        theta0 = np.zeros(100)
        theta0[37] = np.nan
        path = tmp_path / "nan.bin"
        write_checkpoint(path, theta0)
        self._refuse_synthesis(monkeypatch)
        config = ExperimentConfig.from_text(SMALL_CONFIG + f"warm_start = {path}\n")
        with pytest.raises(ValueError) as caught:
            start_run(config)
        assert str(caught.value) == (
            f"{path}: warm_start checkpoint has 100 parameters, 1 of them not finite; "
            "the model needs 100, all finite"
        )

    def test_accountant_range_fails_before_synthesis(self, monkeypatch):
        """A private run whose sensitivity bound reaches 2^30 (33000 rounds,
        one client a round, timer 1: 33000^2 * 16) is refused before
        synthesis.  One participation a round already passes the range, so
        the refusal comes without a solve; with that lower bound below the
        range, the timer worst case is solved and the solver's OverflowError
        stops the run.  A run below the bound never calls the solver."""
        solved = []

        def overflow(solver, tree_levels, max_part):
            solved.append(max_part)
            raise OverflowError("table F[15][21279] exceeds the int32 range, 2^30")

        monkeypatch.setattr(accounting._SensitivitySolver, "solve", overflow)
        state = start_run(ExperimentConfig.from_text(SMALL_CONFIG))
        assert solved == [] and state.round == 0
        self._refuse_synthesis(monkeypatch)
        config = ExperimentConfig(
            rounds=33000,
            report_goal=1,
            population=1,
            timer_rounds=1,
            clip_mode="fixed",
            restart_mode="none",
        )
        with pytest.raises(OverflowError, match="int32 range, 2\\^30: .* 2147493784$"):
            start_run(config)
        assert solved == []
        monkeypatch.setattr(accounting, "_spread_sensitivity_sq", lambda schema: 0)
        with pytest.raises(OverflowError, match="table F"):
            start_run(config)
        assert solved == [33000]


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

    def test_artifacts_do_not_follow_the_blas_thread_count(self, tmp_path):
        """A SecAgg run at d = 16 384, where OpenBLAS would split a dot
        product across its threads, writes the same bytes at one and two
        BLAS threads: fpsim's float reductions never call BLAS."""
        (tmp_path / "run.cfg").write_text(
            "rounds = 8\nreport_goal = 6\npopulation = 120\nnoise_multiplier = 0.5\n"
            "model.vocab_size = 128\nclip.mode = fixed\nclip.c0 = 0.05\nsecagg.enabled = true\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = tmp_path / threads
            command = ["run", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]
            done = subprocess.run(
                [sys.executable, "-m", "fpsim.cli", *command],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
        names = sorted(path.name for path in (tmp_path / "1").iterdir())
        assert "secagg.csv" in names
        assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

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
        with pytest.raises(ValueError) as caught:
            run_experiment(cfg, tmp_path / "run")
        assert str(caught.value) == (
            f"{tmp_path / 'tiny.bin'}: warm_start checkpoint has 4 parameters, "
            "0 of them not finite; the model needs 100, all finite"
        )
        assert not (tmp_path / "run").exists()

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

    def test_runs_of_different_models_refused(self, small_run, tmp_path):
        """compare reads two run directories from disk; runs whose
        checkpoints hold different model widths do not align."""
        _, result = small_run
        other = tmp_path / "other"
        shutil.copytree(result.directory, other)
        write_checkpoint(other / "checkpoint.bin", np.zeros(9))
        width = read_checkpoint(result.directory / "checkpoint.bin").shape[0]
        with pytest.raises(ValueError, match=f"model dimensions differ: {width} vs 9"):
            compare(result.directory, other)


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

    def test_row_is_the_run_it_names(self, tmp_path, capsys):
        """Each row's rho is the last cumulative_zcdp of a run of its config,
        that run's report.csv rho, and the rho `fpsim account` prints for the
        row's schema.  The population is a multiple of each goal, so the timer
        gives every client a period of exactly population / goal, and the
        observed limits are the timer's worst case."""
        grid = SweepConfig(
            z=1.0, report_goal=20, population=200, rounds=(30, 64), scaling=(1.0, 2.0)
        )
        rows = sweep_privacy(grid, tmp_path / "sweep.csv")
        assert rows == [
            (30, 20, 1.0, 10, 3, 8.0),
            (30, 40, 2.0, 5, 6, 5.375),
            (64, 20, 1.0, 10, 7, 57.5),
            (64, 40, 2.0, 5, 13, 45.125),
        ]
        for row, config in zip(rows, grid.run_configs()):
            total_rounds, goal, z, min_sep, max_part, rho = row
            # Model and data keys do not enter the privacy terms.
            small = replace(config, vocab_size=8, examples_per_client=5, eval_examples=50)
            run = run_experiment(small, tmp_path / f"run_{total_rounds}_{goal}").directory
            assert read_metrics(run)["cumulative_zcdp"][-1] == rho
            header, values = (run / "report.csv").read_text().splitlines()
            assert float(dict(zip(header.split(","), values.split(",")))["rho"]) == rho
            flags = {"--rounds": total_rounds, "--min-sep": min_sep, "--max-part": max_part, "--z": z}
            assert cli_main(["account", *(str(v) for pair in flags.items() for v in pair)]) == 0
            assert f"rho: {rho!r}" in capsys.readouterr().out.splitlines()


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

    @pytest.mark.parametrize(
        "flags, missing",
        [
            ([], "--rounds --min-sep --max-part --z"),
            (["--rounds", "8", "--z", "7", "--restarts", "3"], "--min-sep --max-part"),
        ],
    )
    def test_account_without_run_names_the_missing_schema_flags(self, capsys, flags, missing):
        assert cli_main(["account", *flags]) == 1
        captured = capsys.readouterr()
        why = f"account needs --run or explicit schema flags; missing {missing}"
        assert captured.err == f"error: {why}\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize(
        "flag, value, why",
        [
            ("--z", "nan", "z must be a finite number >= 0, not nan"),
            ("--z", "inf", "z must be a finite number >= 0, not inf"),
            ("--z", "-1", "z must be a finite number >= 0, not -1.0"),
            ("--sensitivity-scale", "inf", "sensitivity_scale must be a finite number > 0, not inf"),
            ("--sensitivity-scale", "nan", "sensitivity_scale must be a finite number > 0, not nan"),
            # Finite, but gaussian_zcdp's scale**2 would raise OverflowError.
            ("--sensitivity-scale", "1e200", "sensitivity_scale must have a finite square, not 1e+200"),
            # A finite square that still overflows rho at z = 1.
            (
                "--sensitivity-scale",
                "1e154",
                "sensitivity_scale 1e+154 overflows rho at z 1.0: "
                "sensitivity^2 * sensitivity_scale^2 / (2 z^2) is not finite",
            ),
            ("--delta", "1", "delta must be in (0, 1)"),
        ],
    )
    def test_account_ledger_errors_name_the_flag(self, capsys, flag, value, why):
        """A noise multiplier or a sensitivity scale that is not a finite
        number is refused before any rho is printed, naming its flag."""
        flags = {"--rounds": "10", "--min-sep": "2", "--max-part": "2", "--z": "1"}
        flags[flag] = value
        assert cli_main(["account", *(item for pair in flags.items() for item in pair)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: {why}\n"
        assert captured.out == ""

    def test_account_reports_an_accountant_overflow(self, capsys, monkeypatch):
        """A schema whose worst case passes the solver's 2^30 range (as at
        --rounds 33000 --min-sep 1 --max-part 33000) exits 1 with the
        accountant's message, not a traceback."""
        why = "table F[14][1] exceeds the int32 range, 2^30"

        def overflow(*args):
            raise OverflowError(why)

        monkeypatch.setattr(accounting._SensitivitySolver, "solve", overflow)
        flags = ["--rounds", "10", "--min-sep", "1", "--max-part", "10", "--z", "1"]
        assert cli_main(["account", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {why}\n"
        assert captured.out == ""

    def test_account_refuses_past_the_range_at_once(self, capsys):
        """--rounds 33000 --min-sep 1 --max-part 33000: one participation a
        round passes 2^30, so the refusal needs no table."""
        accounting._SOLVER_CACHE.clear()
        flags = ["--rounds", "33000", "--min-sep", "1", "--max-part", "33000", "--z", "1"]
        assert cli_main(["account", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: worst-case sensitivity^2 exceeds the int32 range, 2^30: "
            "participating every 1 rounds from round 0 already gives 2147493784\n"
        )
        assert captured.out == "" and not accounting._SOLVER_CACHE

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
