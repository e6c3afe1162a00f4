"""Tests for the flat key-value experiment configuration format.

The format is a plain text file of dotted `key = value` lines. The parser
must reject anything it does not understand (silent typos in experiment
configs are how wrong results get published), resolve documented defaults,
and produce a canonical serialization whose hash changes with any field.
"""

import pytest

from fpsim import ExperimentConfig, SweepConfig
from fpsim.config import ConfigError, parse_kv_text


class TestParser:
    def test_basic_lines(self):
        got = parse_kv_text("a = 1\nb.c = two\n")
        assert got == {"a": "1", "b.c": "two"}

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\na = 1\n   # indented comment\nb = 2\n"
        assert parse_kv_text(text) == {"a": "1", "b": "2"}

    def test_duplicate_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_kv_text("a = 1\nb = 2\na = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_kv_text("a = 1\nnot a pair\n")

    def test_whitespace_flexible(self):
        got = parse_kv_text("a=1\n  b  =  2  \n")
        assert got == {"a": "1", "b": "2"}


class TestExperimentConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig.from_text("")
        assert cfg.rounds == 200
        assert cfg.report_goal == 100
        assert cfg.population == 10_000
        assert cfg.clip_mode == "adaptive"
        assert cfg.vocab_size == 100

    def test_timer_default_derivation(self):
        """Left unset, the timer covers half the population turnover:
        population // (2 * report_goal)."""
        cfg = ExperimentConfig.from_text("population = 10000\nreport_goal = 100\n")
        assert cfg.timer_rounds == 50
        explicit = ExperimentConfig.from_text("timer_rounds = 7\n")
        assert explicit.timer_rounds == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="nois_multiplier"):
            ExperimentConfig.from_text("nois_multiplier = 2\n")

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="rounds"):
            ExperimentConfig.from_text("rounds = many\n")

    def test_field_validation_names_the_field(self):
        with pytest.raises(ConfigError, match="report_goal"):
            ExperimentConfig.from_text("report_goal = 0\n")
        with pytest.raises(ConfigError, match="beta"):
            ExperimentConfig.from_text("beta = 1.0\n")
        with pytest.raises(ConfigError, match="population"):
            ExperimentConfig.from_text("population = 50\nreport_goal = 100\n")

    def test_unknown_model_kind_rejected(self):
        """next_token_bow is the one model; the dense "logistic" kind is gone."""
        for kind in ("logistic", "transformer"):
            with pytest.raises(ConfigError, match="model.kind"):
                ExperimentConfig.from_text(f"model.kind = {kind}\n")

    def test_count_noise_budget_guard(self):
        """Adaptive clipping with a noise multiplier too large for the count
        channel is a configuration error naming the knob to raise."""
        with pytest.raises(ConfigError, match="sigma_b_fraction"):
            ExperimentConfig.from_text(
                "noise_multiplier = 12\nreport_goal = 100\nclip.sigma_b_fraction = 0.05\n"
            )

    def test_secagg_requires_fixed_clip(self):
        with pytest.raises(ConfigError, match="secagg"):
            ExperimentConfig.from_text("secagg.enabled = true\nclip.mode = adaptive\n")
        ExperimentConfig.from_text("secagg.enabled = true\nclip.mode = fixed\n")

    def test_restart_modes(self):
        periodic = ExperimentConfig.from_text(
            "rounds = 3000\nrestart.mode = periodic\nrestart.first = 128\nrestart.period = 1024\n"
        )
        assert periodic.restart_schedule().rounds == (128, 1152, 2176)
        explicit = ExperimentConfig.from_text(
            "rounds = 30\nrestart.mode = explicit\nrestart.rounds = 10, 20\n"
        )
        assert explicit.restart_schedule().rounds == (10, 20)
        none = ExperimentConfig.from_text("restart.mode = none\n")
        assert none.restart_schedule().rounds == ()

    def test_sigma_b_derived_from_report_goal(self):
        cfg = ExperimentConfig.from_text(
            "report_goal = 200\nclip.sigma_b_fraction = 0.05\n"
        )
        assert cfg.sigma_b() == pytest.approx(10.0)

    def test_availability_construction(self):
        cfg = ExperimentConfig.from_text(
            "availability.kind = diurnal\navailability.period = 12\navailability.amplitude = 0.25\n"
        )
        model = cfg.availability()
        assert model.kind == "diurnal"
        assert model.period == 12.0
        assert model.amplitude == 0.25


class TestCanonicalization:
    def test_round_trips_through_text(self):
        cfg = ExperimentConfig.from_text("seed = 5\nnoise_multiplier = 0.25\n")
        again = ExperimentConfig.from_text(cfg.canonical_text())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_input_formatting_does_not_change_hash(self):
        a = ExperimentConfig.from_text("seed = 5\nrounds = 100\n")
        b = ExperimentConfig.from_text("# comment\nrounds=100\n\nseed =   5\n")
        assert a.config_hash() == b.config_hash()

    def test_every_field_changes_the_hash(self):
        base = ExperimentConfig.from_text("").config_hash()
        changes = [
            "seed = 1",
            "rounds = 201",
            "report_goal = 101",
            "population = 10001",
            "noise_multiplier = 1.25",
            "timer_rounds = 49",
            "availability.kind = diurnal",
            "eta_c = 0.2",
            "eta_s = 0.9",
            "beta = 0.8",
            "batch_size = 17",
            "epochs = 2",
            "clip.mode = fixed",
            "clip.c0 = 1.5",
            "clip.gamma = 0.6",
            "clip.eta_gamma = 0.3",
            "clip.sigma_b_fraction = 0.06",
            "restart.mode = none",
            "restart.first = 129",
            "restart.period = 1025",
            "model.vocab_size = 99",
            "model.window = 2",
            "data.examples_per_client = 51",
            "data.heterogeneity = 0.4",
            "data.concentration = 0.2",
            "data.eval_examples = 999",
            "secagg.s = 99",
            "secagg.retry_cap = 99",
            "warm_start = some/path.bin",
        ]
        hashes = {base}
        for line in changes:
            h = ExperimentConfig.from_text(line + "\n").config_hash()
            assert h not in hashes, line
            hashes.add(h)


class TestSweepConfig:
    def test_parses_grid(self):
        cfg = SweepConfig.from_mapping(
            {
                "sweep.z": "7",
                "sweep.report_goal": "100",
                "sweep.population": "10000",
                "sweep.rounds": "128, 512, 1024",
                "sweep.scaling": "1, 2, 4",
            }
        )
        assert cfg.rounds == (128, 512, 1024)
        assert cfg.scaling == (1.0, 2.0, 4.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_mapping({"sweep.zz": "1"})
