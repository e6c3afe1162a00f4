"""Tests for the flat key-value experiment configuration format.

The format is a plain text file of dotted `key = value` lines. The parser
must reject anything it does not understand (silent typos in experiment
configs are how wrong results get published), resolve documented defaults,
and produce a canonical serialization whose hash changes with any field.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpsim import (
    ExperimentConfig,
    ParticipationSchema,
    PrivacyLedger,
    SecAggConfig,
    SweepConfig,
    availability_weights,
    combined_multiplier,
    noise_split,
)
from fpsim.config import ConfigError, _sensitivity_sq_bound, parse_kv_text
from oracles import BRUTE_FORCE_MAX_ROUNDS, brute_force_sensitivity_sq, reference_restart_rounds


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

    def test_inline_comments_dropped(self):
        """A '#' after whitespace ends the value; one inside a word does not."""
        text = "a = 1   # one\nb =# two\nc = x#y # z\nd =  # empty\n"
        assert parse_kv_text(text) == {"a": "1", "b": "# two", "c": "x#y", "d": ""}

    def test_readme_example_parses(self):
        """The example in README's "Config format" section parses verbatim."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_text(block)
        assert (cfg.seed, cfg.rounds, cfg.report_goal, cfg.timer_rounds) == (7, 800, 50, 20)
        assert cfg.clip_sigma_b_fraction == 0.05
        assert cfg.warm_start == ""

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

    def test_comment_like_warm_start_rejected(self):
        """A warm_start path the canonical text would cut at a comment."""
        for path in ("runs/a #1.bin", "#1.bin"):
            with pytest.raises(ConfigError, match="warm_start"):
                ExperimentConfig(warm_start=path)
        assert ExperimentConfig(warm_start="runs/a#1.bin").warm_start == "runs/a#1.bin"

    def test_unknown_model_kind_rejected(self):
        """next_token_bow is the one model; the dense "logistic" kind is gone."""
        for kind in ("logistic", "transformer"):
            with pytest.raises(ConfigError, match="model.kind"):
                ExperimentConfig.from_text(f"model.kind = {kind}\n")

    def test_unsplittable_noise_multiplier_names_the_key(self):
        """An adaptive-clip noise multiplier whose inverse square overflows
        is a configuration error naming the key, not an error at run start:
        at 1e-200 one participation's rho divides by zero, and at 6e-155
        1 / (2 z^2) is finite but the split's z^-2 overflows."""
        for value in ("1e-200", "6e-155"):
            with pytest.raises(ConfigError, match="noise_multiplier"):
                ExperimentConfig.from_text(f"noise_multiplier = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e-200"])
    def test_unaccountable_noise_multiplier_names_the_key(self, value):
        """A fixed-clip noise multiplier the accountant cannot turn into a
        finite rho (non-finite, or 2 z^2 underflows to 0) fails at parse
        time, not after training; 0 still means non-private."""
        with pytest.raises(ConfigError, match="noise_multiplier"):
            ExperimentConfig.from_text(f"clip.mode = fixed\nnoise_multiplier = {value}\n")
        assert ExperimentConfig.from_text("clip.mode = fixed\nnoise_multiplier = 0\n")

    def test_tiny_fixed_noise_multiplier_accepted(self):
        """A tiny fixed-clip noise multiplier whose run rho is finite is a
        valid (if useless) private run: 1e-100 in the default shape, and
        6e-155 in a run of one round."""
        for text in ("noise_multiplier = 1e-100\n", "noise_multiplier = 6e-155\nrounds = 1\n"):
            config = ExperimentConfig.from_text("clip.mode = fixed\n" + text)
            assert config.noise_multiplier == float(text.split()[2])

    def test_run_rho_overflow_names_the_key(self):
        """One participation at z = 6e-155 has a finite rho, but the default
        200-round shape (4 participations, 8 tree levels) would report
        rho = inf for a noised run: a configuration error at parse time."""
        with pytest.raises(ConfigError, match="noise_multiplier"):
            ExperimentConfig.from_text("clip.mode = fixed\nnoise_multiplier = 6e-155\n")

    def test_infinite_clip_only_in_a_non_private_plain_run(self):
        """clip.c0 = inf clips nothing, which is legal only without noise
        and without secure aggregation (tests/test_harness.py checks the
        private and SecAgg runs through the CLI)."""
        plain = ExperimentConfig.from_text("noise_multiplier = 0\nclip.c0 = inf\n")
        assert plain.clip_c0 == math.inf
        with pytest.raises(ConfigError, match="clip.c0"):
            ExperimentConfig.from_text(
                "clip.mode = fixed\nnoise_multiplier = 0\nsecagg.enabled = true\nclip.c0 = inf\n"
            )

    def test_count_noise_budget_guard(self):
        """Adaptive clipping with a noise multiplier too large for the count
        channel is a configuration error naming the knob to raise."""
        with pytest.raises(ConfigError, match="sigma_b_fraction"):
            ExperimentConfig.from_text(
                "noise_multiplier = 12\nreport_goal = 100\nclip.sigma_b_fraction = 0.05\n"
            )

    @pytest.mark.parametrize("keys", ["secagg.s = 1e300", "noise_multiplier = 0\nclip.c0 = 1e-200"])
    def test_unusable_secagg_scale_names_the_key(self, keys):
        """A scale whose modulus a cohort cannot sum in int64, or one whose
        rounding inflates clip.c0 past a finite squared sensitivity scale
        (which the run's report would square), fails in from_text, not when
        the run starts or ends."""
        with pytest.raises(ConfigError, match="secagg.s"):
            ExperimentConfig.from_text(f"clip.mode = fixed\nsecagg.enabled = true\n{keys}\n")

    def test_secagg_requires_fixed_clip(self):
        with pytest.raises(ConfigError, match="secagg"):
            ExperimentConfig.from_text("secagg.enabled = true\nclip.mode = adaptive\n")
        ExperimentConfig.from_text("secagg.enabled = true\nclip.mode = fixed\n")

    def test_restart_modes(self):
        periodic = ExperimentConfig.from_text(
            "rounds = 3000\nrestart.mode = periodic\nrestart.first = 128\nrestart.period = 1024\n"
        )
        assert periodic.privacy_terms().timer_schema.restart_rounds == (128, 1152, 2176)
        explicit = ExperimentConfig.from_text(
            "rounds = 30\nrestart.mode = explicit\nrestart.rounds = 10, 20\n"
        )
        assert explicit.privacy_terms().timer_schema.restart_rounds == (10, 20)
        # A restart at or after the last round never fires; one at the last
        # round's start does.
        boundary = ExperimentConfig.from_text(
            "rounds = 20\nrestart.mode = explicit\nrestart.rounds = 10, 19, 20, 25\n"
        )
        assert boundary.privacy_terms().timer_schema.restart_rounds == (10, 19)
        none = ExperimentConfig.from_text("restart.mode = none\n")
        assert none.privacy_terms().timer_schema.restart_rounds == ()

    def test_invalid_explicit_restart_rounds_name_the_key(self):
        """An explicit restart.rounds list that restarts before round 1 or
        is not strictly increasing fails on its key, also where the
        offending rounds lie past the run's end."""
        cases = (
            ("0, 5", "first restart round must be >= 1"),
            ("5, 3", "restart rounds must be strictly increasing"),
            ("5, 5", "restart rounds must be strictly increasing"),
            ("5, 40, 30", "restart rounds must be strictly increasing"),
        )
        for rounds, why in cases:
            text = f"rounds = 20\nrestart.mode = explicit\nrestart.rounds = {rounds}\n"
            with pytest.raises(ConfigError) as caught:
                ExperimentConfig.from_text(text)
            assert str(caught.value) == f"config key 'restart.rounds': {why}"

    def test_sigma_b_derived_from_report_goal(self):
        cfg = ExperimentConfig.from_text(
            "report_goal = 200\nclip.sigma_b_fraction = 0.05\n"
        )
        assert cfg.privacy_terms().sigma_b == pytest.approx(10.0)

    def test_availability_construction(self):
        cfg = ExperimentConfig.from_text(
            "availability.kind = diurnal\navailability.period = 12\navailability.amplitude = 0.25\n"
        )
        assert cfg.availability_kind == "diurnal"
        assert cfg.availability_period == 12.0
        assert cfg.availability_amplitude == 0.25
        # Client 0's phase is 0: its weight is 1 + 0.25 sin(2 pi r / 12).
        ids = np.arange(1000)
        for r in (0, 3, 7):
            weights = availability_weights(cfg, ids, r)
            assert weights[0] == pytest.approx(1.0 + 0.25 * math.sin(2 * math.pi * r / 12))
            assert weights.min() >= 0.75 - 1e-12 and weights.max() <= 1.25 + 1e-12
            assert weights.max() - weights.min() > 0.49
        np.testing.assert_allclose(
            availability_weights(cfg, ids, 2), availability_weights(cfg, ids, 14), rtol=1e-9
        )

    def test_availability_kind_validated(self):
        with pytest.raises(ConfigError, match=r"'availability\.kind'"):
            ExperimentConfig.from_text("availability.kind = weekly\n")


def _floats(low=None, high=None, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kwargs)


_POSITIVE = _floats(0.0, 1e6, exclude_min=True)
_UNIT = _floats(0.0, 1.0)
# Single-line strings without surrounding whitespace and without a '#' at
# the start or after whitespace: what a value can hold once parse_kv_text
# has cut its comment and stripped its line.
_VALUE_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20
).filter(lambda s: s == s.strip() and not re.search(r"(?:^|\s)#", s))
# Positive noise multipliers every drawn run can account: the run's
# sensitivity^2 is at most 10^12 * 20 (10^6 participations, 20 tree levels),
# so rho stays finite from 1e-130 up, even at the SecAgg scales drawn below.
_NOISE = st.just(0.0) | _floats(1e-130, 1e6)
# SecAgg clip norms and scales: their product keeps a cohort of 10^4 within
# int64 and the rounding's sensitivity scale below 10^11.
_SECAGG = _floats(1e-3, 1e3)


@st.composite
def _valid_configs(draw) -> tuple[ExperimentConfig, int]:
    """A random valid config and the timer_rounds it was built with
    (0 asks the config to derive it)."""
    report_goal = draw(st.integers(1, 10_000))
    population = draw(st.integers(report_goal, report_goal + 10**6))
    timer_rounds = draw(st.one_of(st.just(0), st.integers(1, 10**6)))
    clip_mode = draw(st.sampled_from(["fixed", "adaptive"]))
    if clip_mode == "adaptive":
        # The count noise must absorb the split: 2 * report_goal *
        # sigma_b_fraction > z.
        noise = draw(_NOISE)
        sigma_b_fraction = draw(_floats(noise / (2 * report_goal), 1e6, exclude_min=True))
        assume(2.0 * (report_goal * sigma_b_fraction) > noise)  # rounding at the boundary
    else:
        noise = draw(_NOISE)
        sigma_b_fraction = draw(_POSITIVE)
    restart_mode = draw(st.sampled_from(["periodic", "explicit", "none"]))
    any_ints = st.integers(-(10**6), 10**6)
    if restart_mode == "explicit":
        restart_rounds = draw(
            st.lists(st.integers(1, 10**6), unique=True, max_size=6).map(sorted).map(tuple)
        )
    else:
        restart_rounds = tuple(draw(st.lists(any_ints, max_size=6)))
    periodic_int = st.integers(1, 10**6) if restart_mode == "periodic" else any_ints
    secagg_enabled = clip_mode == "fixed" and draw(st.booleans())
    config = ExperimentConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        rounds=draw(st.integers(1, 10**6)),
        report_goal=report_goal,
        population=population,
        noise_multiplier=noise,
        timer_rounds=timer_rounds,
        availability_kind=draw(st.sampled_from(["uniform", "diurnal"])),
        availability_period=draw(_POSITIVE),
        availability_amplitude=draw(_UNIT),
        eta_c=draw(_POSITIVE),
        eta_s=draw(_POSITIVE),
        beta=draw(_floats(0.0, 1.0, exclude_max=True)),
        batch_size=draw(st.integers(1, 10**4)),
        epochs=draw(st.integers(1, 100)),
        clip_mode=clip_mode,
        clip_c0=draw(_SECAGG if secagg_enabled else _POSITIVE),
        clip_gamma=draw(_UNIT),
        clip_eta_gamma=draw(_floats(0.0, 1e6)),
        clip_sigma_b_fraction=sigma_b_fraction,
        restart_mode=restart_mode,
        restart_first=draw(periodic_int),
        restart_period=draw(periodic_int),
        restart_rounds=restart_rounds,
        model_kind="next_token_bow",
        vocab_size=draw(st.integers(2, 10**5)),
        window=draw(st.integers(1, 64)),
        examples_per_client=draw(st.integers(1, 10**5)),
        heterogeneity=draw(_UNIT),
        concentration=draw(_POSITIVE),
        eval_examples=draw(st.integers(1, 10**6)),
        secagg_enabled=secagg_enabled,
        secagg_scale=draw(_SECAGG if secagg_enabled else _floats(-1e6, 1e6)),
        secagg_retry_cap=draw(st.integers(1, 10**4)),
        warm_start=draw(_VALUE_TEXT),
    )
    return config, timer_rounds


@st.composite
def _small_schemas(draw) -> ParticipationSchema:
    """A schema the brute force enumerates quickly: at most 24 rounds,
    restarts or none, and at most 6 participations at min_sep 1 or 2."""
    total_rounds = draw(st.integers(1, BRUTE_FORCE_MAX_ROUNDS))
    min_sep = draw(st.integers(1, total_rounds))
    max_part = draw(st.integers(1, 6 if min_sep < 3 else total_rounds))
    restarts = st.lists(st.integers(1, total_rounds), unique=True, max_size=4)
    restart_rounds = draw(st.just(()) | restarts.map(sorted).map(tuple))
    return ParticipationSchema(total_rounds, min_sep, max_part, restart_rounds)


class TestPrivacyTerms:
    @settings(max_examples=150, deadline=None)
    @given(schema=_small_schemas())
    def test_sensitivity_bound_covers_brute_force(self, schema):
        """The bound validation checks rho against, max_part^2 *
        bit_length(rounds), is at least the exact worst case."""
        exact = brute_force_sensitivity_sq(
            schema.total_rounds, schema.min_sep, schema.max_part, schema.restart_rounds
        )
        assert exact <= _sensitivity_sq_bound(schema.total_rounds, schema.max_part)

    def test_adaptive_terms(self):
        """The noise split and the timer schema of the default config."""
        config = ExperimentConfig()
        terms = config.privacy_terms()
        assert terms.sigma_b == 100 * 0.05
        assert terms.z_delta == noise_split(1.0, 100 * 0.05)
        assert terms.z_equiv == combined_multiplier(terms.z_delta, 100 * 0.05)
        assert (terms.secagg, terms.sensitivity_scale) == (None, 1.0)
        assert terms.timer_schema == ParticipationSchema(200, 50, 4, (128,))

    def test_secagg_terms(self):
        """A SecAgg run's encoding and the rounding's inflation of the clip."""
        config = ExperimentConfig.from_text(
            "clip.mode = fixed\nclip.c0 = 0.5\nsecagg.enabled = true\nnoise_multiplier = 0.8\n"
        )
        terms = config.privacy_terms()
        assert terms.secagg == SecAggConfig(0.5, 100.0, 100 * 100, 100)
        assert terms.secagg.padded_dim == 16384
        assert terms.sensitivity_scale == terms.secagg.inflated_clip_norm / 0.5
        assert (terms.z_delta, terms.z_equiv, terms.sigma_b) == (0.8, 0.8, 0.0)

    def test_non_private_terms(self):
        terms = ExperimentConfig.from_text("noise_multiplier = 0\n").privacy_terms()
        assert (terms.z_delta, terms.z_equiv, terms.sigma_b) == (0.0, 0.0, 0.0)

    def test_accepted_tiny_z_has_a_finite_run_rho(self):
        """Just inside the bound, the accountant's rho of the timer's worst
        case is finite."""
        config = ExperimentConfig.from_text("clip.mode = fixed\nnoise_multiplier = 1e-153\n")
        terms = config.privacy_terms()
        ledger = PrivacyLedger(terms.timer_schema, terms.z_equiv, terms.sensitivity_scale)
        assert math.isfinite(ledger.rho)


class TestCanonicalization:
    @settings(max_examples=200, deadline=None)
    @given(drawn=_valid_configs())
    def test_canonical_text_round_trips(self, drawn):
        """Any valid config reparses from its canonical text to an equal
        config with an equal hash, and a zero timer is derived on the way.
        Its timer schema is the timer's worst case with the restart rounds
        of its restart.mode."""
        assert ExperimentConfig() == ExperimentConfig.from_text("")
        config, timer_rounds = drawn
        if timer_rounds == 0:
            assert config.timer_rounds == max(1, config.population // (2 * config.report_goal))
        assert config.privacy_terms().timer_schema == ParticipationSchema(
            config.rounds,
            config.timer_rounds,
            math.ceil(config.rounds / config.timer_rounds),
            reference_restart_rounds(config),
        )
        again = ExperimentConfig.from_text(config.canonical_text())
        assert again == config
        assert again.canonical_text() == config.canonical_text()
        assert again.config_hash() == config.config_hash()

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
        """Each key but model.kind, which has one legal value, moves the hash."""
        default = ExperimentConfig.from_text("")
        base = default.config_hash()
        changes = [
            "seed = 1",
            "rounds = 201",
            "report_goal = 101",
            "population = 10001",
            "noise_multiplier = 1.25",
            "timer_rounds = 49",
            "availability.kind = diurnal",
            "availability.period = 12",
            "availability.amplitude = 0.25",
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
            "restart.rounds = 5",
            "model.vocab_size = 99",
            "model.window = 2",
            "data.examples_per_client = 51",
            "data.heterogeneity = 0.4",
            "data.concentration = 0.2",
            "data.eval_examples = 999",
            "secagg.enabled = true\nclip.mode = fixed",
            "secagg.s = 99",
            "secagg.retry_cap = 99",
            "warm_start = some/path.bin",
        ]
        hashes = {base}
        for lines in changes:
            h = ExperimentConfig.from_text(lines + "\n").config_hash()
            assert h not in hashes, lines
            hashes.add(h)
        changed = {key for lines in changes for key in parse_kv_text(lines)}
        every_key = set(parse_kv_text(default.canonical_text()))
        assert every_key - changed == {"model.kind"}


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

    def test_missing_keys_named_by_key(self):
        """The error names the missing config keys, not attribute names."""
        with pytest.raises(ConfigError, match=r"sweep\.population.*sweep\.rounds"):
            SweepConfig.from_mapping({"sweep.z": "7"})
