"""Experiment configuration: a flat, diff-friendly key=value text format.

Grammar (one setting per line):

    # comment
    key.subkey = value        # comment

A ``#`` at the start of a line or after whitespace starts a comment that
runs to the end of the line.

Keys are dotted, lowercase; values are integers, floats, booleans
(true/false), strings, or comma-separated lists.  Unknown keys are errors
(they are almost always typos), and every validation failure names the
offending key.  Each key, its type, its default and its valid values are
declared once, on the fields of the config dataclasses below; only rules
that join keys are written out, in ``__post_init__``.  Every float must be
finite, except ``clip.c0 = inf`` (no clipping), which only a run without
noise and without secure aggregation allows.  A config resolves to a
canonical sorted text rendering, whose SHA-256 is the config hash recorded
in run outputs: any field change changes the hash.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, NoReturn, get_args, get_origin, get_type_hints

from fpsim.accounting import ParticipationSchema, gaussian_zcdp
from fpsim.clipping import combined_multiplier, noise_split
from fpsim.models import NextTokenBOW
from fpsim.secagg import DEFAULT_RETRY_CAP, SecAggConfig

__all__ = ["ConfigError", "ExperimentConfig", "PrivacyTerms", "SweepConfig", "parse_kv_text"]


class ConfigError(ValueError):
    """Invalid configuration; message names the key at fault."""


# A comment starts at a "#" that begins a line or follows whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a raw string mapping."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


_BOOLEANS = {
    **dict.fromkeys(("true", "1", "yes", "on"), True),
    **dict.fromkeys(("false", "0", "no", "off"), False),
}
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number"}


def _parse(key: str, value: str, kind: type) -> object:
    """Parse one raw value by its field annotation: str, bool, int, float,
    or a comma-separated tuple of one of them."""
    if get_origin(kind) is tuple:
        if not value:
            return ()
        item = get_args(kind)[0]
        return tuple(_parse(key, part.strip(), item) for part in value.split(","))
    if kind is str:
        return value
    try:
        return _BOOLEANS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        why = f"expected {_EXPECTED[kind]}, got {value!r}"
        raise ConfigError(f"config key {key!r}: {why}") from None


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# A field's rule: (test, its valid values).  A value passes when test(value)
# is true; a failure reads "must be <valid values>".  NaN fails every
# comparison, so each float rule below refuses it.
_Rule = tuple[Callable[[Any], bool], str]


def _at_least(n: int) -> _Rule:
    return (lambda v: v >= n, f">= {n}")


def _one_of(*choices: str) -> _Rule:
    return (lambda v: v in choices, "one of " + ", ".join(map(repr, choices)))


def _each(rule: _Rule) -> _Rule:
    """A non-empty list whose every item passes ``rule``."""
    test, valid = rule
    return (lambda v: bool(v) and all(map(test, v)), f"a non-empty list, each {valid}")


_FINITE: _Rule = (math.isfinite, "finite")
_POSITIVE: _Rule = (lambda v: 0 < v < math.inf, "finite and > 0")
_NON_NEGATIVE: _Rule = (lambda v: 0 <= v < math.inf, "finite and >= 0")
_UNIT: _Rule = (lambda v: 0 <= v <= 1, "in [0, 1]")
_UNIT_OPEN: _Rule = (lambda v: 0 <= v < 1, "in [0, 1)")


def _field(default: object = MISSING, rule: _Rule | None = None, key: str | None = None) -> Any:
    """A config field: its default, the rule its values pass (None: any value
    of its type), and its config key where that differs from its name."""
    return field(default=default, metadata={"rule": rule, "key": key})


def _key(config_cls: type, name: str) -> str:
    """The config key of field ``name``: its declared key, or else its name."""
    return config_cls.__dataclass_fields__[name].metadata.get("key") or name


def _fail(config: object, name: str, why: str) -> NoReturn:
    raise ConfigError(f"config key {_key(type(config), name)!r}: {why}")


def _check_fields(config: object) -> None:
    """Check each field of ``config`` against its rule, in declaration order."""
    for f in fields(config):
        rule = f.metadata.get("rule")
        if rule and not rule[0](getattr(config, f.name)):
            _fail(config, f.name, f"must be {rule[1]}")


def _from_mapping(config_cls: type, mapping: dict[str, str]) -> Any:
    """Build a config dataclass from raw strings.  Its fields are the
    schema: each key, its type (the annotation), its default (the field
    default) and its rule (the field metadata) are declared once, on the
    dataclass."""
    types = get_type_hints(config_cls)
    by_key = {_key(config_cls, f.name): f for f in fields(config_cls)}
    for key in mapping:
        if key not in by_key:
            raise ConfigError(f"unknown config key {key!r}")
    missing = sorted(k for k, f in by_key.items() if k not in mapping and f.default is MISSING)
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    kwargs = {f.name: _parse(k, mapping[k], types[f.name]) for k, f in by_key.items() if k in mapping}
    return config_cls(**kwargs)


@dataclass(frozen=True)
class PrivacyTerms:
    """A run's privacy quantities, derived once from its config
    (ExperimentConfig.privacy_terms) for the run, its report and the
    post-hoc report."""

    z_delta: float  # noise multiplier of the update tree
    sigma_b: float  # noise std of the clip count; 0 without a private count
    z_equiv: float  # guarantee-side multiplier of the joint release
    secagg: SecAggConfig | None  # the shared encoding; None without SecAgg
    sensitivity_scale: float  # SecAgg rounding's inflation of the clip norm
    # the worst case the timer allows, with the run's restart rounds
    timer_schema: ParticipationSchema


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved, validated run configuration."""

    seed: int = _field(0, (lambda v: 0 <= v < 2**64, "in [0, 2^64)"))
    rounds: int = _field(200, _at_least(1))
    report_goal: int = _field(100, _at_least(1))
    population: int = 10_000  # at least report_goal
    noise_multiplier: float = _field(1.0, _NON_NEGATIVE)
    timer_rounds: int = _field(0, _at_least(0))  # 0 means: derive the default in __post_init__
    availability_kind: str = _field("uniform", _one_of("uniform", "diurnal"), "availability.kind")
    availability_period: float = _field(24.0, _POSITIVE, "availability.period")
    availability_amplitude: float = _field(0.5, _UNIT, "availability.amplitude")
    eta_c: float = _field(0.1, _POSITIVE)
    eta_s: float = _field(1.0, _POSITIVE)
    beta: float = _field(0.9, _UNIT_OPEN)
    batch_size: int = _field(16, _at_least(1))
    epochs: int = _field(1, _at_least(1))
    clip_mode: str = _field("adaptive", _one_of("fixed", "adaptive"), "clip.mode")
    # +inf clips nothing, which only a run without noise and SecAgg allows.
    clip_c0: float = _field(1.0, (lambda v: v > 0, "> 0"), "clip.c0")
    clip_gamma: float = _field(0.5, _UNIT, "clip.gamma")
    clip_eta_gamma: float = _field(0.2, _NON_NEGATIVE, "clip.eta_gamma")
    clip_sigma_b_fraction: float = _field(0.05, _POSITIVE, "clip.sigma_b_fraction")
    restart_mode: str = _field(
        "periodic", _one_of("periodic", "explicit", "none"), "restart.mode"
    )
    # Checked only under the restart.mode that reads them.
    restart_first: int = _field(128, key="restart.first")
    restart_period: int = _field(1024, key="restart.period")
    restart_rounds: tuple[int, ...] = _field((), key="restart.rounds")
    model_kind: str = _field("next_token_bow", _one_of("next_token_bow"), "model.kind")
    vocab_size: int = _field(100, _at_least(2), "model.vocab_size")
    window: int = _field(1, _at_least(1), "model.window")
    examples_per_client: int = _field(50, _at_least(1), "data.examples_per_client")
    heterogeneity: float = _field(0.3, _UNIT, "data.heterogeneity")
    concentration: float = _field(0.1, _POSITIVE, "data.concentration")
    eval_examples: int = _field(1000, _at_least(1), "data.eval_examples")
    secagg_enabled: bool = _field(False, key="secagg.enabled")
    secagg_scale: float = _field(100.0, _FINITE, "secagg.s")  # and > 0 with SecAgg on
    secagg_retry_cap: int = _field(DEFAULT_RETRY_CAP, _at_least(1), "secagg.retry_cap")
    warm_start: str = ""

    def __post_init__(self) -> None:
        _check_fields(self)
        fail = partial(_fail, self)
        if self.population < self.report_goal:
            fail("population", "must be >= report_goal")
        if self.timer_rounds == 0:
            object.__setattr__(
                self, "timer_rounds", max(1, self.population // (2 * self.report_goal))
            )
        if math.isinf(self.clip_c0) and (self.noise_multiplier > 0 or self.secagg_enabled):
            fail("clip_c0", "must be finite in a private or secure-aggregation run")
        if self.restart_mode == "periodic":
            for name in ("restart_first", "restart_period"):
                if getattr(self, name) < 1:
                    fail(name, "must be >= 1")
        if self.restart_mode == "explicit":
            try:  # the whole list, also the rounds past the run's end
                ParticipationSchema(self.rounds, 1, 1, self.restart_rounds)
            except ValueError as exc:
                fail("restart_rounds", str(exc))
        if self.secagg_enabled and self.clip_mode != "fixed":
            clip_mode = _key(ExperimentConfig, "clip_mode")
            fail("secagg_enabled", f"secure aggregation requires {clip_mode}=fixed")
        if self.secagg_enabled and not self.secagg_scale > 0:
            fail("secagg_scale", "must be > 0 with secure aggregation on")
        if _COMMENT.search(self.warm_start):
            fail("warm_start", "a '#' at its start or after whitespace would read as a comment")
        # Derived once, here, and shared by the run, its report and the
        # post-hoc report; not a field, so it stays out of the hash.
        object.__setattr__(self, "_terms", self._derive_privacy_terms())

    # -- construction ---------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ExperimentConfig":
        return _from_mapping(cls, mapping)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(parse_kv_text(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())

    # -- derived views ---------------------------------------------------

    def privacy_terms(self) -> PrivacyTerms:
        """The run's noise split, SecAgg encoding and timer schema."""
        return self._terms

    def _derive_privacy_terms(self) -> PrivacyTerms:
        """Derive privacy_terms().  A config whose terms cannot be derived,
        or whose worst-case rho could overflow, fails here, naming the key
        to change."""
        fail = partial(_fail, self)
        z_delta = z_equiv = self.noise_multiplier
        sigma_b = 0.0
        if z_delta > 0 and self.clip_mode == "adaptive":
            sigma_b = self.report_goal * self.clip_sigma_b_fraction
            try:
                z_delta = noise_split(z_equiv, sigma_b)
            except OverflowError:
                fail("noise_multiplier", "too small to split: z^-2 overflows")
            except (ValueError, ZeroDivisionError):
                fail(
                    "clip_sigma_b_fraction",
                    "clip-count noise too small to absorb: need "
                    "2 * report_goal * sigma_b_fraction > noise_multiplier",
                )
            z_equiv = combined_multiplier(z_delta, sigma_b)
        secagg, scale = None, 1.0
        if self.secagg_enabled:
            try:
                secagg = SecAggConfig(
                    clip_norm=self.clip_c0,
                    scale=self.secagg_scale,
                    model_dim=NextTokenBOW(self.vocab_size, self.window).num_params,
                    cohort_size=self.report_goal,
                    retry_cap=self.secagg_retry_cap,
                )
            except ValueError as exc:
                fail("secagg_scale", str(exc))
            scale = secagg.inflated_clip_norm / self.clip_c0
            if not math.isfinite(scale * scale):
                fail("secagg_scale", "too small for clip.c0: the sensitivity scale overflows")
        if self.restart_mode == "periodic":
            restarts = tuple(range(self.restart_first, self.rounds, self.restart_period))
        elif self.restart_mode == "explicit":
            restarts = tuple(r for r in self.restart_rounds if r < self.rounds)
        else:
            restarts = ()
        # The schema caps max_part at the timer's worst case, ceil(rounds / timer_rounds).
        timer_schema = ParticipationSchema(self.rounds, self.timer_rounds, self.rounds, restarts)
        if z_equiv > 0:
            # The run's rho is gaussian_zcdp of its sensitivity^2, at most
            # this bound, so the bound's rho is at least every run's rho.  An
            # int bound past the float range raises OverflowError, a rho past it ValueError.
            bound = timer_schema.sensitivity_sq_bound()
            try:
                rho_bound = gaussian_zcdp(bound, z_equiv, scale)
            except (OverflowError, ValueError):
                rho_bound = math.inf
            if math.isinf(rho_bound):
                fail(
                    "noise_multiplier",
                    "too small to account: the run's rho, up to "
                    "max_part^2 * bit_length(rounds) * scale^2 / (2 z^2), overflows",
                )
        return PrivacyTerms(z_delta, sigma_b, z_equiv, secagg, scale, timer_schema)

    def canonical_text(self) -> str:
        lines = [
            f"{_key(type(self), f.name)} = {_render(getattr(self, f.name))}" for f in fields(self)
        ]
        return "\n".join(sorted(lines)) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


@dataclass(frozen=True)
class SweepConfig:
    """Grid for privacy sweeps (the `sweep` CLI subcommand): one run config
    per run length and scale factor f (run_configs).  Each scales the report
    goal and the noise multiplier together by f, sets its timer to the best
    separation a timer can enforce at that goal, population // goal, and has
    a fixed clip and no restarts.  A grid point no run config accepts fails
    here, naming the sweep key and the point."""

    z: float = _field(rule=_POSITIVE, key="sweep.z")
    report_goal: int = _field(rule=_at_least(1), key="sweep.report_goal")
    population: int = _field(key="sweep.population")  # at least sweep.report_goal
    rounds: tuple[int, ...] = _field(rule=_each(_at_least(1)), key="sweep.rounds")
    scaling: tuple[float, ...] = _field((1.0,), _each(_POSITIVE), "sweep.scaling")

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.population < self.report_goal:
            _fail(self, "population", f"must be >= {_key(SweepConfig, 'report_goal')}")
        runs = tuple(self._run_config(rounds, f) for rounds in self.rounds for f in self.scaling)
        object.__setattr__(self, "_runs", runs)

    def run_configs(self) -> tuple[ExperimentConfig, ...]:
        """The run config of each grid point, run lengths outer, factors inner."""
        return self._runs

    def _run_config(self, rounds: int, factor: float) -> ExperimentConfig:
        goal = int(round(self.report_goal * factor))
        z = self.z * factor
        try:
            return ExperimentConfig(
                rounds=rounds,
                report_goal=goal,
                population=self.population,
                noise_multiplier=z,
                timer_rounds=self.population // max(goal, 1),  # a goal of 0 fails as report_goal
                clip_mode="fixed",
                restart_mode="none",
            )
        except ConfigError as exc:
            # Past the checks above, only the scaled z or the scaled goal can fail.
            name = "z" if "'noise_multiplier'" in str(exc) else "scaling"
            point = f"rounds {rounds}, scaling {factor!r}: report_goal {goal}, z {z!r}"
            _fail(self, name, f"grid point ({point}) is no run config: {exc}")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SweepConfig":
        return _from_mapping(cls, mapping)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepConfig":
        return cls.from_mapping(parse_kv_text(Path(path).read_text()))
