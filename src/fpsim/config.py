"""Experiment configuration: a flat, diff-friendly key=value text format.

Grammar (one setting per line):

    # comment
    key.subkey = value        # comment

A ``#`` at the start of a line or after whitespace starts a comment that
runs to the end of the line.

Keys are dotted, lowercase; values are integers, floats, booleans
(true/false), strings, or comma-separated lists.  Unknown keys are errors
(they are almost always typos), and every validation failure names the
offending key.  Each key, its type and its default are declared once, on
the fields of the config dataclasses below.  A config resolves to a
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
from typing import Any, NoReturn, get_args, get_origin, get_type_hints

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


def _keyed(key: str, default: object = MISSING) -> Any:
    """A config field whose key differs from its attribute name."""
    return field(default=default, metadata={"key": key})


def _key(config_cls: type, name: str) -> str:
    """The config key of field ``name``: its declared key, or else its name."""
    return config_cls.__dataclass_fields__[name].metadata.get("key", name)


def _fail(config: object, name: str, why: str) -> NoReturn:
    raise ConfigError(f"config key {_key(type(config), name)!r}: {why}")


def _from_mapping(config_cls: type, mapping: dict[str, str]) -> Any:
    """Build a config dataclass from raw strings.  Its fields are the
    schema: each key, its type (the annotation) and its default (the field
    default) are declared once, on the dataclass."""
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


def _sensitivity_sq_bound(total_rounds: int, max_part: int) -> int:
    """An upper bound on the accountant's worst-case sensitivity^2 (clip
    units): each tree node counts at most max_part participations, and each
    round lies in at most total_rounds.bit_length() nodes."""
    return max_part**2 * total_rounds.bit_length()


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

    seed: int = 0
    rounds: int = 200
    report_goal: int = 100
    population: int = 10_000
    noise_multiplier: float = 1.0
    timer_rounds: int = 0  # 0 means: derive the default in __post_init__
    availability_kind: str = _keyed("availability.kind", "uniform")
    availability_period: float = _keyed("availability.period", 24.0)
    availability_amplitude: float = _keyed("availability.amplitude", 0.5)
    eta_c: float = 0.1
    eta_s: float = 1.0
    beta: float = 0.9
    batch_size: int = 16
    epochs: int = 1
    clip_mode: str = _keyed("clip.mode", "adaptive")
    clip_c0: float = _keyed("clip.c0", 1.0)
    clip_gamma: float = _keyed("clip.gamma", 0.5)
    clip_eta_gamma: float = _keyed("clip.eta_gamma", 0.2)
    clip_sigma_b_fraction: float = _keyed("clip.sigma_b_fraction", 0.05)
    restart_mode: str = _keyed("restart.mode", "periodic")
    restart_first: int = _keyed("restart.first", 128)
    restart_period: int = _keyed("restart.period", 1024)
    restart_rounds: tuple[int, ...] = _keyed("restart.rounds", ())
    model_kind: str = _keyed("model.kind", "next_token_bow")
    vocab_size: int = _keyed("model.vocab_size", 100)
    window: int = _keyed("model.window", 1)
    examples_per_client: int = _keyed("data.examples_per_client", 50)
    heterogeneity: float = _keyed("data.heterogeneity", 0.3)
    concentration: float = _keyed("data.concentration", 0.1)
    eval_examples: int = _keyed("data.eval_examples", 1000)
    secagg_enabled: bool = _keyed("secagg.enabled", False)
    secagg_scale: float = _keyed("secagg.s", 100.0)
    secagg_retry_cap: int = _keyed("secagg.retry_cap", DEFAULT_RETRY_CAP)
    warm_start: str = ""

    def __post_init__(self) -> None:
        fail = partial(_fail, self)
        if self.seed < 0 or self.seed >= 2**64:
            fail("seed", "must be in [0, 2^64)")
        if self.rounds < 1:
            fail("rounds", "must be >= 1")
        if self.report_goal < 1:
            fail("report_goal", "must be >= 1")
        if self.population < self.report_goal:
            fail("population", "must be >= report_goal")
        if not math.isfinite(self.noise_multiplier):
            fail("noise_multiplier", "must be finite")
        if self.noise_multiplier < 0:
            fail("noise_multiplier", "must be >= 0")
        if self.timer_rounds == 0:
            object.__setattr__(
                self, "timer_rounds", max(1, self.population // (2 * self.report_goal))
            )
        if self.timer_rounds < 1:
            fail("timer_rounds", "must be >= 1")
        if self.availability_kind not in ("uniform", "diurnal"):
            fail("availability_kind", "must be 'uniform' or 'diurnal'")
        if not self.availability_period > 0:
            fail("availability_period", "must be > 0")
        if not 0.0 <= self.availability_amplitude <= 1.0:
            fail("availability_amplitude", "must be in [0, 1]")
        if not self.eta_c > 0:
            fail("eta_c", "must be > 0")
        if not self.eta_s > 0:
            fail("eta_s", "must be > 0")
        if not 0.0 <= self.beta < 1.0:
            fail("beta", "must be in [0, 1)")
        if self.batch_size < 1:
            fail("batch_size", "must be >= 1")
        if self.epochs < 1:
            fail("epochs", "must be >= 1")
        if self.clip_mode not in ("fixed", "adaptive"):
            fail("clip_mode", "must be 'fixed' or 'adaptive'")
        if not self.clip_c0 > 0:
            fail("clip_c0", "must be > 0")
        if math.isinf(self.clip_c0) and (self.noise_multiplier > 0 or self.secagg_enabled):
            fail("clip_c0", "must be finite in a private or secure-aggregation run")
        if not 0.0 <= self.clip_gamma <= 1.0:
            fail("clip_gamma", "must be in [0, 1]")
        if self.clip_eta_gamma < 0:
            fail("clip_eta_gamma", "must be >= 0")
        if not self.clip_sigma_b_fraction > 0:
            fail("clip_sigma_b_fraction", "must be > 0")
        if self.restart_mode not in ("periodic", "explicit", "none"):
            fail("restart_mode", "must be 'periodic', 'explicit', or 'none'")
        if self.restart_mode == "periodic":
            if self.restart_first < 1:
                fail("restart_first", "must be >= 1")
            if self.restart_period < 1:
                fail("restart_period", "must be >= 1")
        if self.restart_mode == "explicit":
            try:  # the whole list, also the rounds past the run's end
                ParticipationSchema(self.rounds, 1, 1, self.restart_rounds)
            except ValueError as exc:
                fail("restart_rounds", str(exc))
        if self.model_kind != "next_token_bow":
            fail("model_kind", "the only built-in model is 'next_token_bow'")
        if self.vocab_size < 2:
            fail("vocab_size", "must be >= 2")
        if self.window < 1:
            fail("window", "must be >= 1")
        if self.examples_per_client < 1:
            fail("examples_per_client", "must be >= 1")
        if not 0.0 <= self.heterogeneity <= 1.0:
            fail("heterogeneity", "must be in [0, 1]")
        if not self.concentration > 0:
            fail("concentration", "must be > 0")
        if self.eval_examples < 1:
            fail("eval_examples", "must be >= 1")
        if self.secagg_enabled and self.clip_mode != "fixed":
            clip_mode = _key(ExperimentConfig, "clip_mode")
            fail("secagg_enabled", f"secure aggregation requires {clip_mode}=fixed")
        if self.secagg_enabled and not 0 < self.secagg_scale < math.inf:
            fail("secagg_scale", "must be finite and > 0")
        if self.secagg_retry_cap < 1:
            fail("secagg_retry_cap", "must be >= 1")
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
            # this bound, so the bound's rho is at least every run's rho.
            bound = _sensitivity_sq_bound(self.rounds, timer_schema.max_part)
            try:
                rho_bound = gaussian_zcdp(bound, z_equiv, scale)
            except OverflowError:
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
    """Grid for privacy sweeps (the `sweep` CLI subcommand)."""

    z: float = _keyed("sweep.z")
    report_goal: int = _keyed("sweep.report_goal")
    population: int = _keyed("sweep.population")
    rounds: tuple[int, ...] = _keyed("sweep.rounds")
    scaling: tuple[float, ...] = _keyed("sweep.scaling", (1.0,))

    def __post_init__(self) -> None:
        fail = partial(_fail, self)
        if not self.z > 0:
            fail("z", "must be > 0")
        if self.report_goal < 1:
            fail("report_goal", "must be >= 1")
        if self.population < self.report_goal:
            fail("population", f"must be >= {_key(SweepConfig, 'report_goal')}")
        if not self.rounds or any(r < 1 for r in self.rounds):
            fail("rounds", "need a list of integers >= 1")
        if not self.scaling or any(not f > 0 for f in self.scaling):
            fail("scaling", "need a list of factors > 0")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SweepConfig":
        return _from_mapping(cls, mapping)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepConfig":
        return cls.from_mapping(parse_kv_text(Path(path).read_text()))
