"""Experiment configuration: a flat, diff-friendly key=value text format.

Grammar (one setting per line):

    # comment
    key.subkey = value

Keys are dotted, lowercase; values are integers, floats, booleans
(true/false), strings, or comma-separated lists.  Unknown keys are errors
(they are almost always typos), and every validation failure names the
offending key.  A config resolves to a canonical sorted text rendering,
whose SHA-256 is the config hash recorded in run outputs: any field change
changes the hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from fpsim.federation import AvailabilityModel
from fpsim.tree import RestartSchedule

__all__ = ["ConfigError", "ExperimentConfig", "SweepConfig", "parse_kv_text"]


class ConfigError(ValueError):
    """Invalid configuration; message names the key at fault."""


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a raw string mapping."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r}: expected a boolean, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {value!r}") from None


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    if not value:
        return ()
    return tuple(_parse_int(key, item.strip()) for item in value.split(","))


def _parse_float_list(key: str, value: str) -> tuple[float, ...]:
    if not value:
        return ()
    return tuple(_parse_float(key, item.strip()) for item in value.split(","))


# (config key, attribute, parser kind, default). Defaults of None are
# computed in validation; the canonical rendering always shows the
# resolved value.
_SCHEMA: tuple[tuple[str, str, str, object], ...] = (
    ("seed", "seed", "int", 0),
    ("rounds", "rounds", "int", 200),
    ("report_goal", "report_goal", "int", 100),
    ("population", "population", "int", 10_000),
    ("noise_multiplier", "noise_multiplier", "float", 1.0),
    ("timer_rounds", "timer_rounds", "int", None),
    ("availability.kind", "availability_kind", "str", "uniform"),
    ("availability.period", "availability_period", "float", 24.0),
    ("availability.amplitude", "availability_amplitude", "float", 0.5),
    ("eta_c", "eta_c", "float", 0.1),
    ("eta_s", "eta_s", "float", 1.0),
    ("beta", "beta", "float", 0.9),
    ("batch_size", "batch_size", "int", 16),
    ("epochs", "epochs", "int", 1),
    ("clip.mode", "clip_mode", "str", "adaptive"),
    ("clip.c0", "clip_c0", "float", 1.0),
    ("clip.gamma", "clip_gamma", "float", 0.5),
    ("clip.eta_gamma", "clip_eta_gamma", "float", 0.2),
    ("clip.sigma_b_fraction", "clip_sigma_b_fraction", "float", 0.05),
    ("restart.mode", "restart_mode", "str", "periodic"),
    ("restart.first", "restart_first", "int", 128),
    ("restart.period", "restart_period", "int", 1024),
    ("restart.rounds", "restart_rounds", "int_list", ()),
    ("model.kind", "model_kind", "str", "next_token_bow"),
    ("model.vocab_size", "vocab_size", "int", 100),
    ("model.window", "window", "int", 1),
    ("data.examples_per_client", "examples_per_client", "int", 50),
    ("data.heterogeneity", "heterogeneity", "float", 0.3),
    ("data.concentration", "concentration", "float", 0.1),
    ("data.eval_examples", "eval_examples", "int", 1000),
    ("secagg.enabled", "secagg_enabled", "bool", False),
    ("secagg.s", "secagg_scale", "float", 100.0),
    ("secagg.retry_cap", "secagg_retry_cap", "int", 100),
    ("warm_start", "warm_start", "str", ""),
)

_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": lambda key, value: value,
    "int_list": _parse_int_list,
    "float_list": _parse_float_list,
}


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved, validated run configuration."""

    seed: int = 0
    rounds: int = 200
    report_goal: int = 100
    population: int = 10_000
    noise_multiplier: float = 1.0
    timer_rounds: int = 0  # 0 means: derive the default in __post_init__
    availability_kind: str = "uniform"
    availability_period: float = 24.0
    availability_amplitude: float = 0.5
    eta_c: float = 0.1
    eta_s: float = 1.0
    beta: float = 0.9
    batch_size: int = 16
    epochs: int = 1
    clip_mode: str = "adaptive"
    clip_c0: float = 1.0
    clip_gamma: float = 0.5
    clip_eta_gamma: float = 0.2
    clip_sigma_b_fraction: float = 0.05
    restart_mode: str = "periodic"
    restart_first: int = 128
    restart_period: int = 1024
    restart_rounds: tuple[int, ...] = ()
    model_kind: str = "next_token_bow"
    vocab_size: int = 100
    window: int = 1
    examples_per_client: int = 50
    heterogeneity: float = 0.3
    concentration: float = 0.1
    eval_examples: int = 1000
    secagg_enabled: bool = False
    secagg_scale: float = 100.0
    secagg_retry_cap: int = 100
    warm_start: str = ""

    def __post_init__(self) -> None:
        def fail(key: str, why: str) -> None:
            raise ConfigError(f"config key {key!r}: {why}")

        if self.seed < 0 or self.seed >= 2**64:
            fail("seed", "must be in [0, 2^64)")
        if self.rounds < 1:
            fail("rounds", "must be >= 1")
        if self.report_goal < 1:
            fail("report_goal", "must be >= 1")
        if self.population < self.report_goal:
            fail("population", "must be >= report_goal")
        if self.noise_multiplier < 0:
            fail("noise_multiplier", "must be >= 0")
        if self.timer_rounds == 0:
            object.__setattr__(
                self, "timer_rounds", max(1, self.population // (2 * self.report_goal))
            )
        if self.timer_rounds < 1:
            fail("timer_rounds", "must be >= 1")
        if self.availability_kind not in ("uniform", "diurnal"):
            fail("availability.kind", "must be 'uniform' or 'diurnal'")
        if not self.availability_period > 0:
            fail("availability.period", "must be > 0")
        if not 0.0 <= self.availability_amplitude <= 1.0:
            fail("availability.amplitude", "must be in [0, 1]")
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
            fail("clip.mode", "must be 'fixed' or 'adaptive'")
        if not self.clip_c0 > 0:
            fail("clip.c0", "must be > 0")
        if not 0.0 <= self.clip_gamma <= 1.0:
            fail("clip.gamma", "must be in [0, 1]")
        if self.clip_eta_gamma < 0:
            fail("clip.eta_gamma", "must be >= 0")
        if not self.clip_sigma_b_fraction > 0:
            fail("clip.sigma_b_fraction", "must be > 0")
        if self.clip_mode == "adaptive" and self.noise_multiplier > 0:
            sigma_b = self.report_goal * self.clip_sigma_b_fraction
            if not 2.0 * sigma_b > self.noise_multiplier:
                fail(
                    "clip.sigma_b_fraction",
                    "clip-count noise too small to absorb: need "
                    "2 * report_goal * sigma_b_fraction > noise_multiplier",
                )
        if self.restart_mode not in ("periodic", "explicit", "none"):
            fail("restart.mode", "must be 'periodic', 'explicit', or 'none'")
        if self.restart_mode == "periodic":
            if self.restart_first < 1:
                fail("restart.first", "must be >= 1")
            if self.restart_period < 1:
                fail("restart.period", "must be >= 1")
        if self.restart_mode == "explicit":
            try:
                RestartSchedule(self.restart_rounds)
            except ValueError as exc:
                fail("restart.rounds", str(exc))
        if self.model_kind != "next_token_bow":
            fail("model.kind", "the only built-in model is 'next_token_bow'")
        if self.vocab_size < 2:
            fail("model.vocab_size", "must be >= 2")
        if self.window < 1:
            fail("model.window", "must be >= 1")
        if self.examples_per_client < 1:
            fail("data.examples_per_client", "must be >= 1")
        if not 0.0 <= self.heterogeneity <= 1.0:
            fail("data.heterogeneity", "must be in [0, 1]")
        if not self.concentration > 0:
            fail("data.concentration", "must be > 0")
        if self.eval_examples < 1:
            fail("data.eval_examples", "must be >= 1")
        if self.secagg_enabled and self.clip_mode != "fixed":
            fail("secagg.enabled", "secure aggregation requires clip.mode=fixed")
        if self.secagg_enabled and not self.secagg_scale > 0:
            fail("secagg.s", "must be > 0")
        if self.secagg_retry_cap < 1:
            fail("secagg.retry_cap", "must be >= 1")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ExperimentConfig":
        known = {key for key, _, _, _ in _SCHEMA}
        for key in mapping:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        kwargs = {}
        for key, attr, kind, default in _SCHEMA:
            if key in mapping:
                kwargs[attr] = _PARSERS[kind](key, mapping[key])
            elif default is not None:
                kwargs[attr] = default
        return cls(**kwargs)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(parse_kv_text(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())

    # -- derived views ---------------------------------------------------

    def restart_schedule(self) -> RestartSchedule:
        if self.restart_mode == "none":
            return RestartSchedule(())
        if self.restart_mode == "explicit":
            return RestartSchedule(tuple(r for r in self.restart_rounds if r < self.rounds))
        return RestartSchedule.periodic(self.rounds, self.restart_first, self.restart_period)

    def availability(self) -> AvailabilityModel:
        return AvailabilityModel(
            kind=self.availability_kind,
            period=self.availability_period,
            amplitude=self.availability_amplitude,
        )

    def sigma_b(self) -> float:
        return self.report_goal * self.clip_sigma_b_fraction

    def canonical_text(self) -> str:
        by_attr = {attr: key for key, attr, _, _ in _SCHEMA}
        lines = []
        for field_info in fields(self):
            key = by_attr[field_info.name]
            lines.append(f"{key} = {_render(getattr(self, field_info.name))}")
        return "\n".join(sorted(lines)) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


@dataclass(frozen=True)
class SweepConfig:
    """Grid for privacy sweeps (the `sweep` CLI subcommand)."""

    z: float
    report_goal: int
    population: int
    rounds: tuple[int, ...]
    scaling: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not self.z > 0:
            raise ConfigError("config key 'sweep.z': must be > 0")
        if self.report_goal < 1:
            raise ConfigError("config key 'sweep.report_goal': must be >= 1")
        if self.population < self.report_goal:
            raise ConfigError("config key 'sweep.population': must be >= sweep.report_goal")
        if not self.rounds or any(r < 1 for r in self.rounds):
            raise ConfigError("config key 'sweep.rounds': need a list of integers >= 1")
        if not self.scaling or any(not f > 0 for f in self.scaling):
            raise ConfigError("config key 'sweep.scaling': need a list of factors > 0")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SweepConfig":
        known = {
            "sweep.z": ("z", "float"),
            "sweep.report_goal": ("report_goal", "int"),
            "sweep.population": ("population", "int"),
            "sweep.rounds": ("rounds", "int_list"),
            "sweep.scaling": ("scaling", "float_list"),
        }
        for key in mapping:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        kwargs = {}
        for key, (attr, kind) in known.items():
            if key in mapping:
                kwargs[attr] = _PARSERS[kind](key, mapping[key])
        missing = {"z", "report_goal", "population", "rounds"} - set(kwargs)
        if missing:
            raise ConfigError(f"missing sweep config keys: {sorted(missing)}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepConfig":
        return cls.from_mapping(parse_kv_text(Path(path).read_text()))
