"""Run configuration: one JSON document drives every pipeline stage.

Relative paths in the config resolve against the config file's directory,
so a config can travel with its data. A non-object document, an unknown
top-level key, or a value of the wrong type or out of its range is a config
error, so every subcommand rejects it before any work. Backend profiles are
declared per role (generation, embedding, reward, judge, and optionally one
per cascade agent; any other role or an unknown profile field is a config
error); every backend is wrapped in the shared on-disk cache under the
working directory, the one record of endpoint answers reused across runs.
A profile's ``max_inflight`` is the one concurrency setting: it caps the
requests in flight to that backend and sizes the thread pool of every
fan-out that calls it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .backends import BackendProfile, ConfigError, GenParams, is_finite_number, make_backend
from .cascade import AGENTS
from .corpus import sha256_file
from .evalharness import EvalError, MatchPolicy
from .filtering import STRATEGIES
from .induction import NORMALIZATIONS

CONFIG_SCHEMA_VERSION = 1
REQUIRED_ROLES = ("generation", "embedding", "reward", "judge")
CONFIG_KEYS = (
    "schema_version", "seed", "k", "n_candidates", "strategy", "temperature", "max_tokens",
    "held_out_fraction", "normalization", "reward_threshold", "paths", "policy", "backends",
)


@dataclass
class RunConfig:
    k: int
    n_candidates: int
    strategy: str
    params: GenParams
    held_out_fraction: float
    normalization: str
    reward_threshold: float
    seed_path: Path
    pool_path: Path
    workdir: Path
    gold_path: Path | None
    policy: MatchPolicy
    profiles: dict[str, BackendProfile]
    config_hash: str


def _resolve(base, value):
    path = Path(value)
    return path if path.is_absolute() else (base / path)


def _integer(raw, key, default):
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _number(raw, key, default):
    value = raw.get(key, default)
    if not is_finite_number(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _object(raw, key):
    value = raw.get(key) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {type(value).__name__}")
    return value


def _parse_policy(raw):
    try:
        return MatchPolicy(**raw)
    except (TypeError, EvalError) as exc:
        raise ConfigError(f"invalid policy: {exc}") from exc


def _parse_profile(role, raw):
    try:
        return BackendProfile(**raw)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"invalid backend profile {role!r}: {exc}") from exc


def load_config(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema_version {version!r}; expected {CONFIG_SCHEMA_VERSION}"
        )
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; expected only {CONFIG_KEYS}")

    base = path.parent
    paths = _object(raw, "paths")
    for key in ("seed", "pool", "workdir"):
        if key not in paths:
            raise ConfigError(f"paths.{key} is required")
    for key, value in paths.items():
        if not isinstance(value, str):
            raise ConfigError(f"paths.{key} must be a string, got {value!r}")
    seed_path = _resolve(base, paths["seed"])
    pool_path = _resolve(base, paths["pool"])
    workdir = _resolve(base, paths["workdir"])
    gold_path = _resolve(base, paths["gold"]) if paths.get("gold") else None
    for name, p in (("paths.seed", seed_path), ("paths.pool", pool_path)):
        if not p.exists():
            raise ConfigError(f"{name} does not exist: {p}")
    if gold_path is not None and not gold_path.exists():
        raise ConfigError(f"paths.gold does not exist: {gold_path}")

    k = _integer(raw, "k", 5)
    if k < 0:
        raise ConfigError("k must be >= 0")
    n_candidates = _integer(raw, "n_candidates", 4)
    if n_candidates < 2:
        raise ConfigError("n_candidates must be >= 2: preference scoring needs a pair")
    held_out_fraction = _number(raw, "held_out_fraction", 0.25)
    if not 0.0 < held_out_fraction < 1.0:
        raise ConfigError(f"held_out_fraction must be in (0, 1), got {held_out_fraction}")
    normalization = raw.get("normalization", "zscore")
    if normalization not in NORMALIZATIONS:
        raise ConfigError(
            f"unknown normalization {normalization!r}; expected one of {NORMALIZATIONS}"
        )
    strategy = raw.get("strategy", "average")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

    backends_raw = _object(raw, "backends")
    for role in REQUIRED_ROLES:
        if role not in backends_raw:
            raise ConfigError(f"backends.{role} is required")
    profiles = {}
    for role, profile in backends_raw.items():
        if role not in REQUIRED_ROLES + AGENTS:
            raise ConfigError(
                f"unknown backend role {role!r}; expected one of {REQUIRED_ROLES + AGENTS}"
            )
        profiles[role] = _parse_profile(role, profile)

    try:
        params = GenParams(
            temperature=_number(raw, "temperature", 0.1),
            max_tokens=_integer(raw, "max_tokens", 1024),
            seed=_integer(raw, "seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        k=k,
        n_candidates=n_candidates,
        strategy=strategy,
        params=params,
        held_out_fraction=held_out_fraction,
        normalization=normalization,
        reward_threshold=_number(raw, "reward_threshold", 0.0),
        seed_path=seed_path,
        pool_path=pool_path,
        workdir=workdir,
        gold_path=gold_path,
        policy=_parse_policy(raw.get("policy") or {}),
        profiles=profiles,
        config_hash=sha256_file(path),
    )


def build_backends(config):
    """One cached backend per declared role; agent roles default to generation."""
    backends = {}
    for role, profile in config.profiles.items():
        cache_dir = profile.cache_dir or str(config.workdir / "cache" / role)
        backends[role] = make_backend(profile, cache_dir=cache_dir)
    for role in AGENTS:
        backends.setdefault(role, backends["generation"])
    return backends
