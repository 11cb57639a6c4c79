"""Run configuration: one JSON document drives every pipeline stage.

Relative paths in the config resolve against the config file's directory,
so a config can travel with its data. A non-object document, an unknown
top-level key, or a value that fails its cast or range check is a config
error. Backend profiles are declared per role (generation, embedding,
reward, judge, and optionally one per cascade agent; any other role is a
config error); every backend is wrapped in the shared on-disk cache under
the working directory. A profile's ``max_inflight`` is the one concurrency
setting: it caps the requests in flight to that backend and sizes the
thread pool of every fan-out that calls it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .backends import BackendProfile, ConfigError, GenParams, make_backend
from .cascade import AGENTS
from .evalharness import EvalError, MatchPolicy
from .filtering import STRATEGIES

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


def config_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _resolve(base, value):
    path = Path(value)
    return path if path.is_absolute() else (base / path)


def _number(raw, key, cast, default):
    try:
        return cast(raw.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a number, got {raw[key]!r}") from exc


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
    paths = raw.get("paths") or {}
    for key in ("seed", "pool", "workdir"):
        if key not in paths:
            raise ConfigError(f"paths.{key} is required")
    seed_path = _resolve(base, paths["seed"])
    pool_path = _resolve(base, paths["pool"])
    workdir = _resolve(base, paths["workdir"])
    gold_path = _resolve(base, paths["gold"]) if paths.get("gold") else None
    for name, p in (("paths.seed", seed_path), ("paths.pool", pool_path)):
        if not p.exists():
            raise ConfigError(f"{name} does not exist: {p}")
    if gold_path is not None and not gold_path.exists():
        raise ConfigError(f"paths.gold does not exist: {gold_path}")

    k = _number(raw, "k", int, 5)
    if k < 0:
        raise ConfigError("k must be >= 0")
    strategy = raw.get("strategy", "average")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

    backends_raw = raw.get("backends") or {}
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
            temperature=_number(raw, "temperature", float, 0.1),
            max_tokens=_number(raw, "max_tokens", int, 1024),
            seed=_number(raw, "seed", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        k=k,
        n_candidates=_number(raw, "n_candidates", int, 4),
        strategy=strategy,
        params=params,
        held_out_fraction=_number(raw, "held_out_fraction", float, 0.25),
        normalization=raw.get("normalization", "zscore"),
        reward_threshold=_number(raw, "reward_threshold", float, 0.0),
        seed_path=seed_path,
        pool_path=pool_path,
        workdir=workdir,
        gold_path=gold_path,
        policy=_parse_policy(raw.get("policy") or {}),
        profiles=profiles,
        config_hash=config_sha256(path),
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
