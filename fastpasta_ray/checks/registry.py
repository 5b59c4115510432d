"""User-extension surface: custom check registry + config file round-trip.

Analog of the reference's extension points (SURVEY.md §2.9):
- new validator module + enum variant (link_validator.rs:7-12,132-144)
  → here: ``@register_check("name")`` on a batch function,
- custom checks TOML via ``--checks-toml`` / ``--generate-checks-toml``
  (custom_checks_cfg.rs:7-28, config.rs:205-216)
  → here: JSON config round-trip (save_config / load_config) carrying
  every CheckConfig field plus the names of enabled custom checks.

A custom check is ``fn(batch: pa.Table, cfg: CheckConfig) -> pa.Table``
(VIOLATIONS_SCHEMA). Registration happens at import time on each worker
(the registry lives in module scope; config ships only the NAMES, so the
config stays picklable and the functions never serialize).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fastpasta_ray import schema as S
from fastpasta_ray.stages.validate import CheckConfig

_REGISTRY: dict[str, Callable] = {}


def register_check(name: str):
    """Decorator: add a custom batch check under ``name``."""

    def deco(fn: Callable) -> Callable:
        _REGISTRY[name] = fn
        return fn

    return deco


def get_check(name: str) -> Callable:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown custom check {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered() -> list[str]:
    return sorted(_REGISTRY)


def run_custom_checks(batch: pa.Table, cfg: CheckConfig) -> pa.Table:
    # user modules registering checks must be importable on every worker;
    # list them in cfg.extra["custom_check_modules"] and they are imported
    # here (idempotent) before lookup
    import importlib

    for mod in cfg.extra.get("custom_check_modules", ()):
        importlib.import_module(mod)
    # a user check's table is the one violation source not built by
    # schema.violations: it is cast to VIOLATIONS_SCHEMA here, once
    return pa.concat_tables(
        [
            get_check(name)(batch, cfg).cast(S.VIOLATIONS_SCHEMA)
            for name in cfg.extra.get("custom_checks", ())
        ]
        or [S.VIOLATIONS_SCHEMA.empty_table()]
    )


# ---------------------------------------------------------------------------
# config file round-trip (--generate-checks-toml / --checks-toml analog)
# ---------------------------------------------------------------------------

def save_config(cfg: CheckConfig, path: str) -> None:
    """Write a checks config; format follows the extension — ``.toml`` →
    TOML (the reference's user-facing config format, --checks-toml /
    custom_checks_cfg.rs:7-28), anything else → JSON. TOML has no null:
    None-valued fields are omitted and load back as dataclass defaults
    (every CheckConfig field's default is None or non-None-stable, so the
    round trip is lossless)."""
    d = asdict(cfg)
    d["source_domain"] = list(d["source_domain"])
    # preserve the ()-vs-None distinction: () means "match nothing" /
    # "no codes enabled" at run time, None disables the feature — a save/
    # load cycle must not silently widen () into an unfiltered run
    d["enabled_codes"] = (
        list(d["enabled_codes"]) if d["enabled_codes"] is not None else None
    )
    d["filter_sources"] = (
        list(d["filter_sources"]) if d["filter_sources"] is not None else None
    )
    with open(path, "w") as f:
        if path.endswith(".toml"):
            from fastpasta_ray.pipelines.check import dump_toml

            f.write(dump_toml(d))
        else:
            json.dump(d, f, indent=2, sort_keys=True)


def load_config(path: str) -> CheckConfig:
    """Read a checks config written by save_config (or hand-edited);
    ``.toml`` → tomllib, else JSON (--checks-toml analog,
    config.rs:205-216). Unknown fields fail loudly (the reference's serde
    deny_unknown_fields behavior)."""
    if path.endswith(".toml"):
        import tomllib

        with open(path, "rb") as f:
            d = tomllib.load(f)
    else:
        with open(path) as f:
            d = json.load(f)
    known = set(CheckConfig.__dataclass_fields__)
    unknown = sorted(set(d) - known)
    if unknown:
        raise ValueError(
            f"unknown field(s) in checks config {path!r}: {unknown}; "
            f"known fields: {sorted(known)}"
        )
    d["source_domain"] = tuple(d.get("source_domain") or S.SOURCES)
    if d.get("enabled_codes") is not None:
        d["enabled_codes"] = tuple(d["enabled_codes"])
    if d.get("filter_sources") is not None:
        d["filter_sources"] = tuple(d["filter_sources"])
    if d.get("allowed_segment_orders"):
        d["allowed_segment_orders"] = tuple(
            tuple(o) for o in d["allowed_segment_orders"]
        )
    for k in ("warning_sentinel_ids", "fatal_sentinel_ids"):
        if d.get(k) is not None:
            d[k] = tuple(int(x) for x in d[k])
    return CheckConfig(**d)


def generate_template(path: str) -> None:
    """Write a default config template (--generate-checks-toml analog,
    config.rs:383-447; .toml extension → TOML template)."""
    save_config(CheckConfig(), path)


# ---------------------------------------------------------------------------
# example custom check (doubles as the test subject): max sequence length
# ---------------------------------------------------------------------------

@register_check("max_len")
def check_max_len(batch: pa.Table, cfg: CheckConfig) -> pa.Table:
    """E9100: n_tok above a configured hard cap (cfg.extra['max_len'])."""
    cap = int(cfg.extra.get("max_len", 1 << 30))
    mask = pc.fill_null(pc.greater(batch["n_tok"], cap), False)
    rows = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
    ntok = batch["n_tok"].to_numpy(zero_copy_only=False)
    return S.batch_violations(
        batch, rows, "E9100", "n_tok",
        [f"n_tok {int(ntok[r])} exceeds max_len {cap}" for r in rows],
    )
