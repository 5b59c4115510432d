"""Reference-profile build/compare + PSI/KS distribution drift.

Analog of the reference's ``--input-stats-file`` comparison
(StatsCollector::validate_other_stats, stats_collector.rs:178-217): exact
fields compared exactly (one mismatch message per field, E9002), numeric
distributions compared via PSI / KS per partition (E9440/E9441), and
user-expected counters (custom checks ``cdps``, stats_validation.rs:4-38 →
E9001).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from fastpasta_ray import schema as S
from fastpasta_ray.sketches import IntHistogram, PartStats

GLOBAL_PART = "__global__"
DEFAULT_EDGES = np.array(
    [0, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096, 1 << 30]
)


def build_profile(stats_by_part: dict[str, PartStats], violations_by_code: dict[str, int] | None = None) -> dict:
    """Serializable reference profile (FIXTURES.md `reference_profile`):
    one fold of the per-partition partials (associative mergeable
    sketches) into a fresh ``PartStats``, so the parts, which the report
    still reads, stay as they were."""
    parts = list(stats_by_part.values())
    g = PartStats(parts[0].vocab_bitmap.vocab) if parts else PartStats()
    for ps in parts:
        g.merge(ps)
    return {
        "row_count": g.row_count,
        "token_count": g.token_count,
        "has_payload": g.has_payload,
        "doc_id_hll_estimate": round(g.hll.estimate(), 2),
        "n_tok_quantiles": g.n_tok_hist.quantiles(),
        "n_tok_min": g.n_tok_hist.min(),
        "n_tok_max": g.n_tok_hist.max(),
        "token_min": g.token_mm.lo,
        "token_max": g.token_mm.hi,
        "vocab_seen_count": g.vocab_bitmap.count,
        "source_histogram": g.source_hist.to_json(),
        "n_tok_hist": g.n_tok_hist.to_json(),
        "violation_count_by_code": dict(sorted((violations_by_code or {}).items())),
        "parts": sorted(stats_by_part),
    }


def psi(p: np.ndarray, q: np.ndarray, eps: float = 1e-6) -> float:
    """Population stability index between two probability vectors."""
    p = np.clip(p, eps, None)
    q = np.clip(q, eps, None)
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def ks(p: np.ndarray, q: np.ndarray) -> float:
    """Kolmogorov–Smirnov statistic from bucketed mass vectors."""
    return float(np.max(np.abs(np.cumsum(p) - np.cumsum(q))))


def _mix_vector(counts: dict[str, int], keys: list[str]) -> np.ndarray:
    v = np.array([counts.get(k, 0) for k in keys], dtype=np.float64)
    s = v.sum()
    return v / s if s else v


def drift_check(
    stats_by_part: dict[str, PartStats],
    reference_profile: dict,
    *,
    psi_threshold: float = 0.2,
    ks_threshold: float = 0.15,
    edges: np.ndarray = DEFAULT_EDGES,
) -> tuple[pa.Table, dict]:
    """Per-partition PSI/KS of n_tok distribution + source mix vs profile.

    Returns (violations table, per-part drift metrics dict)."""
    ref_hist = IntHistogram.from_json(reference_profile["n_tok_hist"])
    ref_ntok = ref_hist.normalized(edges)
    src_keys = sorted(reference_profile["source_histogram"])
    ref_mix = _mix_vector(reference_profile["source_histogram"], src_keys)
    hits: list[tuple] = []  # (part, code, column, detail) per breached gate
    metrics: dict[str, dict] = {}

    for part in sorted(stats_by_part):
        ps = stats_by_part[part]
        p_ntok = ps.n_tok_hist.normalized(edges)
        psi_ntok = psi(p_ntok, ref_ntok)
        ks_ntok = ks(p_ntok, ref_ntok)
        all_keys = sorted(set(src_keys) | set(ps.source_hist.counts))
        psi_src = psi(
            _mix_vector(ps.source_hist.counts, all_keys),
            _mix_vector(reference_profile["source_histogram"], all_keys),
        )
        metrics[part] = {
            "psi_n_tok": round(psi_ntok, 4),
            "ks_n_tok": round(ks_ntok, 4),
            "psi_source": round(psi_src, 4),
        }
        if psi_ntok > psi_threshold:
            hits.append((part, S.E_DRIFT_PSI, "n_tok",
                         f"n_tok PSI {psi_ntok:.4f} > {psi_threshold} vs reference profile"))
        if ks_ntok > ks_threshold:
            hits.append((part, S.E_DRIFT_KS, "n_tok",
                         f"n_tok KS {ks_ntok:.4f} > {ks_threshold} vs reference profile"))
        if psi_src > psi_threshold:
            hits.append((part, S.E_DRIFT_PSI, "source",
                         f"source-mix PSI {psi_src:.4f} > {psi_threshold} vs reference profile"))
    part, code, column, detail = [list(c) for c in zip(*hits)] or [[]] * 4
    return S.violations(part, -1, None, code, column, detail), metrics


EXACT_FIELDS = (
    "row_count",
    "token_count",
    "n_tok_min",
    "n_tok_max",
    "token_min",
    "token_max",
    "vocab_seen_count",
)

# fields that only exist when the tokens payload was read; a scalar-only
# run (read_payload=False) legitimately reports 0/None here and must not
# raise E9002 against a payload-derived reference snapshot
PAYLOAD_FIELDS = frozenset(
    ("token_count", "token_min", "token_max", "vocab_seen_count")
)


def _has_payload(profile: dict) -> bool:
    # explicit flag (ADVICE r2: set at build time from cfg.read_payload —
    # an all-empty-token payload run still compares token fields); profiles
    # from before the flag fall back to count inference
    if "has_payload" in profile:
        return bool(profile["has_payload"])
    return bool(profile.get("row_count")) and bool(profile.get("token_count"))


def compare_profiles(observed: dict, reference: dict) -> list[str]:
    """Field-by-field exact comparison — one message per mismatching field
    (validate_fields! macro analog, fastpasta/src/stats/lib.rs:9-31).
    Payload-derived fields are skipped when either side comes from a
    scalar-only (read_payload=False) run."""
    msgs = []
    fields = EXACT_FIELDS
    if not _has_payload(observed) or not _has_payload(reference):
        fields = tuple(f for f in EXACT_FIELDS if f not in PAYLOAD_FIELDS)
    for f in fields:
        if observed.get(f) != reference.get(f):
            msgs.append(
                S.format_message(
                    S.E_PROFILE_FIELD,
                    f"{f} mismatch: observed {observed.get(f)} != reference {reference.get(f)}",
                )
            )
    if observed.get("source_histogram") != reference.get("source_histogram"):
        msgs.append(
            S.format_message(S.E_PROFILE_FIELD, "source_histogram mismatch")
        )
    if observed.get("n_tok_quantiles") != reference.get("n_tok_quantiles"):
        msgs.append(
            S.format_message(S.E_PROFILE_FIELD, "n_tok_quantiles mismatch")
        )
    obs_v = observed.get("violation_count_by_code") or {}
    ref_v = reference.get("violation_count_by_code") or {}
    if obs_v != ref_v:
        msgs.append(
            S.format_message(
                S.E_PROFILE_FIELD,
                f"violation_count_by_code mismatch: observed {json.dumps(obs_v)} != reference {json.dumps(ref_v)}",
            )
        )
    return msgs


def custom_count_check(observed_rows: int, expected: int | None) -> list[str]:
    """E9001 — the `cdps` expected-counter analog (stats_validation.rs:4-18)."""
    if expected is not None and observed_rows != expected:
        return [
            S.format_message(
                S.E_CUSTOM_COUNT,
                f"row count {observed_rows} != expected {expected}",
            )
        ]
    return []
