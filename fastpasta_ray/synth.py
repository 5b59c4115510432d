"""Deterministic synthetic `sequences` fixtures (seed=42, FIXTURES.md).

Mirrors the reference's golden corpus strategy: 18 small .raw files each
seeded with one known defect (/root/reference/fastpasta/tests/util/mod.rs:17-36).
Here each fixture is a directory of Parquet files — one file per partition
(partition ≙ GBT link), row order within a file is meaningful.

Generation is vectorized numpy, seeded per partition so any partition can be
regenerated independently (the property that makes generation parallel and
the fixtures stable under partition-count changes).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from fastpasta_ray.schema import (
    MANIFEST_SCHEMA,
    SEQUENCES_SCHEMA,
    SOURCE_WEIGHTS,
    SOURCES,
    VOCAB_SIZE,
)

SEED = 42


PAD_ID, BOS_ID, EOS_ID = 0, 1, 2


@dataclass
class SynthSpec:
    n_rows: int = 1000              # rows per partition
    n_parts: int = 4
    vocab: int = VOCAB_SIZE
    sources: tuple = SOURCES
    weights: tuple = SOURCE_WEIGHTS
    mean_n_tok: int = 64            # small for tests; bench uses larger
    max_n_tok: int = 4096
    seed: int = SEED
    grammar: bool = False           # wrap rows as [BOS] body [EOS] (FSM fixtures)
    defects: dict = field(default_factory=dict)  # name -> count or params


def _part_rng(spec: SynthSpec, part_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.seed, part_idx]))


def part_name(part_idx: int) -> str:
    return f"part-{part_idx:04d}"


def gen_partition(spec: SynthSpec, part_idx: int) -> pa.Table:
    """Generate one clean partition as a pyarrow Table (SEQUENCES_SCHEMA)."""
    rng = _part_rng(spec, part_idx)
    n = spec.n_rows
    src_idx = rng.choice(len(spec.sources), size=n, p=np.asarray(spec.weights))
    sources = np.asarray(spec.sources, dtype=object)[src_idx]
    # lognormal-ish length, clipped — int32
    n_tok = np.clip(
        rng.lognormal(mean=np.log(spec.mean_n_tok), sigma=0.6, size=n), 8, spec.max_n_tok
    ).astype(np.int32)
    total = int(n_tok.sum())
    flat = rng.integers(4 if spec.grammar else 0, spec.vocab, size=total, dtype=np.int32)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    if spec.grammar:
        flat[offsets[:-1]] = BOS_ID
        flat[offsets[1:] - 1] = EOS_ID
    tokens = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()) if total < 2**31 else pa.array(offsets), pa.array(flat))
    # doc index: monotonically increasing within partition (running-check contract)
    idx = np.arange(n, dtype=np.int64)
    doc_id = np.array(
        [f"{s}/{part_idx:04d}/{i:08d}" for s, i in zip(sources, idx)], dtype=object
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_id, type=pa.string()),
            "tokens": tokens.cast(pa.list_(pa.int32())),
            "n_tok": pa.array(n_tok, type=pa.int32()),
            "source": pa.array(sources, type=pa.string()),
        },
        schema=SEQUENCES_SCHEMA,
    )


# ---------------------------------------------------------------------------
# Defect injectors. Each takes (table, rng, params) and returns a new table.
# Defects are injected at deterministic row positions (first k rows scattered
# by a seeded permutation) so tests can assert exact (part, row_index).
# ---------------------------------------------------------------------------

def _pick_rows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    rows = rng.permutation(n)[:k]
    rows.sort()
    return rows


def inject_bad_len(t: pa.Table, rng, k: int) -> tuple[pa.Table, np.ndarray]:
    rows = _pick_rows(rng, t.num_rows, k)
    n_tok = t["n_tok"].to_numpy(zero_copy_only=False).copy()
    n_tok[rows] = n_tok[rows] + 7
    return t.set_column(2, "n_tok", pa.array(n_tok, type=pa.int32())), rows


def inject_bad_vocab(t: pa.Table, rng, k: int) -> tuple[pa.Table, np.ndarray]:
    rows = _pick_rows(rng, t.num_rows, k)
    col = t["tokens"].combine_chunks()
    offsets = col.offsets.to_numpy()
    values = col.values.to_numpy(zero_copy_only=False).copy()
    # corrupt one token per chosen row at a deterministic in-row position
    lens = offsets[rows + 1] - offsets[rows]
    pos_in_row = rows % np.maximum(lens, 1)
    values[offsets[rows] + pos_in_row] = VOCAB_SIZE + 1 + (rows % 5).astype(np.int32)
    new = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(values, type=pa.int32()))
    return t.set_column(1, "tokens", new.cast(pa.list_(pa.int32()))), rows


def inject_bad_null_source(t: pa.Table, rng, k: int) -> tuple[pa.Table, np.ndarray]:
    rows = _pick_rows(rng, t.num_rows, k)
    src = t["source"].to_pylist()
    for j, r in enumerate(rows):
        src[r] = None if j % 3 == 0 else ("" if j % 3 == 1 else "unknown-src")
    return t.set_column(3, "source", pa.array(src, type=pa.string())), rows


def inject_bad_dup_doc_id(t: pa.Table, rng, k: int) -> tuple[pa.Table, np.ndarray]:
    """Duplicate doc_ids within the partition (cross-partition dups are made
    by applying this with the same target ids in two partitions)."""
    rows = _pick_rows(rng, t.num_rows, k)
    ids = t["doc_id"].to_pylist()
    for r in rows:
        ids[r] = ids[(r + 1) % t.num_rows]  # copy neighbour's id
    return t.set_column(0, "doc_id", pa.array(ids, type=pa.string())), rows


def inject_bad_order(t: pa.Table, rng, k: int) -> tuple[pa.Table, np.ndarray]:
    """Swap k adjacent pairs → non-monotonic doc index within the partition."""
    n = t.num_rows
    pairs = _pick_rows(rng, n // 2 - 1, k)  # pair p occupies rows 2p,2p+1
    perm = np.arange(n, dtype=np.int64)
    perm[2 * pairs], perm[2 * pairs + 1] = perm[2 * pairs + 1].copy(), perm[2 * pairs].copy()
    return t.take(perm), 2 * pairs + 1  # violation detected at the second row


def inject_truncated(t: pa.Table, rng, k: int) -> tuple[pa.Table, np.ndarray]:
    """Null tokens on the LAST k rows (analog of [E100] partial payload at EOF)."""
    n = t.num_rows
    rows = np.arange(n - k, n, dtype=np.int64)
    col = t["tokens"].combine_chunks()
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    offsets = col.offsets.to_numpy()
    new = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()),
        col.values,
        mask=pa.array(mask),
    )
    return t.set_column(1, "tokens", new.cast(pa.list_(pa.int32()))), rows


def inject_bad_drift(t: pa.Table, rng, _k: int) -> tuple[pa.Table, np.ndarray]:
    """Shift the n_tok distribution of a whole partition (and skew source mix):
    the per-partition PSI/KS drift gate must fire; row-level checks stay green.
    To keep row checks green, tokens are re-generated to the new lengths."""
    n = t.num_rows
    n_tok = np.clip(
        rng.lognormal(mean=np.log(256), sigma=0.3, size=n), 8, 4096
    ).astype(np.int32)
    total = int(n_tok.sum())
    flat = rng.integers(0, VOCAB_SIZE, size=total, dtype=np.int32)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(flat))
    src = np.where(np.arange(n) % 2 == 0, "legal", "academic").astype(object)
    ids = [f"{s}/{9999:04d}/{i:08d}" for i, s in enumerate(src)]
    return (
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.string()),
                "tokens": tokens.cast(pa.list_(pa.int32())),
                "n_tok": pa.array(n_tok, type=pa.int32()),
                "source": pa.array(src, type=pa.string()),
            },
            schema=SEQUENCES_SCHEMA,
        ),
        np.array([], dtype=np.int64),
    )


def inject_bad_grammar(t: pa.Table, rng, k: int) -> tuple[pa.Table, np.ndarray]:
    """Break the [BOS] body [EOS] grammar in k rows, cycling through the
    three defect kinds (missing BOS / missing EOS / interior PAD)."""
    rows = _pick_rows(rng, t.num_rows, k)
    col = t["tokens"].combine_chunks()
    offsets = col.offsets.to_numpy()
    values = col.values.to_numpy(zero_copy_only=False).copy()
    for j, r in enumerate(rows):
        s, e = offsets[r], offsets[r + 1]
        if j % 3 == 0:
            values[s] = 99  # not BOS
        elif j % 3 == 1:
            values[e - 1] = 99  # not EOS
        else:
            values[s + (e - s) // 2] = PAD_ID  # interior pad
    new = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(values, type=pa.int32()))
    return t.set_column(1, "tokens", new.cast(pa.list_(pa.int32()))), rows


INJECTORS = {
    "bad_grammar": inject_bad_grammar,
    "bad_len": inject_bad_len,
    "bad_vocab": inject_bad_vocab,
    "bad_null_source": inject_bad_null_source,
    "bad_dup_doc_id": inject_bad_dup_doc_id,
    "bad_order": inject_bad_order,
    "truncated": inject_truncated,
    "bad_drift": inject_bad_drift,
}


# ---------------------------------------------------------------------------
# Fixture writer
# ---------------------------------------------------------------------------

def write_fixture(
    out_dir: str,
    spec: SynthSpec | None = None,
    *,
    defect: str | None = None,
    defect_k: int = 5,
    defect_parts: tuple[int, ...] = (0,),
    manifest: bool = True,
    row_group_size: int = 10_000,
    dictionary_columns: tuple[str, ...] | None = None,
) -> dict:
    """Write a fixture directory: one parquet file per partition (+ manifest).

    Layout: parquet defaults (dictionary + snappy) with SMALL (10k) row
    groups. Measured on this corpus (SCALE.md "storage-layout experiment"):
    row-group size is the decode lever that matters (rg 10k decodes 1.46x
    faster than the 1M-row default); plain-encoding the token column buys
    only ~5% more single-thread but DOUBLES the bytes streamed through the
    memory bus and loses ~40% end-to-end at 32-way concurrency. Pass
    ``dictionary_columns`` to restrict dictionary encoding to specific
    columns (plain elsewhere) for layout experiments.

    Returns an info dict with expected defect row positions per partition:
    ``{"parts": [...], "defect_rows": {part_name: [row_index, ...]}}``.
    """
    spec = spec or SynthSpec()
    os.makedirs(out_dir, exist_ok=True)
    info: dict = {"parts": [], "defect_rows": {}, "spec": spec}
    manifest_tables = []
    use_dict = True if dictionary_columns is None else list(dictionary_columns)
    for p in range(spec.n_parts):
        t = gen_partition(spec, p)
        if manifest:
            # the manifest records CLEAN ground truth (before defect injection)
            manifest_tables.append(
                pa.table(
                    {
                        "doc_id": t["doc_id"],
                        "source": t["source"],
                        "expected_n_tok": t["n_tok"],
                    },
                    schema=MANIFEST_SCHEMA,
                )
            )
        if defect is not None and p in defect_parts:
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, p, 777]))
            t, rows = INJECTORS[defect](t, rng, defect_k)
            info["defect_rows"][part_name(p)] = [int(r) for r in rows]
        path = os.path.join(out_dir, f"{part_name(p)}.parquet")
        pq.write_table(t, path, row_group_size=row_group_size, use_dictionary=use_dict)
        info["parts"].append(path)
    if manifest:
        # small row groups → the key-check exchange maps the manifest in
        # parallel, one row-group range per CPU
        pq.write_table(
            pa.concat_tables(manifest_tables),
            os.path.join(out_dir, "_manifest.parquet"),
            row_group_size=row_group_size,
            use_dictionary=use_dict,
        )
    return info


def sequences_from_documents(documents: pa.Table, vocab: int = VOCAB_SIZE) -> pa.Table:
    """Derive a deterministic `sequences`-shaped table from a TPC-H-ish
    `documents` table (doc_id:int64, text:string, source:string, ...).

    Tokenization is a deterministic stand-in (byte values folded into the
    vocab range) — the engine only cares about the shape and invariants.
    Fully vectorized: no per-row Python in the hot path.
    """
    import pyarrow.compute as pc

    text = documents["text"].combine_chunks() if isinstance(documents["text"], pa.ChunkedArray) else documents["text"]
    text = pc.cast(text, pa.large_binary())
    buf = np.frombuffer(text.buffers()[2], dtype=np.uint8) if text.buffers()[2] is not None else np.array([], dtype=np.uint8)
    offsets = np.frombuffer(text.buffers()[1], dtype=np.int64)[text.offset : text.offset + len(text) + 1]
    vals = (buf[offsets[0]:offsets[-1]].astype(np.int32) * 197 + 13) % vocab
    rel = (offsets - offsets[0]).astype(np.int64)
    tokens = pa.ListArray.from_arrays(pa.array(rel), pa.array(vals, type=pa.int32()))
    n_tok = np.diff(rel).astype(np.int32)
    src = documents["source"]
    did = pc.binary_join_element_wise(
        pc.cast(src, pa.string()),
        pc.utf8_lpad(pc.cast(documents["doc_id"], pa.string()), 8, "0"),
        "/0000/",
    )
    return pa.table(
        {
            "doc_id": did,
            "tokens": tokens.cast(pa.list_(pa.int32())),
            "n_tok": pa.array(n_tok, type=pa.int32()),
            "source": pc.cast(src, pa.string()),
        },
    )
