"""Training-batch preparation: sequence packing and deterministic shuffle.

- ``pack_sequences``: NEXT-FIT packing of token sequences into fixed-size
  context bins — THE canonical transform between a validated corpus and a
  training dataloader. Deterministic: bins depend only on row order within
  a partition (the per-file order contract the running checks already
  rely on), so packing is reproducible and resumable per partition.
  Per-partition independence means zero shuffle — each partition packs
  its own rows; bin ids are (part, local bin index).
- ``deterministic_shuffle``: a reproducible global shuffle — sort by
  ``splitmix64(hash(key) ^ salt)``. Unlike ``ds.random_shuffle`` the
  result is a pure function of the data (layout/cluster independent), so
  a resumed or re-run job trains on the identical order. One sort
  (all-to-all) — the unavoidable cost of a global shuffle. It stays a Ray
  Data ``sort``: the global order is its whole point, and no hash
  exchange gives one.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from fastpasta_ray.exchange import Blocks, blocks
from fastpasta_ray.sketches import hash_strings, splitmix64


def next_fit_bins(n_tok: np.ndarray, context_len: int) -> np.ndarray:
    """Bin index per row under NEXT-FIT: rows are taken in order, the
    current bin closes when the next row would overflow ``context_len``.
    A row longer than ``context_len`` gets a bin of its own (callers may
    split/truncate upstream; packing never drops data silently).

    Vectorized per BIN, not per row: each step jumps to the end of the
    current bin with one searchsorted on the running cumsum — O(n_bins
    log n) with ~n/avg_fill iterations, no per-row Python."""
    n = len(n_tok)
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    cs = np.cumsum(n_tok.astype(np.int64))
    start = 0
    b = 0
    while start < n:
        base = cs[start - 1] if start else 0
        end = int(np.searchsorted(cs, base + context_len, side="right"))
        if end == start:  # single row exceeds context_len → its own bin
            end = start + 1
        out[start:end] = b
        b += 1
        start = end
    return out


def pack_sequences(
    ds: "Blocks | pa.Table",
    *,
    context_len: int,
    n_tok_col: str = "n_tok",
    id_col: str = "doc_id",
    part_col: str = "part",
) -> Blocks:
    """Per-partition next-fit packing summary: one row per bin —
    (part, bin, n_docs, total_tok, fill_ratio, first_doc). A view of the
    input's blocks, packed inside the next wave that reads them (zero
    shuffle), over per-file ordered blocks; blocks spanning several files
    are split by ``part_col`` so bins NEVER cross partition files and a
    resumed run repacks only unfinished partitions.
    Bin ids are the first row's ``row_index`` when positions are present
    (unique within a part even across batch splits); a mid-file batch
    split starts a fresh bin at the boundary (documented divergence from
    single-pass packing — bins are per-(part, contiguous-batch))."""

    def pack_one(batch: pa.Table, part: str) -> pa.Table:
        nt = batch[n_tok_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bins = next_fit_bins(nt, context_len)
        n_bins = int(bins[-1]) + 1 if len(bins) else 0
        total = np.bincount(bins, weights=nt, minlength=n_bins).astype(np.int64)
        n_docs = np.bincount(bins, minlength=n_bins)
        first_idx = np.zeros(n_bins, dtype=np.int64)
        first_idx[bins[::-1]] = np.arange(len(bins) - 1, -1, -1)
        # bin id = row_index of the bin's first row when positions are
        # available: unique and stable within a part even if one file's
        # rows arrive split across several batches (a local 0..k counter
        # would collide across batches); falls back to the local index
        # (single-batch callers)
        if "row_index" in batch.column_names and n_bins:
            ri = batch["row_index"].to_numpy(zero_copy_only=False)
            bin_ids = ri[first_idx].astype(np.int64)
        else:
            bin_ids = np.arange(n_bins)
        ids = batch[id_col]
        return pa.table(
            {
                "part": pa.array([part] * n_bins, type=pa.string()),
                "bin": pa.array(bin_ids),
                "n_docs": pa.array(n_docs.astype(np.int64)),
                "total_tok": pa.array(total),
                "fill_ratio": pa.array(total / float(context_len)),
                "first_doc": ids.take(pa.array(first_idx)) if n_bins else pa.array([], type=ids.type),
            }
        )

    def pack(batch: pa.Table) -> pa.Table:
        # a block may span several partition FILES (a caller may
        # concatenate per-file batches into one block): pack each part
        # independently so bins never cross files
        if part_col not in batch.column_names or batch.num_rows == 0:
            return pack_one(batch, "")
        from fastpasta_ray.sketches import group_codes

        codes, uniques = group_codes(batch[part_col])
        seg_new = np.r_[True, codes[1:] != codes[:-1]]
        starts = np.flatnonzero(seg_new)
        ends = np.r_[starts[1:], len(codes)]
        # code -1 = NULL part: its own segment, labeled like the old
        # str(None) path — never merged with a ''-valued part
        outs = [
            pack_one(
                batch.slice(s, e - s),
                uniques[codes[s]] if codes[s] >= 0 else "None",
            )
            for s, e in zip(starts, ends)
        ]
        return pa.concat_tables(outs)

    src = blocks(ds)
    schema = pa.schema([("part", pa.string()), ("bin", pa.int64()), ("n_docs", pa.int64()),
                        ("total_tok", pa.int64()), ("fill_ratio", pa.float64()),
                        ("first_doc", src.schema.field(id_col).type)])
    return src.view(pack, schema)


def deterministic_shuffle(
    ds: "ray.data.Dataset", *, key_col: str = "doc_id", salt: int = 0
) -> "ray.data.Dataset":
    """Reproducible global shuffle: order = sort by splitmix64(hash(key) ^
    salt). Layout- and cluster-independent (a pure function of the rows);
    ``salt`` selects independent permutations per epoch. The one entry
    point here that takes and returns a Dataset: a global sort is what a
    shuffle is, so it stays Ray Data's ``sort``."""

    def keyed(b: pa.Table) -> pa.Table:
        col = b[key_col]
        if pa.types.is_integer(col.type):
            h = splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
        else:
            h = hash_strings(col)
        if salt:
            h = splitmix64(h ^ np.uint64(salt))
        return b.append_column("__shuffle_key", pa.array(h))

    return (
        ds.map_batches(keyed, batch_format="pyarrow")
        # secondary key breaks hash ties (duplicate keys / 64-bit birthday
        # collisions at 10^12 rows) — without it tied rows order by block
        # layout and the shuffle stops being a pure function of the data
        .sort(["__shuffle_key", key_col])
        .map_batches(
            lambda b: b.drop_columns(["__shuffle_key"]), batch_format="pyarrow"
        )
    )
