"""The filter → write pipeline — fastPASTA's third entry point.

Reference: `fastpasta --filter-link N input.raw -o out.raw` wires the
reader's link filter (input_scanner.rs:263-286,306-318) straight to the
BufferedWriter (writer.rs:26-141) which re-serializes records byte-exactly,
and the report counts filtered records.

Analog: raw Ray tasks over the same contiguous file groups as pass 1
(``sources.parquet.groups``, at most 4× the CPUs). Each task streams its
files in order (``iter_file_batches``), filters each batch and writes
what it keeps straight to that partition's output file (``write_file``:
one file per input partition, committed atomically, typed and empty when
the partition keeps no row). Each task returns its rows seen and kept;
the driver sums them into the report. Row content is carried through
byte-exactly (tokens list buffers are never touched).
"""

from __future__ import annotations

import os
from functools import reduce

import pyarrow as pa
import pyarrow.compute as pc

import ray

from fastpasta_ray import schema as S
from fastpasta_ray.sources.parquet import (
    cluster_cpus,
    groups,
    iter_file_batches,
    part_of,
    sequence_files,
    write_file,
)


@ray.remote
def _filter_files(paths: list[str], out_dir: str, keep) -> tuple[int, int]:
    """Read → filter → write for each file in ``paths``; returns the rows
    seen and kept over all of them."""
    seen = kept = 0
    for path in paths:
        def batches():
            nonlocal seen
            for b in iter_file_batches(path):
                seen += b.num_rows
                yield keep(b).drop_columns(["part", "row_index"])

        kept += write_file(os.path.join(out_dir, f"{part_of(path)}.parquet"), batches())
    return seen, kept


def filter_sequences(
    input_dir: str,
    out_dir: str,
    *,
    sources: tuple[str, ...] | None = None,
    part_names: tuple[str, ...] | None = None,
    min_n_tok: int | None = None,
    max_n_tok: int | None = None,
) -> dict:
    """Filter a sequences fixture and write it back, preserving the
    one-file-per-partition layout (the filter-target analog: link ≙ part,
    FEE id ≙ source). Every selected partition gets its output file, so a
    re-run into the same ``out_dir`` replaces each one. Returns the report
    dict (kept/filtered counts)."""
    files = sequence_files(input_dir)
    if part_names is not None:
        files = [f for f in files if part_of(f) in part_names]
    os.makedirs(out_dir, exist_ok=True)
    src_set = S.source_set(sources) if sources is not None else None

    def keep(b: pa.Table) -> pa.Table:
        masks = []
        if src_set is not None:
            masks.append(S.source_mask(b["source"], src_set))
        if min_n_tok is not None:
            masks.append(pc.greater_equal(b["n_tok"], min_n_tok))
        if max_n_tok is not None:
            masks.append(pc.less_equal(b["n_tok"], max_n_tok))
        return b.filter(reduce(pc.and_, masks)) if masks else b

    keep_ref = ray.put(keep)
    totals = ray.get([
        _filter_files.remote(paths, out_dir, keep_ref)
        for paths in groups(files, 4 * cluster_cpus())
    ])
    seen, kept = sum(t[0] for t in totals), sum(t[1] for t in totals)
    return {
        "parts": len(files),
        "rows_seen": seen,
        "rows_kept": kept,
        "rows_filtered": seen - kept,
        "out_dir": out_dir,
    }
