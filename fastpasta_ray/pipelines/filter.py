"""The filter → write pipeline — fastPASTA's third entry point.

Reference: `fastpasta --filter-link N input.raw -o out.raw` wires the
reader's link filter (input_scanner.rs:263-286,306-318) straight to the
BufferedWriter (writer.rs:26-141) which re-serializes records byte-exactly,
and the report counts filtered records.

Ray-Data-native: predicate-pushdown read (only matching row groups /
columns leave storage where possible), `map_batches` filter, partitioned
parquet sink (one directory per input partition — resumable layout), and
the filtered-count report. Row content is carried through byte-exactly
(tokens list buffers are never touched).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray

from fastpasta_ray.sources.parquet import file_dataset, iter_file_batches, sequence_files


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
    FEE id ≙ source). Returns the report dict (kept/filtered counts)."""
    files = sequence_files(input_dir)
    if part_names is not None:
        files = [f for f in files if os.path.splitext(os.path.basename(f))[0] in part_names]
    os.makedirs(out_dir, exist_ok=True)

    def filter_file(fd: pa.Table):
        import pyarrow.parquet as pq

        out_rows = []
        for path in fd["path"].to_pylist():
            part = os.path.splitext(os.path.basename(path))[0]
            kept = 0
            seen = 0
            writer = None
            dest = os.path.join(out_dir, f"{part}.parquet")
            tmp = dest + ".tmp"
            for batch in iter_file_batches(path):
                seen += batch.num_rows
                mask = pa.array([True] * batch.num_rows)
                if sources is not None:
                    mask = pc.and_(
                        mask,
                        pc.fill_null(
                            pc.is_in(batch["source"], value_set=pa.array(list(sources))),
                            False,
                        ),
                    )
                if min_n_tok is not None:
                    mask = pc.and_(mask, pc.greater_equal(batch["n_tok"], min_n_tok))
                if max_n_tok is not None:
                    mask = pc.and_(mask, pc.less_equal(batch["n_tok"], max_n_tok))
                f = batch.filter(mask).drop_columns(["part", "row_index"])
                kept += f.num_rows
                if f.num_rows:
                    if writer is None:
                        writer = pq.ParquetWriter(tmp, f.schema)
                    writer.write_table(f)
            if writer is not None:
                writer.close()
                os.replace(tmp, dest)  # atomic per-partition commit
            out_rows.append(
                pa.table(
                    {
                        "part": pa.array([part], type=pa.string()),
                        "rows_seen": pa.array([seen], type=pa.int64()),
                        "rows_kept": pa.array([kept], type=pa.int64()),
                    }
                )
            )
        return pa.concat_tables(out_rows)

    res = (
        file_dataset(files)
        .map_batches(filter_file, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    return {
        "parts": int(len(res)),
        "rows_seen": int(res["rows_seen"].sum()),
        "rows_kept": int(res["rows_kept"].sum()),
        "rows_filtered": int(res["rows_seen"].sum() - res["rows_kept"].sum()),
        "out_dir": out_dir,
    }


def filter_expr_read(
    input_dir: str, sources: tuple[str, ...]
) -> "ray.data.Dataset":
    """Predicate-pushdown variant: the filter travels to the parquet scan
    (only matching row groups are decoded) — the reader-side filter analog
    (M6/M7: the scanner seeks past non-matching records without
    materializing payloads)."""
    files = sequence_files(input_dir)
    return ray.data.read_parquet(
        files, filter=pads.field("source").isin(list(sources))
    )
