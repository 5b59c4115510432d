"""Sequence-table sources: per-file ordered streaming reads with positions.

The reference reads one file sequentially and attaches a memory offset to
every record (input_scanner.rs:141-189). Our analog: each partition file is
read by ONE Ray task, sequentially, in row-group order, attaching
``part`` (file stem) and ``row_index`` (0-based row within the file).
Parallelism is across files — exactly the reference's per-link ordering
contract (SURVEY.md §4 "Ordering assumption"). At 100 TB the file count is
large, so per-file parallelism saturates the cluster; within-file order is
what the running checks (R1 analogs) require.

For operators that do NOT need order (shuffle checks, stats over scalar
columns) use :func:`read_sequences` with ``columns=`` pruning — only the
needed columns leave storage (the tokens payload dominates bytes, so a
scalar-only second pass is cheap).
"""

from __future__ import annotations

import glob
import os
from collections.abc import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

DEFAULT_BATCH_ROWS = 8192
TARGET_BATCH_BYTES = 32 << 20  # ~32 MiB of Arrow data per streamed batch


def cluster_cpus(default: int = 8) -> int:
    """CPU count of the (initialized) Ray cluster; ``default`` when Ray is
    not up or still warming (guards the CPU=0 warmup window too)."""
    try:
        n = int(ray.cluster_resources().get("CPU", default))
    except Exception:
        n = default
    return n or default


def auto_batch_rows(path: str, target_bytes: int = TARGET_BATCH_BYTES) -> int:
    """Memory-aware batch sizing from parquet metadata: a batch should be
    ~target_bytes regardless of row width. 64-token rows → big batches;
    8k-token rows (~32 KB/row) → ~1k-row batches, so batch × concurrency
    stays inside a worker's heap (the 'very wide rows' hazard, SURVEY §7)."""
    md = pq.ParquetFile(path).metadata
    if md.num_rows == 0:
        return DEFAULT_BATCH_ROWS
    # total_byte_size is uncompressed arrow-ish size per row group
    total = sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    row_bytes = max(1, total // md.num_rows)
    return int(np.clip(target_bytes // row_bytes, 64, 65536))


def sequence_files(input_dir: str) -> list[str]:
    """Sorted partition files of a fixture dir (excludes the _manifest)."""
    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    return [f for f in files if not os.path.basename(f).startswith("_")]


def part_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def iter_file_batches(
    path: str,
    columns: list[str] | None = None,
    batch_rows: int | str = DEFAULT_BATCH_ROWS,
) -> Iterator[pa.Table]:
    """Stream one file in order, attaching part + row_index columns.
    ``batch_rows="auto"`` sizes batches to ~32 MiB from file metadata.

    Decode goes through the pyarrow.dataset scanner, measured 2× faster
    than ParquetFile.iter_batches on list<int32> payloads on this box
    (0.05 s vs 0.10 s per 25 MB file single-thread — the dominant term of
    the whole validation pass, VERDICT r2 #1)."""
    import numpy as np
    import pyarrow.compute as _pc
    import pyarrow.dataset as pads

    part = part_of(path)
    if batch_rows == "auto":
        batch_rows = auto_batch_rows(path)
    row_off = 0
    # use_threads=False: each Ray task owns ONE core; Arrow's internal pool
    # would oversubscribe CPUs across concurrent tasks and tank throughput
    scanner = pads.dataset(path, format="parquet").scanner(
        batch_size=batch_rows, columns=columns, use_threads=False
    )
    for rb in scanner.to_batches():
        t = pa.Table.from_batches([rb])
        n = t.num_rows
        # constant/arange position columns built without Python loops
        part_col = _pc.fill_null(pa.nulls(n, pa.string()), part)
        idx_col = pa.array(np.arange(row_off, row_off + n, dtype=np.int64))
        row_off += n
        yield pa.table(
            {
                "part": part_col,
                "row_index": idx_col,
                **{c: t[c] for c in t.column_names},
            }
        )


class _ReadFiles:
    """map_batches callable: a batch of file descriptors → stream of row
    batches with positions. Generator output keeps memory bounded (Ray Data
    treats yielded tables as separate output blocks — streaming, not
    accumulate-then-return)."""

    def __init__(self, columns: list[str] | None, batch_rows: int):
        self.columns = columns
        self.batch_rows = batch_rows

    def __call__(self, fd: pa.Table) -> Iterator[pa.Table]:
        for path in fd["path"].to_pylist():
            yield from iter_file_batches(path, self.columns, self.batch_rows)


def file_dataset(files: list[str]) -> "ray.data.Dataset":
    """File-descriptor dataset; each file is processed by exactly one task
    (per-file order is the contract). Block count = min(n_files, 4×CPUs):
    at high CPU counts that is one block per file (fine-grained balance);
    at low counts several files share a task, trimming per-task scheduling
    overhead that would otherwise dominate the serial ladder."""
    blocks = max(1, min(len(files), cluster_cpus() * 4))
    return ray.data.from_items([{"path": p} for p in files], override_num_blocks=blocks)


def read_sequences(
    input_dir_or_files: str | list[str],
    columns: list[str] | None = None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> "ray.data.Dataset":
    """Dataset of sequence rows with (part, row_index) position columns."""
    files = (
        sequence_files(input_dir_or_files)
        if isinstance(input_dir_or_files, str)
        else list(input_dir_or_files)
    )
    return file_dataset(files).map_batches(
        _ReadFiles(columns, batch_rows),
        batch_format="pyarrow",
        batch_size=None,
    )
