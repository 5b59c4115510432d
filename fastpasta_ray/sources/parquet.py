"""The engine's parquet reader and writer, as raw Ray tasks.

The reference has one reader (input_scanner.rs:141-189), which reads one
file sequentially and attaches a memory offset to every record, and one
writer (writer.rs:26-141), fed directly by the link filter. The analogs:

- :func:`read_footers` is the driver's only footer read: E14, the
  key-check exchange's plan and :func:`read_blocks`' schema and slices
  all come from it. A task reads its own file's footer.
- :func:`groups` is the one rule that splits work into tasks: contiguous,
  near-equal groups, at most ``k`` (4× the CPUs for pass 1 and the filter,
  the CPUs for the key-check and exchange maps).
- :func:`iter_file_batches` streams one partition file in row order,
  attaching ``part`` (file stem) and ``row_index`` (0-based row within the
  file). A read without ``tokens`` decodes through :func:`iter_unit_batches`,
  a scalar partition of up to 65,536 rows as one batch (8 files of 25k
  rows: 13.7 ms against 22.3 ms through the ``pyarrow.dataset`` scanner,
  which the ``list<int32>`` payload keeps). Passes that need within-file
  order (the running checks, the filter, the views) read a file with it
  inside one task, each task a contiguous group of files. Parallelism is
  across files, the reference's per-link ordering contract (SURVEY.md §4
  "Ordering assumption").
- :func:`iter_unit_batches` is the one ``pq.ParquetFile`` batch read: a
  file's row-group range, each batch with its file positions, sized from
  the footer it opens. The scalar reads of :func:`iter_file_batches` and
  the key-check exchange's cut both go through it.
- :func:`read_blocks` reads a file or a directory of files as
  ``exchange.Blocks`` with one raw task per file, for operators that do
  not need positions (the queries, the ``functions/`` CLI commands).
  ``columns=`` prunes and ``filter=`` pushes a predicate into the read.
- :func:`write_file` writes one parquet file with an atomic
  tmp-then-rename commit; :func:`write_blocks` writes one file per block
  of a side, each from its own raw task.

None of them starts a Ray Data streaming execution (50-90 ms of fixed cost
each at 1 CPU, measured on the query layer).
"""

from __future__ import annotations

import glob
import os
import re
from collections.abc import Iterable, Iterator

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


def auto_batch_rows(md: pq.FileMetaData, columns: list[str] | None = None,
                    target_bytes: int = TARGET_BATCH_BYTES) -> int:
    """Memory-aware batch sizing from a file's footer (its caller's open
    ``FileMetaData``): a batch should hold ~target_bytes of the columns
    read (``columns``; None reads them all), whatever the row width.
    64-token rows → big batches; 8k-token rows (~32 KB/row) → ~1k-row
    batches, so batch × concurrency stays inside a worker's heap (the 'very
    wide rows' hazard, SURVEY §7). A read that leaves the payload out is
    sized by its own narrow columns, not by the payload it skips."""
    if md.num_rows == 0:
        return DEFAULT_BATCH_ROWS
    # the uncompressed size of each column chunk read; a nested column's
    # chunks are its leaves ("tokens.list.element")
    total = 0
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        for j in range(rg.num_columns):
            chunk = rg.column(j)
            if columns is None or chunk.path_in_schema.split(".")[0] in columns:
                total += chunk.total_uncompressed_size
    row_bytes = max(1, total // md.num_rows)
    return int(np.clip(target_bytes // row_bytes, 64, 65536))


def sequence_files(input_dir: str) -> list[str]:
    """Sorted partition files of a fixture dir (excludes the _manifest)."""
    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    return [f for f in files if not os.path.basename(f).startswith("_")]


def part_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def iter_unit_batches(
    path: str,
    columns: list[str],
    batch_rows: int | str | None = None,
    row_groups: range | None = None,
) -> Iterator[tuple[pa.RecordBatch, np.ndarray]]:
    """Read ``columns`` of one unit of a file, its row groups ``row_groups``
    (None: all of them), through the file's ``pq.ParquetFile``; yield each
    batch with its rows' 0-based positions in the file. Batches may span
    row groups. ``batch_rows`` None reads the unit as one batch; "auto"
    sizes batches from the footer by the columns read."""
    pf = pq.ParquetFile(path)
    md = pf.metadata
    rgs = range(md.num_row_groups) if row_groups is None else row_groups
    sizes = [md.row_group(i).num_rows for i in range(rgs.stop)]
    row = sum(sizes[: rgs.start])
    if batch_rows == "auto":
        batch_rows = auto_batch_rows(md, columns)
    # use_threads=False: each Ray task owns ONE core
    for rb in pf.iter_batches(
        batch_size=batch_rows or max(1, sum(sizes[rgs.start :])),
        row_groups=list(rgs), columns=columns, use_threads=False,
    ):
        yield rb, np.arange(row, row + rb.num_rows, dtype=np.int64)
        row += rb.num_rows


def iter_file_batches(
    path: str,
    columns: list[str] | None = None,
    batch_rows: int | str = DEFAULT_BATCH_ROWS,
) -> Iterator[pa.Table]:
    """Stream one file in order, attaching part + row_index columns.
    ``batch_rows="auto"`` sizes batches to ~32 MiB of the columns read,
    from the file's footer.

    A read whose ``columns`` leave out ``tokens`` (the scalar pass 1 of
    ``read_payload=False``) goes through :func:`iter_unit_batches`, whose
    batches may span row groups: a scalar partition of up to 65,536 rows
    arrives as one batch, so every per-batch fixed cost of the validator
    is paid once per file. On fpbench key_exchange's 8 files (25k rows in
    3 row groups each; doc_id, n_tok, source; one core) whole-file
    ``ParquetFile`` reads took 13.7 ms against 22.3 ms through the scanner.

    Every other read keeps the pyarrow.dataset scanner, measured faster
    than ``ParquetFile.iter_batches`` on list<int32> payloads: 0.05 s vs
    0.10 s per 25 MB file single-thread (VERDICT r2 #1), and ~100 ms vs
    ~140 ms on fpbench payload_scan's 4 files."""
    import pyarrow.compute as _pc
    import pyarrow.dataset as pads

    part = part_of(path)
    if columns is not None and "tokens" not in columns:
        batches = (rb for rb, _ in iter_unit_batches(path, columns, batch_rows))
    else:
        if batch_rows == "auto":
            batch_rows = auto_batch_rows(pq.read_metadata(path), columns)
        # use_threads=False: each Ray task owns ONE core; Arrow's internal
        # pool would oversubscribe CPUs across concurrent tasks and tank
        # throughput
        batches = pads.dataset(path, format="parquet").scanner(
            batch_size=batch_rows, columns=columns, use_threads=False
        ).to_batches()
    row_off = 0
    for rb in batches:
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


def read_footers(paths: list[str]) -> list:
    """Each file's ``FileMetaData``, or the exception its read raised: an
    unreadable file is the caller's verdict to give."""
    footers = []
    for path in paths:
        try:
            footers.append(pq.read_metadata(path))
        except (OSError, pa.ArrowException) as exc:
            footers.append(exc)
    return footers


def groups(items, k: int) -> list:
    """``items`` (a list or a range) as ``min(len(items), k)`` contiguous
    slices of near-equal size, the later ones one item larger. One slice
    is one task, whose fixed cost (its returned objects) amortizes over
    several items once they outnumber ``k``."""
    k = min(len(items), k)
    return [items[len(items) * j // k : len(items) * (j + 1) // k] for j in range(k)]


@ray.remote
def _read(path: str, columns, filter, k: int):
    """One parquet file as ``k`` contiguous zero-copy slices of near-equal
    size (``num_returns=k``; a bare table when ``k == 1``)."""
    t = pq.read_table(path, columns=columns, filters=filter)
    cuts = [-(-i * t.num_rows // k) for i in range(k + 1)]
    parts = [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    return parts[0] if k == 1 else tuple(parts)


def read_blocks(path_or_paths: str | list[str], columns: list[str] | None = None,
                blocks: int | None = None, filter=None):
    """Parquet files as ``exchange.Blocks``: one raw Ray task per file
    reads it with pyarrow (``filter``, a ``pyarrow.dataset`` expression, is
    pushed into that read) and returns it as contiguous slices. A path is a
    file or a directory, whose files :func:`sequence_files` lists.

    The slice count is SIZE-AWARE: one block per ~75k rows, at least 2, so
    small tables stay cheap and big ones still fan out to the waves that
    read them. Compute-heavy callers pass ``blocks`` explicitly. Every
    count, default or explicit, is capped at 2× the cluster's CPUs: beyond
    that a block is one more queued task, not more parallelism; and at the
    row count, so no slice is empty unless ``filter`` empties it. Over
    several files the count is spread by rows, with at least one slice per
    non-empty file. A zero-row input is one typed empty block.

    The schema comes from the footers (:func:`read_footers`). A file whose
    footer cannot be read, or whose schema differs from the first file's,
    raises ``ValueError`` naming it before any task starts."""
    from fastpasta_ray.exchange import Blocks

    paths = [path_or_paths] if isinstance(path_or_paths, str) else list(path_or_paths)
    files = [f for p in paths for f in (sequence_files(p) if os.path.isdir(p) else [p])]
    if not files:
        raise ValueError(f"read_blocks: no parquet files in {path_or_paths!r}")
    metas = read_footers(files)
    for f, md in zip(files, metas):
        if isinstance(md, Exception):
            raise ValueError(f"read_blocks: cannot read the footer of {f!r}: {md}") from md
    schema = metas[0].schema.to_arrow_schema()
    for f, md in zip(files[1:], metas[1:]):
        if not md.schema.to_arrow_schema().equals(schema):
            raise ValueError(f"read_blocks: the schema of {f!r} differs from {files[0]!r}'s")
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    rows = [md.num_rows for md in metas]
    total = sum(rows)
    if blocks is None:
        # ~75k rows per block (sweep: lineitem 600k rows is fastest at 8
        # blocks; 2 blocks pays serial sort, 64 blocks pays per-block
        # shuffle overhead)
        blocks = max(2, total // 75_000 + 1)
    k = int(max(1, min(blocks, 2 * cluster_cpus(), total)))
    ks = [max(1, min(n, round(k * n / total))) if n else 0 for n in rows]
    if not total:
        ks[0] = 1
    refs = []
    for f, kf in zip(files, ks):
        if kf:
            out = _read.options(num_returns=kf).remote(f, columns, filter, kf)
            refs.extend(out if kf > 1 else [out])
    # rows is an upper bound once ``filter`` drops rows, as Blocks allows
    return Blocks(refs, schema, total)


def write_file(dest: str, tables: Iterable[pa.Table]) -> int:
    """Write ``tables`` (at least one; the first one's schema types the
    file) as ONE parquet file at ``dest`` and return its row count. A file
    that gets no row is a typed zero-row file. The commit is atomic: the
    file is written to ``dest + ".tmp"`` and renamed over ``dest``, so a
    reader never sees half a file and a re-run replaces the old one."""
    tables = iter(tables)
    first = next(tables)
    tmp, n = dest + ".tmp", 0
    with pq.ParquetWriter(tmp, first.schema) as w:
        for t in (first, *tables):
            if t.num_rows:
                w.write_table(t)
                n += t.num_rows
    os.replace(tmp, dest)
    return n


@ray.remote
def _write_block(pre, block: pa.Table, dest: str) -> int:
    return write_file(dest, [block if pre is None else pre(block)])


def write_blocks(side, out_dir: str) -> int:
    """Write ``side`` (``exchange.Blocks``) under ``out_dir`` as one
    parquet file per block (``part-00000.parquet``, ...), each from its own
    raw task that applies the side's view first; returns the rows written,
    summed from the tasks' returns. A side with no rows still leaves typed
    zero-row files. Once every task has committed, the ``part-*.parquet``
    files an earlier, larger write left at or above this write's block
    count are removed, so a re-run into the same directory reads back only
    its own rows; every other file is left alone."""
    os.makedirs(out_dir, exist_ok=True)
    pre = ray.put(side.pre) if side.pre is not None else None
    rows = sum(ray.get([
        _write_block.remote(pre, r, os.path.join(out_dir, f"part-{i:05d}.parquet"))
        for i, r in enumerate(side.refs)
    ]))
    for name in os.listdir(out_dir):
        m = re.fullmatch(r"part-(\d{5}|[1-9]\d{5,})\.parquet", name)
        if m and int(m.group(1)) >= len(side.refs):
            os.remove(os.path.join(out_dir, name))
    return rows
