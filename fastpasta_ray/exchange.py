"""One hash exchange over raw Ray tasks: brings every row of one key to one
place, for every bucketed shuffle in the engine.

Map side: each side's blocks (``Blocks`` the caller already holds, such
as a raw-task read or a ``map_blocks`` wave's output, or one driver-held
table) are cut into at most one contiguous group per CPU
(``sources.parquet.groups``), one map task each. A map task hashes the
``key`` column (``splitmix64`` for integer keys, ``hash_strings``
otherwise) and cuts one typed shard per reduce task by ``h % n_parts``
(``num_returns=n_parts``). With one reduce task there is nothing to cut,
and the blocks go to it as they are (unless a view must first run on
them).

Reduce side: reduce task ``p`` concatenates shard ``p`` of every map of a
side and calls ``fn`` once, with one table per side. That table holds
every row of every key routed to ``p`` and is typed even when empty, so a
two-sided join co-partitions its sides and joins shard ``p`` with shard
``p``: no union, no column widening (the UNION ALL pushdown of PAPERS.md's
Teradata paper applied to the shuffle).

Sizing: ``n_parts`` follows the exchanged rows and the cluster's CPUs
(``_reduce_task_count``), so one reduce task holds about rows ÷ ``n_parts``
rows. At 1 CPU the exchange is a single reduce task. ``fn`` must accept
any co-located set of keys: it segments by exact key inside.

The same module holds the engine's batch type: ``Blocks`` are a side
already in the object store, and ``map_blocks`` runs one raw task per
block. Parquet is read as ``Blocks`` with one raw read task per file
(``sources.parquet.read_blocks``, which the queries and the CLI call),
every ``functions/`` entry point takes and returns ``Blocks``, and every
pass runs as a ``map_blocks`` wave or a ``hash_exchange`` over them,
never as a Ray Data streaming execution
(measured at 1 Ray CPU on a shared 4-vCPU host: about 7 ms for a 2-block
wave, 50-90 ms of fixed cost an execution). ``Blocks.view`` fuses a
filter or map into whichever wave reads the blocks next; ``collect``
brings a small result to the driver.

Chosen over ``Dataset.groupby(...).map_groups``: the sort-based shuffle
samples its input, pays per-block constant costs, emits schema-less empty
blocks for empty key ranges, and calls ``fn`` once per distinct key.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa

import ray

from fastpasta_ray.sketches import hash_strings, one_chunk, splitmix64
from fastpasta_ray.sources.parquet import cluster_cpus, groups


def _reduce_task_count(cpus: int, est_exchange: int) -> int:
    """Reduce task count (= shards per map task) — two regimes, sized by
    the exchanged-row estimate.

    At bench scale the reduce compute is trivial and task launches +
    map-output deserialization dominate, so fewer tasks = less fixed cost
    (measured: reduce wave 0.5 s → ~0.15 s going 32 → 8 tasks at 32
    cpus). But the candidate scan costs ~0.6 µs/row, so at bigger inputs a
    low task count SERIALIZES the reduce on a small machine — measured at
    num_cpus=4 on the 4× bench fixture: a fixed ``cpus // 4`` granted ONE
    task running ~5.6 s of candidate scanning while 3 cores idled, the
    main 1→4 scaling drag (BASELINE.md round 4: fixing this moved the N→4N
    ladder from 0.73 to 0.886). Grant one task per ~750k exchanged rows,
    capped by cores, floored at ``cpus // 4`` so the fixed-cost regime
    keeps its optimum."""
    return max(1, cpus // 4, min(cpus, est_exchange // 750_000))


def key_hash(col) -> np.ndarray:
    """64-bit routing hash of a key column: ``splitmix64`` of integer keys,
    ``hash_strings`` of anything else. NULL integer keys route as 0."""
    col = one_chunk(col)
    if pa.types.is_integer(col.type):
        if col.null_count:
            col = col.fill_null(0)
        return splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
    return hash_strings(col)


def shard(table: pa.Table, h: np.ndarray, n_parts: int):
    """One table per reduce task, row ``i`` going to ``h[i] % n_parts``; a
    bare table when ``n_parts == 1`` (``num_returns=1`` wants one value).
    Each shard is its own ``take``, so it serializes only its own rows."""
    if n_parts == 1:
        return table
    p = h % np.uint64(n_parts)
    order = np.argsort(p, kind="stable")
    bounds = np.searchsorted(p[order], np.arange(n_parts + 1, dtype=np.uint64))
    return tuple(table.take(order[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))


def _concat(tables, schema: pa.Schema) -> pa.Table:
    """Rows of ``tables`` as one table; ``schema``'s empty table when none
    has rows (an empty block may come back without columns)."""
    full = [t for t in tables if t.num_rows]
    return pa.concat_tables(full, promote_options="default") if full else schema.empty_table()


class Blocks(NamedTuple):
    """A side already in the object store: its block refs (at least one,
    and a typed one if the side has no rows), the schema that types every
    block it yields, ``rows`` and ``pre``, a per-block transform that every
    task over these blocks applies first. A filter or projection set with
    ``view`` thus runs inside the next wave, not as one of its own, and
    copies nothing. ``rows`` is a sizing estimate for the exchanges that
    read these blocks, not a count: a filter leaves it unchanged, and an
    exchange's output carries its input's row count."""

    refs: list
    schema: pa.Schema
    rows: int
    pre: Callable | None = None

    def view(self, fn, schema: pa.Schema | None = None) -> "Blocks":
        """These blocks seen through ``fn`` (after any earlier view). No
        task runs now. ``schema`` is ``fn``'s output schema; None keeps
        this one, as a filter does."""
        pre = fn if self.pre is None else (lambda b, p=self.pre: fn(p(b)))
        return self._replace(pre=pre, schema=self.schema if schema is None else schema)

    def select_columns(self, cols: list[str]) -> "Blocks":
        """A view of only ``cols``, as ``Dataset.select_columns``."""
        return self.view(lambda b: b.select(cols), pa.schema([self.schema.field(c) for c in cols]))


def blocks(side) -> Blocks:
    """``side`` as ``Blocks``: ``Blocks`` pass through, and a driver-held
    table is put once. Parquet on disk becomes ``Blocks`` through
    ``sources.parquet.read_blocks``."""
    if isinstance(side, Blocks):
        return side
    if isinstance(side, pa.Table):
        return Blocks([ray.put(side)], side.schema, side.num_rows)
    raise TypeError(f"blocks: expected Blocks or a pyarrow Table, got {type(side).__name__}")


def collect(side) -> pa.Table:
    """Every row of ``side`` (``Blocks``, or a table, returned as it is) as
    one driver-held table, typed by its schema when it has no rows: for the
    small results a caller finishes on the driver (candidate pairs, drop
    ids). A view runs first as one ``map_blocks`` wave."""
    if isinstance(side, pa.Table):
        return side
    refs = side.refs if side.pre is None else map_blocks(None, side)
    return _concat(ray.get(refs), side.schema)


@ray.remote
def _map_block(fn, pre, block: pa.Table, *args):
    return fn(block if pre is None else pre(block), *args)


def map_blocks(fn, side, *args) -> list:
    """One raw task per block: ``fn(block, *args)`` over a list of block
    refs or over ``Blocks`` (its ``pre`` applied first; ``fn`` None applies
    only that). ``fn`` is shipped once via ``ray.put``; put large ``args``
    yourself and pass the ref, which each task resolves."""
    refs, pre = (side.refs, side.pre) if isinstance(side, Blocks) else (side, None)
    fn_ref = ray.put(fn or (lambda b: b))
    pre_ref = ray.put(pre) if pre is not None else None
    return [_map_block.remote(fn_ref, pre_ref, r, *args) for r in refs]


@ray.remote
def _map_side(key: str, n_parts: int, schema: pa.Schema, pre, *blocks: pa.Table):
    t = _concat([b if pre is None else pre(b) for b in blocks], schema)
    return shard(t, key_hash(t[key]), n_parts)


@ray.remote
def _reduce_side(fn, schemas: list, counts: list, *shards: pa.Table) -> pa.Table:
    tables, i = [], 0
    for schema, n in zip(schemas, counts):
        tables.append(_concat(shards[i : i + n], schema))
        i += n
    return fn(*tables)


def hash_exchange(sides, key: str, fn) -> list:
    """Run ``fn(*tables)`` once per reduce task, over every row of every
    key routed to it, one table per side. ``sides`` is one side or a tuple
    of them; a side is ``Blocks`` or a driver-held table, and every side
    must carry the ``key`` column (checked here, before any task starts).
    Returns one output ref per reduce task: callers hold them as ``Blocks``
    with ``fn``'s output schema."""
    if isinstance(sides, Blocks) or not isinstance(sides, (tuple, list)):
        sides = (sides,)
    inputs = [blocks(s) for s in sides]
    for b in inputs:
        if key not in b.schema.names:
            raise ValueError(f"hash_exchange: key {key!r} is not a column of a side "
                             f"(columns: {b.schema.names})")
    cpus = cluster_cpus()
    n_parts = _reduce_task_count(cpus, sum(b.rows for b in inputs))
    counts, shard_lists = [], []
    for b in inputs:
        if n_parts == 1 and b.pre is None:
            # one reduce task takes the blocks as they are: a map task
            # would only copy them through the object store
            maps = [[r] for r in b.refs]
        else:
            # at most one map task per CPU: each map return is a plasma
            # object, and tiny tasks make that cost dominate
            pre = ray.put(b.pre) if b.pre is not None else None
            maps = [
                _map_side.options(num_returns=n_parts).remote(key, n_parts, b.schema, pre, *g)
                for g in groups(b.refs, cpus)
            ]
            if n_parts == 1:
                maps = [[m] for m in maps]
        counts.append(len(maps))
        shard_lists.extend(maps)
    fn_ref = ray.put(fn)
    schemas = [b.schema for b in inputs]
    return [
        _reduce_side.remote(fn_ref, schemas, counts, *[sl[p] for sl in shard_lists])
        for p in range(n_parts)
    ]
