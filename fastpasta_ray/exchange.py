"""One hash exchange over raw Ray tasks: brings every row of one key to one
place, for every bucketed shuffle in the engine.

Map side: each side's blocks (``ds.to_arrow_refs()`` of a materialized
Dataset, or one driver-held table) are grouped so the map task count is
about the CPU count. A map task hashes the ``key`` column (``splitmix64``
for integer keys, ``hash_strings`` otherwise) and cuts one typed shard per
reduce task by ``h % n_parts`` (``num_returns=n_parts``). With one reduce
task there is nothing to cut, and the blocks go to it as they are.

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

Chosen over ``Dataset.groupby(...).map_groups``: the sort-based shuffle
samples its input, pays per-block constant costs, emits schema-less empty
blocks for empty key ranges, and calls ``fn`` once per distinct key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from fastpasta_ray.sketches import hash_strings, one_chunk, splitmix64
from fastpasta_ray.sources.parquet import cluster_cpus


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


@ray.remote
def _map_side(key: str, n_parts: int, schema: pa.Schema, *blocks: pa.Table):
    t = _concat(blocks, schema)
    return shard(t, key_hash(t[key]), n_parts)


@ray.remote
def _reduce_side(fn, schemas: list, counts: list, *shards: pa.Table) -> pa.Table:
    tables, i = [], 0
    for schema, n in zip(schemas, counts):
        tables.append(_concat(shards[i : i + n], schema))
        i += n
    return fn(*tables)


def _blocks(side) -> tuple[list, pa.Schema, int]:
    """(block refs, schema, rows) of a Dataset or a driver-held table. A
    Dataset is materialized once: its refs, count and schema then come
    from metadata, never from a second execution."""
    if isinstance(side, pa.Table):
        return [ray.put(side)], side.schema, side.num_rows
    side = side.materialize()
    schema = side.schema()
    if schema is None:
        raise ValueError("hash_exchange: a side has no blocks and no schema")
    return side.to_arrow_refs(), schema.base_schema, side.count()


def hash_exchange(sides, key: str, fn) -> list:
    """Run ``fn(*tables)`` once per reduce task, over every row of every
    key routed to it, one table per side. ``sides`` is one Dataset or
    table, or a tuple of them; every side carries the ``key`` column.
    Returns one output ref per reduce task: wrap them with
    ``ray.data.from_arrow_refs`` or concatenate ``ray.get`` of them."""
    if not isinstance(sides, (tuple, list)):
        sides = (sides,)
    inputs = [_blocks(s) for s in sides]
    cpus = cluster_cpus()
    n_parts = _reduce_task_count(cpus, sum(rows for _, _, rows in inputs))
    counts, shard_lists = [], []
    for refs, schema, _ in inputs:
        if n_parts == 1:
            # one reduce task takes the blocks as they are: a map task
            # would only copy them through the object store
            maps = [[r] for r in refs]
        else:
            # group blocks so map task count ≈ CPU count: each map return
            # is a plasma object, and tiny tasks make that cost dominate
            group = max(1, -(-len(refs) // cpus))
            maps = [
                _map_side.options(num_returns=n_parts).remote(
                    key, n_parts, schema, *refs[s : s + group]
                )
                for s in range(0, len(refs), group)
            ]
        counts.append(len(maps))
        shard_lists.extend(maps)
    fn_ref = ray.put(fn)
    schemas = [schema for _, schema, _ in inputs]
    return [
        _reduce_side.remote(fn_ref, schemas, counts, *[sl[p] for sl in shard_lists])
        for p in range(n_parts)
    ]
