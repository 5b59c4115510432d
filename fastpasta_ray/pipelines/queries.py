"""Query pipelines over the driver testdata tables + their DuckDB oracles.

Each ``q_*`` function takes ``sf_dir`` and returns a pyarrow Table whose
column NAMES and VALUES match the oracle SQL in ``ORACLES``
(the driver hash-compares after sorting columns by name). Floating
aggregates are rounded identically on both sides.

These exercise the engine's operator inventory (SURVEY.md §2) on generic
tables: grouped aggregates (G1/G3), distinct (G2), constraint predicates
(C-analogs), dup detection (O4), referential anti-join (G6/A4), running
order checks (R1), windowed aggregates, joins, dedup and text operators.
"""

from __future__ import annotations

import os
from functools import reduce

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.aggregate import Count, Max, Min, Sum

from fastpasta_ray.exchange import Blocks, blocks, hash_exchange, map_blocks
from fastpasta_ray.functions import text as ftext
from fastpasta_ray.sketches import group_codes, one_chunk
from fastpasta_ray.sources.parquet import read_blocks


def _rp(sf_dir: str, table: str, columns=None, blocks: int | None = None,
        filter=None) -> Blocks:
    """Column-pruned read of one table, ``{table}.parquet``, as ``Blocks``:
    ``read_blocks``' one raw pyarrow task, whose slice count follows the
    table's rows unless ``blocks`` is given, capped at 2× the cluster's
    CPUs (blocks=32 keeps its 32 tasks on 16+ CPUs, and reads 500
    documents as 2 blocks, not 32, on 1 CPU). No Ray Data streaming
    execution runs: at 1 CPU each one cost 50-90 ms of fixed overhead, most
    of a small query's time."""
    return read_blocks(os.path.join(sf_dir, f"{table}.parquet"), columns, blocks, filter)


def _to_table(src: list) -> pa.Table | None:
    """Rows of a list of block refs (``ray.get``: no streaming execution)
    as one table; None when no block has rows."""
    ts = [t for t in ray.get(src) if t.num_rows]
    return pa.concat_tables(ts) if ts else None


def _round_col(t: pa.Table, col: str, nd: int = 2) -> pa.Table:
    i = t.column_names.index(col)
    return t.set_column(i, col, pc.round(t[col], ndigits=nd))


# ---------------------------------------------------------------------------
# The query layer's partial → final step. Every fold below is mergeable
# (sums, minima, maxima, top-k of top-k, sketch merges), so each block
# emits a few-row partial and one driver-side combine finishes the query:
# no shuffle, and one raw-task wave per fold.
# ---------------------------------------------------------------------------

def _fold(src, partial, schema: pa.Schema, combine=None) -> pa.Table:
    """Run ``partial`` on each block of ``src`` (None: take the blocks as
    they are), collect the partials once through ``_to_table`` and pass
    them to ``combine`` (None: return them). ``src`` is ``Blocks`` (``_rp``,
    a view of it or a ``functions/`` result), a table, or block refs;
    ``partial`` runs as one ``map_blocks`` wave. ``schema`` types the table
    when no partial has rows: only the caller knows the partial's
    columns."""
    if not isinstance(src, list):
        src = blocks(src)
        src = src.refs if partial is None and src.pre is None else map_blocks(partial, src)
    elif partial is not None:
        src = map_blocks(partial, src)
    t = _to_table(src)
    t = schema.empty_table() if t is None else t
    return t if combine is None else combine(t)


def _agg(t: pa.Table, keys: list[str], **out: tuple) -> pa.Table:
    """``t.group_by(keys)`` with one column per ``name=(column, aggregate)``
    (column ``[]`` with ``"count_all"``): the keys, then the outputs in
    order — how a partial names its columns after the final result's."""
    g = t.group_by(keys).aggregate(list(out.values()))
    return pa.table({**{k: g[k] for k in keys},
                     **{n: g[f"{c}_{f}" if c else f] for n, (c, f) in out.items()}})


def _merge(keys: list[str], **how: str):
    """Combine: one row per ``keys`` group, sorted with NULLs last as in
    DuckDB (no keys: one row for the whole table), and each column named
    in ``how`` folded by its Arrow aggregate (``"sum"``, ``"min"`` or
    ``"max"``) under its own name and type."""

    def combine(t: pa.Table) -> pa.Table:
        g = _agg(t, keys, **{c: (c, f) for c, f in how.items()})
        g = g.cast(pa.schema([t.schema.field(c) for c in g.column_names]))
        return g.sort_by([(k, "ascending") for k in keys], null_placement="at_end") if keys else g

    return combine


def _top(k: int, order: list[tuple[str, str]], group: str | None = None):
    """Partial and combine at once: the first ``k`` rows by ``order``
    (``(column, "ascending" | "descending")`` pairs ending in a unique id,
    so ties break to it) per ``group`` value, or of the whole table when
    ``group`` is None. Rows come out sorted by group (NULLs last), then
    ``order``. The top k of per-batch top-k partials is the global top k."""
    by = ([(group, "ascending")] if group else []) + order

    def top(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=by, null_placement="at_end").to_numpy()
        if group is None:
            return t.take(idx[:k])
        codes = group_codes(t[group], include_null=True)[0][idx]
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        rank = np.arange(len(idx)) - np.repeat(starts, np.diff(np.r_[starts, len(idx)]))
        return t.take(idx[rank < k])

    return top


def _sketches(key: str, col: str, load):
    """Combine for serialized sketch partials: (the ``key`` values, sorted
    with NULLs last; each one's sketch), where ``load`` reads one entry of
    ``col`` and the sketches' own ``merge`` folds them."""

    def combine(t: pa.Table) -> tuple[pa.ChunkedArray, list]:
        g = t.group_by(key).aggregate([(col, "list")])
        g = g.sort_by([(key, "ascending")], null_placement="at_end")
        return g[key], [reduce(lambda a, b: a.merge(b), map(load, s))
                        for s in g[f"{col}_list"].to_pylist()]

    return combine


def _probe(keys: np.ndarray, col) -> tuple[np.ndarray, np.ndarray]:
    """(position in the sorted broadcast ``keys``, present?) for each value
    of the Arrow column ``col``. Empty ``keys`` match nothing: clipping to
    ``len(keys) - 1`` would index -1 of an empty array."""
    v = col.to_numpy(zero_copy_only=False)
    if not len(keys):
        return np.zeros(len(v), np.int64), np.zeros(len(v), bool)
    pos = np.minimum(np.searchsorted(keys, v), len(keys) - 1)
    return pos, keys[pos] == v


def _seed_centroids(ds, k: int = 8) -> np.ndarray:
    """Embeddings of the k smallest vec_ids as float64 centroids, via
    per-batch min-k partials + a driver reduce over ≤ k×blocks rows
    (VERDICT r4 #2: ``ds.sort("vec_id").limit(k)`` ran a full global sort
    shuffle for k rows — no shuffle at any corpus size)."""
    top = _top(k, [("vec_id", "ascending")])
    schema = pa.schema({"vec_id": pa.int64(), "embedding": pa.list_(pa.float32())})
    emb = _fold(ds, top, schema, top)["embedding"].to_pylist()
    return np.asarray(emb, dtype=np.float64)


# ---------------------------------------------------------------------------
# G1: grouped sums/counters (TPC-H Q1 shape) — per-batch partials folded
# on the driver.
# ---------------------------------------------------------------------------

def q_lineitem_agg(sf_dir: str):
    ds = _rp(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    keys = ["l_returnflag", "l_linestatus"]
    sums = ["sum_qty", "sum_base_price", "sum_disc_price"]

    def partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return _agg(
            b.append_column("revenue", rev), keys, sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"), sum_disc_price=("revenue", "sum"),
            count_order=([], "count_all"),
        )

    # ≤6 partial rows per block; a Dataset groupby here paid an all-to-all
    # shuffle for those few rows
    schema = pa.schema({**dict.fromkeys(keys, pa.string()), **dict.fromkeys(sums, pa.float64()),
                        "count_order": pa.int64()})
    t = _fold(ds, partial, schema, _merge(keys, **dict.fromkeys(sums, "sum"), count_order="sum"))
    for c in sums:
        t = _round_col(t, c, 2)
    return t


# ---------------------------------------------------------------------------
# G3: histogram / per-source grouped stats
# ---------------------------------------------------------------------------

_SOURCE_HISTOGRAM = pa.schema({"source": pa.string(), "n_docs": pa.int64(),
                               "total_chars": pa.int64(), "min_chars": pa.int64(),
                               "max_chars": pa.int64()})
_SOURCE_HISTOGRAM_MERGE = _merge(["source"], n_docs="sum", total_chars="sum",
                                 min_chars="min", max_chars="max")


def q_source_histogram(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        # a few sources per block
        return _agg(b, ["source"], n_docs=([], "count_all"), total_chars=("n_chars", "sum"),
                    min_chars=("n_chars", "min"), max_chars=("n_chars", "max"))

    return _fold(ds, partial, _SOURCE_HISTOGRAM, _SOURCE_HISTOGRAM_MERGE)


# ---------------------------------------------------------------------------
# G2: exact distinct over small domains — per-batch partial distinct sets
# merged on the driver (the reference's dedup-on-insert, but mergeable).
# ---------------------------------------------------------------------------

def q_distinct_counts(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["lang", "source"])

    keys = ["lang", "source"]

    def combine(t: pa.Table) -> pa.Table:
        # COUNT(DISTINCT) skips NULL, as count_distinct's default mode does
        return pa.table({"n_langs": [pc.count_distinct(t["lang"]).as_py()],
                         "n_sources": [pc.count_distinct(t["source"]).as_py()]})

    # partials: each batch's distinct (lang, source) pairs
    return _fold(ds, lambda b: b.group_by(keys).aggregate([]),
                 pa.schema(dict.fromkeys(keys, pa.string())), combine)


# ---------------------------------------------------------------------------
# C-analog constraints as filters (violation emission on generic tables)
# ---------------------------------------------------------------------------

def q_constraint_nchars(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def bad(b: pa.Table) -> pa.Table:
        ln = pc.cast(pc.utf8_length(b["text"]), pa.int64())
        mask = pc.not_equal(ln, b["n_chars"])
        f = b.filter(mask)
        return pa.table(
            {
                "doc_id": f["doc_id"],
                "code": pa.array(["E10"] * f.num_rows, type=pa.string()),
                "actual_len": pc.cast(pc.utf8_length(f["text"]), pa.int64()),
                "expected_len": pc.cast(f["n_chars"], pa.int64()),
            }
        )

    schema = pa.schema({"doc_id": pa.int64(), "code": pa.string(),
                        "actual_len": pa.int64(), "expected_len": pa.int64()})
    return _fold(ds, bad, schema)


LANG_DOMAIN = ("en", "de", "fr", "es", "zh")


def q_constraint_lang_domain(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "lang"])

    def bad(b: pa.Table) -> pa.Table:
        ok = pc.is_in(b["lang"], value_set=pa.array(list(LANG_DOMAIN)))
        f = b.filter(pc.invert(pc.fill_null(ok, False)))
        return pa.table({"doc_id": f["doc_id"], "lang": f["lang"]})

    return _fold(ds, bad, pa.schema({"doc_id": pa.int64(), "lang": pa.string()}))


# ---------------------------------------------------------------------------
# O4: duplicate detection via groupby count
# ---------------------------------------------------------------------------

def q_dup_doc_id(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id"])

    def dups(g: pa.Table) -> pa.Table:
        # every row of an id lands in one reduce task: its count is final
        t = _agg(g, ["doc_id"], n=([], "count_all"))
        return t.filter(pc.greater(t["n"], 1))

    # a hash exchange, not a driver fold: one partial row per distinct id
    # would grow with the table
    return _fold(hash_exchange(ds, "doc_id", dups), None,
                 pa.schema({"doc_id": pa.int64(), "n": pa.int64()}))


# ---------------------------------------------------------------------------
# G6/A4: referential anti-join — broadcast small side via ray.put, probed
# inside each block's task (no shuffle of the big side).
# ---------------------------------------------------------------------------

def q_customers_without_orders(sf_dir: str):
    orders = _fold(_rp(sf_dir, "orders", ["o_custkey"]), None,
                   pa.schema({"o_custkey": pa.int64()}))
    custkeys = ray.put(np.unique(orders["o_custkey"].to_numpy()))

    # a task-pool function, not an actor pool: a fixed pool holds its CPUs
    # for the whole stage and starved the read on a 1-CPU cluster
    def anti_join(b: pa.Table) -> pa.Table:
        # zero-copy plasma read per task
        return b.filter(pa.array(~_probe(ray.get(custkeys), b["c_custkey"])[1]))

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name"])
    return _fold(ds, anti_join, pa.schema({"c_custkey": pa.int64(), "c_name": pa.string()}))


# ---------------------------------------------------------------------------
# broadcast dimension join + grouped aggregate (G6 lookup-join shape)
# ---------------------------------------------------------------------------

def q_orders_by_segment(sf_dir: str):
    cust = _fold(_rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"]), None,
                 pa.schema({"c_custkey": pa.int64(), "c_mktsegment": pa.string()}))
    cust = cust.sort_by("c_custkey")
    lookup_ref = ray.put((cust["c_custkey"].to_numpy(), cust["c_mktsegment"]))

    # task-pool function (see q_customers_without_orders)
    def seg_join(b: pa.Table) -> pa.Table:
        keys, segs = ray.get(lookup_ref)
        pos, hit = _probe(keys, b["o_custkey"])
        # inner join: an order with no customer has no segment
        t = pa.table({"c_mktsegment": segs.take(pos[hit]),
                      "total_price": b["o_totalprice"].filter(pa.array(hit))})
        # ≤5 segment rows per batch
        return _agg(t, ["c_mktsegment"], n_orders=([], "count_all"),
                    total_price=("total_price", "sum"))

    ds = _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    schema = pa.schema({"c_mktsegment": pa.string(), "n_orders": pa.int64(),
                        "total_price": pa.float64()})
    t = _fold(ds, seg_join, schema, _merge(["c_mktsegment"], n_orders="sum", total_price="sum"))
    return _round_col(t, "total_price", 2)


# ---------------------------------------------------------------------------
# shuffle hash join via a two-sided hash exchange (R8 dispatcher-shuffle
# analog)
# ---------------------------------------------------------------------------

def q_lines_per_orderpriority(sf_dir: str):
    """The ONE kept genuine shuffle join (R8 dispatcher-shuffle
    demonstrator) — every other multi-table query broadcasts its small
    side (VERDICT r1 #3): one two-sided ``hash_exchange`` on the order
    key, both sides pre-projected to the join/aggregate columns only."""
    li = _rp(sf_dir, "lineitem", ["l_orderkey"])
    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # both sides exchange on one key column name
    orders = orders.view(lambda b: b.rename_columns(["l_orderkey", "o_orderpriority"]),
                         pa.schema({"l_orderkey": pa.int64(), "o_orderpriority": pa.string()}))

    def join_count(l: pa.Table, o: pa.Table) -> pa.Table:
        # reduce task p joins shard p of lineitem with shard p of orders;
        # ≤5 priority rows per task, summed on the driver
        j = l.join(o, "l_orderkey", join_type="inner")
        return _agg(j, ["o_orderpriority"], n_lines=([], "count_all"))

    return _fold(hash_exchange((li, orders), "l_orderkey", join_count), None,
                 pa.schema({"o_orderpriority": pa.string(), "n_lines": pa.int64()}),
                 _merge(["o_orderpriority"], n_lines="sum"))


# ---------------------------------------------------------------------------
# R1-analog on generic tables: per-key ordered monotonicity scan over one
# hash exchange on the key (same pattern as checks/key_checks.py —
# vectorized within each reduce task).
# ---------------------------------------------------------------------------

def q_nonmonotonic_events(sf_dir: str):
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def scan(g: pa.Table) -> pa.Table:
        # lexsort + shifted compare, no pandas conversion (VERDICT r2 #6)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((eid, uid))
        u, t = uid[order], ts[order]
        bad = (u[1:] == u[:-1]) & (t[1:] < t[:-1])
        return pa.table({"n_violations_part": pa.array([int(bad.sum())], type=pa.int64())})

    parts = pa.concat_tables(ray.get(hash_exchange(ds, "user_id", scan)))
    total = int(pc.sum(parts["n_violations_part"]).as_py() or 0)
    return pa.table({"n_violations": pa.array([total], type=pa.int64())})


# ---------------------------------------------------------------------------
# windowed aggregate: tumbling 1-hour windows per event type
# ---------------------------------------------------------------------------

def q_hourly_events(sf_dir: str):
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])
    keys = ["window_start", "event_type"]

    def partial(b: pa.Table) -> pa.Table:
        # ≤ |windows × types| rows per batch, folded on the driver
        t = pa.table(
            {
                "window_start": pc.floor_temporal(b["ts"], unit="hour"),
                "event_type": b["event_type"],
                "value": b["value"],
            }
        )
        return _agg(t, keys, n_events=([], "count_all"), total_value=("value", "sum"))

    schema = pa.schema({"window_start": pa.timestamp("us"), "event_type": pa.string(),
                        "n_events": pa.int64(), "total_value": pa.float64()})
    t = _fold(ds, partial, schema, _merge(keys, n_events="sum", total_value="sum"))
    return _round_col(t, "total_value", 2)


# ---------------------------------------------------------------------------
# exact dedup count (dedup family; SQL-checkable scalar)
# ---------------------------------------------------------------------------

def q_exact_dup_count(sf_dir: str):
    from fastpasta_ray.functions.dedup import exact_dup_groups

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    groups = exact_dup_groups(ds)
    n = _fold(groups, None, groups.schema)["n_copies"]
    n_dups = (pc.sum(n).as_py() or 0) - len(n)
    return pa.table({"n_exact_dups": pa.array([n_dups], type=pa.int64())})


# ---------------------------------------------------------------------------
# text analysis (token counting, quality metrics) — SQL-matched
# ---------------------------------------------------------------------------

def q_token_counts(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return _fold(ds, lambda b: ftext.token_count(b).select(["doc_id", "n_words"]),
                 pa.schema({"doc_id": pa.int64(), "n_words": pa.int64()}))


def q_text_quality(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    cols = ["n_chars_obs", "n_punct", "n_upper", "n_digit"]
    return _fold(ds, lambda b: ftext.quality_metrics(b).select(["doc_id", *cols]),
                 pa.schema({"doc_id": pa.int64(), **dict.fromkeys(cols, pa.int64())}))


# ---------------------------------------------------------------------------
# similarity: brute-force cosine top-k vs vec_id=0 (SQL-matched via
# duckdb list_cosine_similarity)
# ---------------------------------------------------------------------------

def _query_vector(sf_dir: str) -> tuple[np.ndarray, Blocks]:
    """(the embedding of vec_id 0, a view of every other row) over one
    read of ``embeddings``: a wave finds the query row, and each later
    wave drops it inside its own tasks."""
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _fold(emb, lambda b: b.filter(pc.equal(b["vec_id"], 0)), emb.schema)["embedding"][0]
    return np.asarray(q.as_py()), emb.view(lambda b: b.filter(pc.not_equal(b["vec_id"], 0)))


def q_similarity_top10(sf_dir: str):
    from fastpasta_ray.functions.similarity import cosine_topk

    q, rest = _query_vector(sf_dir)
    return cosine_topk(rest, q, k=10, round_to=4).select(["vec_id", "cosine"])


# ---------------------------------------------------------------------------
# non-SQL ops (rows-only driver check): minhash/simhash near-dup, lang-id,
# fingerprints, HLL distinct estimate, IVF similarity
# ---------------------------------------------------------------------------

def q_minhash_pairs(sf_dir: str):
    """MinHash-LSH candidates verified by EXACT word-3gram Jaccard ≥ 0.5 —
    the SQL oracle computes the identical value via a DISTINCT-shingle
    self-join (bimodal corpus: planted near-dups ≥0.88, background <0.3,
    so LSH recall at this threshold is total)."""
    from fastpasta_ray.functions.dedup import minhash_lsh_pairs

    # blocks=32: small signature tasks shorten a throttled core's straggler
    # tail on many CPUs; _rp caps the count at 2× cluster CPUs
    ds = _rp(sf_dir, "documents", ["doc_id", "text"], blocks=32)
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    return _fold(pairs, None, pairs.schema)


def q_simhash_pairs(sf_dir: str):
    """SimHash candidates (Hamming ≤ 7 guaranteed by 9-block combo keys)
    verified by EXACT word-3gram Jaccard ≥ 0.8 — same SQL oracle shape as
    minhash_pairs at a stricter threshold."""
    from fastpasta_ray.functions.dedup import exact_jaccard_verify, simhash_near_dups

    # blocks=32: see q_minhash_pairs. One read: the candidates and the
    # verify's n-gram sets come from the same blocks
    ds = _rp(sf_dir, "documents", ["doc_id", "text"], blocks=32)
    pairs = exact_jaccard_verify(simhash_near_dups(ds, aggregate=False), ds, threshold=0.8)
    return _fold(pairs, None, pairs.schema)


def q_lang_id(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text", "lang"], blocks=8)
    # the stopword patterns are built once here and shipped with the wave
    # (an actor pool held CPUs for the whole stage)
    lang_id = ftext.LangID()
    return _fold(ds, lambda b: lang_id(b).select(["doc_id", "lang", "lang_pred"]),
                 pa.schema({"doc_id": pa.int64(), "lang": pa.string(), "lang_pred": pa.string()}))


def q_hll_distinct_users(sf_dir: str):
    """HLL estimate judged against the exact distinct count (both computed
    by the engine; the oracle recomputes the exact count and asserts the
    2% accuracy bound as a checkable column)."""
    from fastpasta_ray.sketches import HyperLogLog, splitmix64

    ds = _rp(sf_dir, "events", ["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        # per-batch dedup + HLL partial; the exact side ships only the
        # batch-unique ids into a hash-exchanged distinct count — the
        # driver never materializes the id set (that unbounded union is
        # exactly what the sketch exists to avoid)
        u = np.unique(b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
        h = HyperLogLog()
        h.add_hashes(splitmix64(u))
        return pa.table({"registers": pa.array([h.registers.tobytes()], type=pa.binary())})

    def merge(t: pa.Table) -> HyperLogLog:
        regs = (np.frombuffer(r, dtype=np.uint8).copy() for r in t["registers"].to_pylist())
        return reduce(HyperLogLog.merge, (HyperLogLog(14, r) for r in regs), HyperLogLog())

    def uniq_rows(b: pa.Table) -> pa.Table:
        u = np.unique(b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"uid": pa.array(u)})

    def count_distinct(g: pa.Table) -> pa.Table:
        n = len(np.unique(g["uid"].to_numpy(zero_copy_only=False)))
        return pa.table({"n": pa.array([n], type=pa.int64())})

    merged = _fold(ds, partial, pa.schema({"registers": pa.binary()}), merge)
    uniq = ds.view(uniq_rows, pa.schema({"uid": pa.int64()}))
    exact_t = pa.concat_tables(ray.get(hash_exchange(uniq, "uid", count_distinct)))
    n_exact = int(pc.sum(exact_t["n"]).as_py() or 0)
    est = merged.estimate()
    ok = abs(est - n_exact) <= 0.02 * max(n_exact, 1)
    return pa.table(
        {
            "distinct_users_exact": pa.array([n_exact], type=pa.int64()),
            "hll_within_2pct": pa.array([bool(ok)], type=pa.bool_()),
        }
    )


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB) — names match the Ray outputs above
# ---------------------------------------------------------------------------

ORACLES: dict[str, str] = {
    "lineitem_agg": """
        SELECT l_returnflag, l_linestatus,
               ROUND(SUM(l_quantity), 2) AS sum_qty,
               ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
               COUNT(*) AS count_order
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "source_histogram": """
        SELECT source, COUNT(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS total_chars,
               MIN(n_chars) AS min_chars, MAX(n_chars) AS max_chars
        FROM documents GROUP BY source
    """,
    "distinct_counts": """
        SELECT CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs,
               CAST(COUNT(DISTINCT source) AS BIGINT) AS n_sources
        FROM documents
    """,
    "constraint_nchars": """
        SELECT doc_id, 'E10' AS code,
               CAST(LENGTH(text) AS BIGINT) AS actual_len,
               CAST(n_chars AS BIGINT) AS expected_len
        FROM documents WHERE LENGTH(text) != n_chars
    """,
    "constraint_lang_domain": """
        SELECT doc_id, lang FROM documents
        WHERE lang NOT IN ('en','de','fr','es','zh') OR lang IS NULL
    """,
    "dup_doc_id": """
        SELECT doc_id, COUNT(*) AS n FROM documents
        GROUP BY doc_id HAVING COUNT(*) > 1
    """,
    "customers_without_orders": """
        SELECT c_custkey, c_name FROM customer
        WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
    """,
    "orders_by_segment": """
        SELECT c_mktsegment, COUNT(*) AS n_orders,
               ROUND(SUM(o_totalprice), 2) AS total_price
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment
    """,
    "lines_per_orderpriority": """
        SELECT o_orderpriority, COUNT(*) AS n_lines
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        GROUP BY o_orderpriority
    """,
    "nonmonotonic_events": """
        SELECT CAST(COUNT(*) AS BIGINT) AS n_violations FROM (
            SELECT ts, LAG(ts) OVER (PARTITION BY user_id ORDER BY event_id) AS pts
            FROM events
        ) WHERE ts < pts
    """,
    "hourly_events": """
        SELECT date_trunc('hour', ts) AS window_start, event_type,
               COUNT(*) AS n_events, ROUND(SUM(value), 2) AS total_value
        FROM events GROUP BY 1, 2
    """,
    "exact_dup_count": """
        SELECT CAST(COUNT(*) - COUNT(DISTINCT text) AS BIGINT) AS n_exact_dups
        FROM documents
    """,
    "token_counts": """
        SELECT doc_id,
               CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words
        FROM documents
    """,
    "text_quality": """
        SELECT doc_id,
               CAST(LENGTH(text) AS BIGINT) AS n_chars_obs,
               CAST(LENGTH(text) - LENGTH(regexp_replace(text, '[.!?,;:]', '', 'g')) AS BIGINT) AS n_punct,
               CAST(LENGTH(text) - LENGTH(regexp_replace(text, '[A-Z]', '', 'g')) AS BIGINT) AS n_upper,
               CAST(LENGTH(text) - LENGTH(regexp_replace(text, '[0-9]', '', 'g')) AS BIGINT) AS n_digit
        FROM documents
    """,
    "similarity_top10": """
        SELECT e.vec_id,
               ROUND(list_cosine_similarity(e.embedding,
                     (SELECT embedding FROM embeddings WHERE vec_id = 0)), 4) AS cosine
        FROM embeddings e WHERE e.vec_id != 0
        ORDER BY list_cosine_similarity(e.embedding,
                 (SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC, e.vec_id
        LIMIT 10
    """,
}

QUERIES = {
    "lineitem_agg": q_lineitem_agg,
    "source_histogram": q_source_histogram,
    "distinct_counts": q_distinct_counts,
    "constraint_nchars": q_constraint_nchars,
    "constraint_lang_domain": q_constraint_lang_domain,
    "dup_doc_id": q_dup_doc_id,
    "customers_without_orders": q_customers_without_orders,
    "orders_by_segment": q_orders_by_segment,
    "lines_per_orderpriority": q_lines_per_orderpriority,
    "nonmonotonic_events": q_nonmonotonic_events,
    "hourly_events": q_hourly_events,
    "exact_dup_count": q_exact_dup_count,
    "token_counts": q_token_counts,
    "text_quality": q_text_quality,
    "similarity_top10": q_similarity_top10,
    # rows-only (no SQL equivalent)
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "lang_id": q_lang_id,
    "hll_distinct_users": q_hll_distinct_users,
}


# ---------------------------------------------------------------------------
# O3: top-k via sort + limit
# ---------------------------------------------------------------------------

def q_top_orders(sf_dir: str):
    """O3 analog (top-k by value): per-batch top-10 partials + a driver
    reduce over <= 10 x blocks candidate rows — no global sort shuffle
    for 10 rows (the same shape the r5 seed-pick fix removed from
    semantic_dedup/kmeans_assign)."""
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    top = _top(10, [("o_totalprice", "descending"), ("o_orderkey", "ascending")])
    schema = pa.schema({"o_orderkey": pa.int64(), "o_totalprice": pa.float64()})
    return _round_col(_fold(ds, top, schema, top), "o_totalprice", 2)


# ---------------------------------------------------------------------------
# R7-analog: gap-based session windows (AlpideReadoutFrame sessionization)
# ---------------------------------------------------------------------------

def q_session_stats(sf_dir: str):
    from fastpasta_ray.functions.windows import sessionize

    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    s = sessionize(ds, gap_seconds=1800.0)
    t = _fold(s, None, s.schema)
    # SUM and MAX over no sessions are NULL, as in SQL
    return pa.table(
        {
            "n_sessions": pa.array([t.num_rows], type=pa.int64()),
            "n_events": pa.array([pc.sum(t["n_events"]).as_py()], type=pa.int64()),
            "max_session_events": pa.array([pc.max(t["n_events"]).as_py()], type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# exact grouped quantiles via the mergeable IntHistogram sketch (t-digest
# replacement for bounded int domains; matches quantile_disc convention)
# ---------------------------------------------------------------------------

def q_nchars_quantiles(sf_dir: str):
    import json

    from fastpasta_ray.sketches import IntHistogram

    ds = _rp(sf_dir, "documents", ["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        codes, uniques = group_codes(b["source"], include_null=True)
        nch = b["n_chars"].to_numpy(zero_copy_only=False)
        hists = []
        for k in range(len(uniques)):
            h = IntHistogram()
            h.add(nch[codes == k])
            hists.append(json.dumps(h.to_json()))
        return pa.table({"source": pa.array(uniques, pa.string()), "hist": hists})

    def quantiles(t: pa.Table) -> pa.Table:
        src, hists = _sketches("source", "hist", lambda s: IntHistogram.from_json(json.loads(s)))(t)
        return pa.table({"source": src, **{
            f"p{round(q * 100)}": pa.array([h.quantile(q) for h in hists], pa.int64())
            for q in (0.25, 0.5, 0.75, 0.99)}})

    return _fold(ds, partial, pa.schema({"source": pa.string(), "hist": pa.string()}), quantiles)


# ---------------------------------------------------------------------------
# word top-k: per-block partial counts -> groupby sum -> driver top-k
# (explode+shuffle with pre-aggregation — the combiner pattern)
# ---------------------------------------------------------------------------

def q_word_topk(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["text"], blocks=8)

    def partial_counts(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(b["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = one_chunk(toks)
        # pc.value_counts on the flattened Arrow array is the C-kernel path
        # (VERDICT r1: np.unique over Python objects was ~10× slower)
        vc = pc.value_counts(toks.flatten())
        return pa.table(
            {
                "word": vc.field("values"),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    # the point of this query is Ray Data's shuffle aggregate: the partial
    # counts run as a wave over the read's blocks and enter it as they are
    # (one streaming execution, the aggregate)
    agg = (
        ray.data.from_arrow_refs(map_blocks(partial_counts, ds))
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="n"))
    )
    top = _top(20, [("n", "descending"), ("word", "ascending")])
    schema = pa.schema({"word": pa.string(), "n": pa.int64()})
    # materialized first: to_arrow_refs on a lazy Dataset runs the plan a
    # second time to fetch its schema
    return _fold(agg.materialize().to_arrow_refs(), None, schema, top)


# ---------------------------------------------------------------------------
# embeddings: IVF search + near-dup pairs + per-label stats (rows-only)
# ---------------------------------------------------------------------------

def q_ivf_similarity(sf_dir: str):
    """Exact IVF (angular-bound cluster pruning) — result equals brute
    force, so it shares similarity_top10's SQL oracle."""
    from fastpasta_ray.functions.similarity import ivf_topk_exact

    # one streaming execution (the read); the query row, the centroid
    # sample, the radii and both probe waves are raw-task waves over it
    q, rest = _query_vector(sf_dir)
    return ivf_topk_exact(rest, q, k=10).select(["vec_id", "cosine"])


def q_embedding_neardups(sf_dir: str):
    from fastpasta_ray.functions.similarity import embedding_near_dup_pairs

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=8)
    schema = pa.schema({"vec_a": pa.int64(), "vec_b": pa.int64(), "cosine": pa.float64()})
    return _fold(embedding_near_dup_pairs(emb, threshold=0.95), None, schema)


def q_label_stats(sf_dir: str):
    emb = _rp(sf_dir, "embeddings", ["vec_id", "label"])

    def partial(b: pa.Table) -> pa.Table:
        # a few labels per block
        return _agg(b, ["label"], n_vecs=([], "count_all"), min_vec_id=("vec_id", "min"),
                    max_vec_id=("vec_id", "max"))

    schema = pa.schema({"label": pa.int32(), "n_vecs": pa.int64(), "min_vec_id": pa.int64(),
                        "max_vec_id": pa.int64()})
    return _fold(emb, partial, schema,
                 _merge(["label"], n_vecs="sum", min_vec_id="min", max_vec_id="max"))

ORACLES.update(
    {
        "top_orders": """
            SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "session_stats": """
            WITH d AS (
                SELECT user_id, ts,
                       CASE WHEN LAG(ts) OVER w IS NULL
                                 OR ts - LAG(ts) OVER w > INTERVAL 1800 SECOND
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), s AS (
                SELECT user_id,
                       SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                        ROWS UNBOUNDED PRECEDING) AS sid
                FROM d
            ), g AS (
                SELECT user_id, sid, COUNT(*) AS c FROM s GROUP BY user_id, sid
            )
            SELECT CAST(COUNT(*) AS BIGINT) AS n_sessions,
                   CAST(SUM(c) AS BIGINT) AS n_events,
                   CAST(MAX(c) AS BIGINT) AS max_session_events
            FROM g
        """,
        "nchars_quantiles": """
            SELECT source,
                   CAST(quantile_disc(n_chars, 0.25) AS BIGINT) AS p25,
                   CAST(quantile_disc(n_chars, 0.50) AS BIGINT) AS p50,
                   CAST(quantile_disc(n_chars, 0.75) AS BIGINT) AS p75,
                   CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99
            FROM documents GROUP BY source
        """,
        "word_topk": """
            SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM (
                SELECT unnest(string_split(text, ' ')) AS word FROM documents
            ) GROUP BY word ORDER BY n DESC, word LIMIT 20
        """,
        "label_stats": """
            SELECT label, COUNT(*) AS n_vecs, MIN(vec_id) AS min_vec_id,
                   MAX(vec_id) AS max_vec_id
            FROM embeddings GROUP BY label
        """,
    }
)

QUERIES.update(
    {
        "top_orders": q_top_orders,
        "session_stats": q_session_stats,
        "nchars_quantiles": q_nchars_quantiles,
        "word_topk": q_word_topk,
        "label_stats": q_label_stats,
        # rows-only
        "ivf_similarity": q_ivf_similarity,
        "embedding_neardups": q_embedding_neardups,
    }
)


# ---------------------------------------------------------------------------
# as-of join (custom operator — Ray Data has no native asof): purchase
# events attributed to the most recent prior view of the same user
# ---------------------------------------------------------------------------

def _event_side(ev: Blocks, kind: str, cols: list[str]) -> Blocks:
    """A view of the ``events`` rows of one ``event_type``, projected to
    ``cols``: each join side filters inside the exchange's map tasks, so
    both sides come from one read, typed even when ``events`` is empty."""
    return ev.view(lambda b: b.filter(pc.equal(b["event_type"], kind)).select(cols),
                   pa.schema([ev.schema.field(c) for c in cols]))


def q_asof_purchase_attribution(sf_dir: str):
    from fastpasta_ray.functions.joins import asof_join

    ev = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    purchases = _event_side(ev, "purchase", ["event_id", "ts", "user_id"])
    views = _event_side(ev, "view", ["user_id", "ts"])
    t = asof_join(purchases, views, on="ts", by="user_id", right_cols=[])
    ts = ev.schema.field("ts").type
    t = _fold(t, None, pa.schema({"ts": ts, "ts_right": ts}))
    v = t.filter(pc.is_valid(t["ts_right"]))
    # exact integer microseconds on both sides (duckdb date_diff('second')
    # counts boundary crossings, not elapsed time — avoid it)
    us = [v[c].cast(pa.timestamp("us")).cast(pa.int64()) for c in ("ts", "ts_right")]
    return pa.table(
        {
            "n_purchases": pa.array([t.num_rows], type=pa.int64()),
            "n_with_view": pa.array([v.num_rows], type=pa.int64()),
            # SUM over no matched purchase is NULL, as in SQL
            "total_gap_us": pa.array([pc.sum(pc.subtract(*us)).as_py()], type=pa.int64()),
        }
    )


ORACLES["asof_purchase_attribution"] = """
    WITH p AS (SELECT user_id, event_id, ts FROM events WHERE event_type = 'purchase'),
         v AS (SELECT user_id, ts FROM events WHERE event_type = 'view'),
         j AS (
            SELECT p.ts, v.ts AS vts
            FROM p ASOF LEFT JOIN v ON p.user_id = v.user_id AND p.ts >= v.ts
         )
    SELECT CAST(COUNT(*) AS BIGINT) AS n_purchases,
           CAST(COUNT(vts) AS BIGINT) AS n_with_view,
           CAST(SUM(CASE WHEN vts IS NOT NULL
                         THEN date_diff('microsecond', vts, ts) END) AS BIGINT) AS total_gap_us
    FROM j
"""
QUERIES["asof_purchase_attribution"] = q_asof_purchase_attribution


# ---------------------------------------------------------------------------
# salted grouped aggregate: same result as source_histogram but the shuffle
# key is (source, salt) — the skew-defusal pattern for hot keys; partials
# are de-salted in a second (tiny) aggregation
# ---------------------------------------------------------------------------

def q_source_histogram_salted(sf_dir: str, n_salt: int = 8):
    ds = _rp(sf_dir, "documents", ["source", "n_chars"])

    def salt(b: pa.Table) -> pa.Table:
        s = (np.arange(b.num_rows) % n_salt).astype(np.int64)
        return b.append_column("salt", pa.array(s))

    # the point of this query is Ray Data's shuffle aggregate on a salted
    # key: the salting runs as a wave over the read's blocks, which enter
    # it as they are (one streaming execution, the aggregate)
    partial = (
        ray.data.from_arrow_refs(map_blocks(salt, ds))
        .groupby(["source", "salt"])
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="total_chars"),
            Min("n_chars", alias_name="min_chars"),
            Max("n_chars", alias_name="max_chars"),
        )
    )
    return _fold(partial.materialize().to_arrow_refs(), None, _SOURCE_HISTOGRAM,
                 _SOURCE_HISTOGRAM_MERGE)


ORACLES["source_histogram_salted"] = ORACLES["source_histogram"]
QUERIES["source_histogram_salted"] = q_source_histogram_salted


# ---------------------------------------------------------------------------
# semi-structured extraction: JSON props field via vectorized regex
# (pyarrow has no JSON-path kernel; for the known shape {"k": N} a compiled
# regex extract IS the vectorized plan) — oracle uses DuckDB json_extract
# ---------------------------------------------------------------------------

def q_props_extract(sf_dir: str):
    ds = _rp(sf_dir, "events", ["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(b["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        t = pa.table({"event_type": b["event_type"], "k": k})
        # a handful of event types per batch
        return _agg(t, ["event_type"], n=([], "count_all"), total_k=("k", "sum"),
                    min_k=("k", "min"), max_k=("k", "max"))

    schema = pa.schema({"event_type": pa.string(), "n": pa.int64(), "total_k": pa.int64(),
                        "min_k": pa.int64(), "max_k": pa.int64()})
    return _fold(ds, extract, schema, _merge(
        ["event_type"], n="sum", total_k="sum", min_k="min", max_k="max"))


ORACLES["props_extract"] = """
    SELECT event_type, COUNT(*) AS n,
           CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS total_k,
           MIN(CAST(json_extract(props, '$.k') AS BIGINT)) AS min_k,
           MAX(CAST(json_extract(props, '$.k') AS BIGINT)) AS max_k
    FROM events GROUP BY event_type
"""
QUERIES["props_extract"] = q_props_extract


# ---------------------------------------------------------------------------
# TPC-H Q3 shape: 3-way join (broadcast dim + shuffle fact-fact) + top-k
# ---------------------------------------------------------------------------

def q_q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape, broadcast-join plan (VERDICT r1 #3): after the
    BUILDING semi-join, surviving orders are ~1/5 of the table — small
    enough to broadcast ``o_orderkey → o_orderdate`` via ray.put and probe
    with searchsorted in a wave over lineitem's blocks. NO all-to-all
    shuffle of the fact table; the only exchange is the per-order groupby
    of (orderkey, date, partial revenue) rows. The genuine shuffle-join
    demonstrator (R8) is q_lines_per_orderpriority."""
    cust = _fold(_rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"]), None,
                 pa.schema({"c_custkey": pa.int64(), "c_mktsegment": pa.string()}))
    seg_keys = ray.put(
        np.sort(
            cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))["c_custkey"].to_numpy()
        )
    )

    def seg_filter(b: pa.Table) -> pa.Table:
        # broadcast semi-join (task-pool fn; ray.get is zero-copy plasma)
        return b.filter(pa.array(_probe(ray.get(seg_keys), b["o_custkey"])[1]))

    schema = pa.schema({"o_orderkey": pa.int64(), "o_custkey": pa.int64(),
                        "o_orderdate": pa.timestamp("us")})
    orders = _fold(_rp(sf_dir, "orders", schema.names), seg_filter, schema).sort_by("o_orderkey")
    lookup_ref = ray.put(orders["o_orderkey"].to_numpy())

    def rev_probe(b: pa.Table) -> pa.Table:
        # broadcast inner join + per-batch PARTIAL aggregation: each batch
        # combines revenue by order position (dense index into the
        # broadcast key array), so the "shuffle" is a bounded partial
        # merge (≤ |BUILDING orders| rows/batch — the same memory envelope
        # the broadcast already assumes)
        keys = ray.get(lookup_ref)
        pos, hit = _probe(keys, b["l_orderkey"])
        f = b.filter(pa.array(hit))
        rev = pc.multiply(
            f["l_extendedprice"], pc.subtract(pa.scalar(1.0), f["l_discount"])
        ).to_numpy(zero_copy_only=False)
        part = np.zeros(len(keys))
        np.add.at(part, pos[hit], rev)
        nz = np.flatnonzero(part)
        return pa.table({"opos": pa.array(nz), "revenue": pa.array(part[nz])})

    def top10(t: pa.Table) -> pa.Table:
        t = _merge(["opos"], revenue="sum")(t)  # ≤ |BUILDING orders| rows
        o = orders.take(t["opos"])
        t = pa.table({"l_orderkey": o["o_orderkey"], "o_orderdate": o["o_orderdate"],
                      "revenue": pc.round(t["revenue"], 2)})
        return _top(10, [("revenue", "descending"), ("l_orderkey", "ascending")])(t)

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    return _fold(li, rev_probe, pa.schema({"opos": pa.int64(), "revenue": pa.float64()}), top10)


ORACLES["q3_shipping_priority"] = """
    SELECT l_orderkey, o_orderdate, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    WHERE c_mktsegment = 'BUILDING'
    GROUP BY l_orderkey, o_orderdate
    ORDER BY revenue DESC, l_orderkey
    LIMIT 10
"""
QUERIES["q3_shipping_priority"] = q_q3_shipping_priority


# ---------------------------------------------------------------------------
# TPC-H Q5 shape: dim chain broadcast (region->nation->customer) + shuffle
# join orders⋈lineitem, revenue per nation
# ---------------------------------------------------------------------------

def q_q5_local_supplier_volume(sf_dir: str):
    region = _fold(_rp(sf_dir, "region"), None,
                   pa.schema({"r_regionkey": pa.int32(), "r_name": pa.string()}))
    nation = _fold(_rp(sf_dir, "nation"), None, pa.schema(
        {"n_nationkey": pa.int32(), "n_name": pa.string(), "n_regionkey": pa.int32()}))
    cust = _fold(_rp(sf_dir, "customer", ["c_custkey", "c_nationkey"]), None,
                 pa.schema({"c_custkey": pa.int64(), "c_nationkey": pa.int32()}))
    asia = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"]
    nat = nation.filter(pc.is_in(nation["n_regionkey"], value_set=one_chunk(asia)))
    nkey_to_name = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    cust = cust.filter(pc.is_in(cust["c_nationkey"], value_set=one_chunk(nat["n_nationkey"])))
    cust = cust.sort_by("c_custkey")
    lookup = ray.put((cust["c_custkey"].to_numpy(), cust["c_nationkey"].to_numpy()))

    def cust_nation(b: pa.Table) -> pa.Table:
        # broadcast join: order -> customer nation (ASIA only)
        keys, nk = ray.get(lookup)
        pos, hit = _probe(keys, b["o_custkey"])
        return pa.table({"o_orderkey": b["o_orderkey"].filter(pa.array(hit)),
                         "c_nationkey": pa.array(nk[pos[hit]].astype(np.int64))})

    # broadcast-join plan (VERDICT r1 #3): ASIA orders are a ~1/5 subset —
    # broadcast (o_orderkey → c_nationkey), probe + per-batch partial sum
    # by nation in a wave over lineitem's blocks (no fact shuffle at all;
    # the "reduce" is a ≤25-nation partial merge on the driver)
    schema = pa.schema({"o_orderkey": pa.int64(), "c_nationkey": pa.int64()})
    orders = _fold(_rp(sf_dir, "orders", ["o_orderkey", "o_custkey"]), cust_nation, schema)
    orders = orders.sort_by("o_orderkey")
    order_ref = ray.put((orders["o_orderkey"].to_numpy(), orders["c_nationkey"].to_numpy()))

    def nation_probe(b: pa.Table) -> pa.Table:
        keys, nation = ray.get(order_ref)
        pos, hit = _probe(keys, b["l_orderkey"])
        f = b.filter(pa.array(hit))
        rev = pc.multiply(
            f["l_extendedprice"], pc.subtract(pa.scalar(1.0), f["l_discount"])
        ).to_numpy(zero_copy_only=False)
        # dense accumulator sized to the actual key domain (a fixed %32
        # would silently alias nation keys ≥ 32 into wrong slots)
        width = int(nation.max()) + 1 if len(nation) else 1
        part = np.zeros(width)
        np.add.at(part, nation[pos[hit]], rev)
        nz = np.flatnonzero(part)
        return pa.table({"c_nationkey": pa.array(nz), "revenue": pa.array(part[nz])})

    def by_name(t: pa.Table) -> pa.Table:
        t = _merge(["c_nationkey"], revenue="sum")(t)
        names = [nkey_to_name[k] for k in t["c_nationkey"].to_pylist()]
        return pa.table({"n_name": pa.array(names, pa.string()),
                         "revenue": pc.round(t["revenue"], 2)})

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    schema = pa.schema({"c_nationkey": pa.int64(), "revenue": pa.float64()})
    return _fold(li, nation_probe, schema, by_name)


ORACLES["q5_local_supplier_volume"] = """
    SELECT n_name, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation ON c_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    WHERE r_name = 'ASIA'
    GROUP BY n_name
"""
QUERIES["q5_local_supplier_volume"] = q_q5_local_supplier_volume


# ---------------------------------------------------------------------------
# float quantiles via mergeable TDigest (rows-only: approximate by design;
# the exact path for bounded ints is nchars_quantiles / IntHistogram)
# ---------------------------------------------------------------------------

def q_value_quantiles_tdigest(sf_dir: str):
    """Exact grouped float quantiles (one hash exchange on the event type;
    values of one type must fit a task — documented partitioning
    assumption) PLUS the mergeable TDigest estimate judged against them as
    checkable tolerance columns. Oracle: DuckDB quantile_cont + TRUE for
    the tolerance bits."""
    import json

    from fastpasta_ray.sketches import TDigest

    ds = _rp(sf_dir, "events", ["event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        codes, uniques = group_codes(b["event_type"], include_null=True)
        val = b["value"].to_numpy(zero_copy_only=False)
        digests = []
        for k in range(len(uniques)):
            td = TDigest()
            td.add(val[codes == k])
            digests.append(json.dumps(td.to_json()))
        return pa.table({"event_type": pa.array(uniques, pa.string()), "digest": digests})

    def exact_q(g: pa.Table) -> pa.Table:
        # every value of a type lands in one reduce task, which may hold
        # several types: one exact quantile pair per type
        codes, uniques = group_codes(g["event_type"], include_null=True)
        v = g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        segs = [v[codes == k] for k in range(len(uniques))]
        return pa.table(
            {
                "event_type": pa.array(uniques, pa.string()),
                "p50": pa.array([float(np.quantile(x, 0.5)) for x in segs], pa.float64()),
                "p99": pa.array([float(np.quantile(x, 0.99)) for x in segs], pa.float64()),
            }
        )

    types, digests = _fold(
        ds, partial, pa.schema({"event_type": pa.string(), "digest": pa.string()}),
        _sketches("event_type", "digest", lambda s: TDigest.from_json(json.loads(s))),
    )
    exact = _fold(hash_exchange(ds, "event_type", exact_q), None,
                  pa.schema({"event_type": pa.string(), "p50": pa.float64(), "p99": pa.float64()}))
    ex = {r["event_type"]: r for r in exact.to_pylist()}
    # judge the tdigest by RANK error (the sketch's actual guarantee: the
    # estimate's empirical CDF position within 0.01 of q; value-space tail
    # error is unbounded by between-sample gaps) — broadcast the estimates,
    # one vectorized counting pass, driver merge of partial counts
    ests = {t: (d.quantile(0.5), d.quantile(0.99)) for t, d in zip(types.to_pylist(), digests)}

    def rank_counts(b: pa.Table) -> pa.Table:
        codes, uniques = group_codes(b["event_type"], include_null=True)
        est = np.array([ests[t] for t in uniques], dtype=np.float64).reshape(-1, 2)[codes]
        val = b["value"].to_numpy(zero_copy_only=False)
        t = pa.table({"event_type": b["event_type"],
                      "le50": (val <= est[:, 0]).astype(np.int64),
                      "le99": (val <= est[:, 1]).astype(np.int64)})
        return _agg(t, ["event_type"], n=([], "count_all"), le50=("le50", "sum"),
                    le99=("le99", "sum"))

    schema = pa.schema({"event_type": pa.string(), "n": pa.int64(), "le50": pa.int64(),
                        "le99": pa.int64()})
    rc = _fold(ds, rank_counts, schema, _merge(["event_type"], n="sum", le50="sum", le99="sum"))
    n = np.maximum(rc["n"].to_numpy(), 1)
    et = rc["event_type"].to_pylist()
    return pa.table(
        {
            "event_type": rc["event_type"],
            "p50": pa.array([round(ex[t]["p50"], 4) for t in et], type=pa.float64()),
            "p99": pa.array([round(ex[t]["p99"], 4) for t in et], type=pa.float64()),
            "td_p50_ok": pa.array(np.abs(rc["le50"].to_numpy() / n - 0.5) <= 0.01),
            "td_p99_ok": pa.array(np.abs(rc["le99"].to_numpy() / n - 0.99) <= 0.01),
        }
    )


QUERIES["value_quantiles_tdigest"] = q_value_quantiles_tdigest


# ---------------------------------------------------------------------------
# TPC-H Q6 shape: predicate-pushdown filtered aggregate — the filter travels
# to the parquet scan (only matching row groups are decoded)
# ---------------------------------------------------------------------------

def q_q6_forecast_revenue(sf_dir: str):
    import pyarrow.dataset as pads

    ds = _rp(
        sf_dir, "lineitem", ["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
        filter=(
            (pads.field("l_shipdate") >= pads.scalar(pa.scalar(np.datetime64("1996-01-01", "us"))))
            & (pads.field("l_shipdate") < pads.scalar(pa.scalar(np.datetime64("1997-01-01", "us"))))
            & (pads.field("l_discount") >= 0.03)
            & (pads.field("l_discount") <= 0.07)
            & (pads.field("l_quantity") < 25)
        ),
    )

    def rev(b: pa.Table) -> pa.Table:
        r = pc.sum(pc.multiply(b["l_extendedprice"], b["l_discount"]))
        return pa.table({"revenue": pa.array([r.as_py()], pa.float64())})

    # SUM over no rows is NULL, as in the oracle
    t = _fold(ds, rev, pa.schema({"revenue": pa.float64()}), _merge([], revenue="sum"))
    return _round_col(t, "revenue", 2)


_JACCARD_ORACLE = """
    WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS sh
          FROM w, UNNEST(generate_series(1, len(ws) - 2)) AS t(i)),
    gu AS (SELECT DISTINCT doc_id, sh FROM g),
    cnt AS (SELECT doc_id, COUNT(*) AS c FROM gu GROUP BY doc_id),
    inter AS (SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) AS i
              FROM gu a JOIN gu b ON a.sh = b.sh AND a.doc_id < b.doc_id
              GROUP BY 1, 2)
    SELECT da AS doc_a, db AS doc_b,
           i * 1.0 / (ca.c + cb.c - i) AS jaccard
    FROM inter
    JOIN cnt ca ON ca.doc_id = da JOIN cnt cb ON cb.doc_id = db
    WHERE i * 1.0 / (ca.c + cb.c - i) >= {thr}
"""

ORACLES["minhash_pairs"] = _JACCARD_ORACLE.format(thr=0.5)
ORACLES["simhash_pairs"] = _JACCARD_ORACLE.format(thr=0.8)


def q_neardup_clusters(sf_dir: str):
    """Fuzzy-dedup clustering: connected components over the VERIFIED
    minhash near-dup pairs (cluster_id = min doc id in the component) —
    the standard keep-one-per-cluster final step. Pairs are bounded
    (capped + logged) so the label propagation is driver-side by design; the
    oracle recomputes the same components with a recursive CTE."""
    from fastpasta_ray.functions.dedup import minhash_lsh_pairs, near_dup_clusters

    ds = _rp(sf_dir, "documents", ["doc_id", "text"], blocks=8)
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    return near_dup_clusters(_fold(pairs, None, pairs.schema)).sort_by([("doc_id", "ascending")])


# connected components via fixpoint label propagation: reach(id, root)
# holds every (node, node-that-reaches-it); MIN(root) per node = the
# component's minimum id (UNION — not UNION ALL — dedups, so the
# recursion terminates at the fixpoint). The pairs CTE is the
# _JACCARD_ORACLE at threshold 0.5 verbatim.
ORACLES["neardup_clusters"] = """
    WITH RECURSIVE
    w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS sh
          FROM w, UNNEST(generate_series(1, len(ws) - 2)) AS t(i)),
    gu AS (SELECT DISTINCT doc_id, sh FROM g),
    cnt AS (SELECT doc_id, COUNT(*) AS c FROM gu GROUP BY doc_id),
    inter AS (SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) AS i
              FROM gu a JOIN gu b ON a.sh = b.sh AND a.doc_id < b.doc_id
              GROUP BY 1, 2),
    pairs AS (SELECT da AS doc_a, db AS doc_b
              FROM inter
              JOIN cnt ca ON ca.doc_id = da JOIN cnt cb ON cb.doc_id = db
              WHERE i * 1.0 / (ca.c + cb.c - i) >= 0.5),
    edges AS (SELECT doc_a AS u, doc_b AS v FROM pairs
              UNION SELECT doc_b, doc_a FROM pairs),
    nodes AS (SELECT DISTINCT u AS id FROM edges),
    reach(id, root) AS (
        SELECT id, id FROM nodes
        UNION
        SELECT e.v, r.root FROM reach r JOIN edges e ON e.u = r.id
    )
    SELECT id AS doc_id, CAST(MIN(root) AS BIGINT) AS cluster_id
    FROM reach GROUP BY id ORDER BY doc_id
"""
QUERIES["neardup_clusters"] = q_neardup_clusters

ORACLES["lang_id"] = """
    WITH c AS (
        SELECT doc_id, lang,
            len(regexp_extract_all(text, '(?i)\\b(?:the|of|and|to|in|is|that|it|for|was)\\b')) AS c_en,
            len(regexp_extract_all(text, '(?i)\\b(?:der|die|und|das|ist|nicht|ein|mit|von|zu)\\b')) AS c_de,
            len(regexp_extract_all(text, '(?i)\\b(?:le|la|les|et|de|un|une|est|que|pour)\\b')) AS c_fr,
            len(regexp_extract_all(text, '(?i)\\b(?:el|la|los|las|y|de|un|una|es|que)\\b')) AS c_es,
            len(regexp_extract_all(text, '(?:的|是|了|在|我|有|和|不|人|这)')) AS c_zh
        FROM documents)
    SELECT doc_id, lang,
        CASE WHEN greatest(c_en, c_de, c_fr, c_es, c_zh) = 0 THEN 'unknown'
             WHEN c_en >= c_de AND c_en >= c_fr AND c_en >= c_es AND c_en >= c_zh THEN 'en'
             WHEN c_de >= c_fr AND c_de >= c_es AND c_de >= c_zh THEN 'de'
             WHEN c_fr >= c_es AND c_fr >= c_zh THEN 'fr'
             WHEN c_es >= c_zh THEN 'es'
             ELSE 'zh' END AS lang_pred
    FROM c
"""

ORACLES["hll_distinct_users"] = """
    SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS distinct_users_exact,
           TRUE AS hll_within_2pct
    FROM events
"""

ORACLES["value_quantiles_tdigest"] = """
    SELECT event_type,
           ROUND(quantile_cont(value, 0.50), 4) AS p50,
           ROUND(quantile_cont(value, 0.99), 4) AS p99,
           TRUE AS td_p50_ok,
           TRUE AS td_p99_ok
    FROM events GROUP BY event_type ORDER BY event_type
"""

ORACLES["ivf_similarity"] = ORACLES["similarity_top10"]

ORACLES["embedding_neardups"] = """
    SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
           ROUND(list_cosine_similarity(a.embedding, b.embedding), 4) AS cosine
    FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.95
"""

ORACLES["q6_forecast_revenue"] = """
    SELECT ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate < TIMESTAMP '1997-01-01'
      AND l_discount BETWEEN 0.03 AND 0.07
      AND l_quantity < 25
"""
QUERIES["q6_forecast_revenue"] = q_q6_forecast_revenue


# ---------------------------------------------------------------------------
# deterministic sampling: modulo variant so the oracle computes the SAME
# sample (the hash-based variant in functions/sampling.py is the production
# path; this one is SQL-checkable)
# ---------------------------------------------------------------------------

def q_deterministic_sample(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def keep(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False)
        f = b.filter(pa.array(did % 10 < 3))  # deterministic 30% sample
        return _agg(f, ["source"], n_sampled=([], "count_all"), chars_sampled=("n_chars", "sum"))

    schema = pa.schema({"source": pa.string(), "n_sampled": pa.int64(),
                        "chars_sampled": pa.int64()})
    return _fold(ds, keep, schema, _merge(["source"], n_sampled="sum", chars_sampled="sum"))


# ---------------------------------------------------------------------------
# RANGE-frame window aggregate + range join (operators Ray Data lacks;
# custom compositions per SURVEY §2 guidance) — both SQL-exact
# ---------------------------------------------------------------------------

def q_rolling_window_count(sf_dir: str):
    """Summary of the per-event trailing 5-minute same-user count (the
    RANGE window aggregate): total and max over all events."""
    from fastpasta_ray.functions.windows import rolling_count

    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id"])
    out = rolling_count(ds, window_seconds=300.0)
    t = _fold(out, None, out.schema)
    # SUM and MAX over no events are NULL, as in SQL
    return pa.table(
        {
            "n_events": pa.array([t.num_rows], type=pa.int64()),
            "total_in_window": pa.array([pc.sum(t["n_in_window"]).as_py()], type=pa.int64()),
            "max_in_window": pa.array([pc.max(t["n_in_window"]).as_py()], type=pa.int64()),
        }
    )


ORACLES["rolling_window_count"] = """
    WITH w AS (
        SELECT COUNT(*) OVER (PARTITION BY user_id ORDER BY ts
                              RANGE BETWEEN INTERVAL 300 SECOND PRECEDING
                                        AND CURRENT ROW) AS c
        FROM events
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(c) AS BIGINT) AS total_in_window,
           CAST(MAX(c) AS BIGINT) AS max_in_window
    FROM w
"""
QUERIES["rolling_window_count"] = q_rolling_window_count


def q_range_join_views_near_purchase(sf_dir: str):
    """Range join: per purchase, how many views by the same user within
    ±30 minutes — summarized as (n_purchases, total_matches, max_matches)."""
    from fastpasta_ray.functions.joins import range_join_count

    ev = _rp(sf_dir, "events", ["ts", "user_id", "event_type"])
    out = range_join_count(
        _event_side(ev, "purchase", ["ts", "user_id"]), _event_side(ev, "view", ["ts", "user_id"]),
        by="user_id", before_seconds=1800.0, after_seconds=1800.0,
    )
    t = _fold(out, None, out.schema)
    # SUM and MAX over no purchases are NULL, as in SQL
    return pa.table(
        {
            "n_purchases": pa.array([t.num_rows], type=pa.int64()),
            "total_matches": pa.array([pc.sum(t["n_matches"]).as_py()], type=pa.int64()),
            "max_matches": pa.array([pc.max(t["n_matches"]).as_py()], type=pa.int64()),
        }
    )


ORACLES["range_join_views_near_purchase"] = """
    WITH p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
         v AS (SELECT user_id, ts FROM events WHERE event_type = 'view'),
         j AS (
            SELECT p.user_id, p.ts,
                   (SELECT COUNT(*) FROM v
                    WHERE v.user_id = p.user_id
                      AND v.ts BETWEEN p.ts - INTERVAL 1800 SECOND
                                   AND p.ts + INTERVAL 1800 SECOND) AS c
            FROM p
         )
    SELECT CAST(COUNT(*) AS BIGINT) AS n_purchases,
           CAST(SUM(c) AS BIGINT) AS total_matches,
           CAST(MAX(c) AS BIGINT) AS max_matches
    FROM j
"""
QUERIES["range_join_views_near_purchase"] = q_range_join_views_near_purchase


# ---------------------------------------------------------------------------
# sequence packing (training-batch prep): NEXT-FIT bins over doc_id order,
# SQL-exact via a row-by-row recursive CTE
# ---------------------------------------------------------------------------

_PACK_CTX = 4096


def q_sequence_packing(sf_dir: str):
    """Next-fit packing of documents (by n_chars, doc_id order) into
    4096-char bins — summary (n_bins, total packed, max bin fill, max
    docs in one bin). Deterministic: bins are a pure function of row
    order, which the recursive-CTE oracle replays exactly."""
    from fastpasta_ray.functions.packing import pack_sequences

    ds = _rp(sf_dir, "documents", ["doc_id", "n_chars"], blocks=1)

    def ordered(b: pa.Table) -> pa.Table:
        # one block → one packing domain in doc_id order
        return b.sort_by("doc_id").append_column(
            "part", pa.array(["all"] * b.num_rows, type=pa.string())
        )

    packed = pack_sequences(ds.view(ordered, ds.schema.append(pa.field("part", pa.string()))),
                            context_len=_PACK_CTX, n_tok_col="n_chars")
    bins = _fold(packed, None, pa.schema({"total_tok": pa.int64(), "n_docs": pa.int64()}))
    return pa.table(
        {
            "n_bins": pa.array([bins.num_rows], type=pa.int64()),
            "total_packed": pa.array(
                [int(pc.sum(bins["total_tok"]).as_py() or 0)], type=pa.int64()
            ),
            "max_fill": pa.array(
                [int(pc.max(bins["total_tok"]).as_py() or 0)], type=pa.int64()
            ),
            "max_docs_per_bin": pa.array(
                [int(pc.max(bins["n_docs"]).as_py() or 0)], type=pa.int64()
            ),
        }
    )


ORACLES["sequence_packing"] = f"""
    WITH RECURSIVE o AS (
        SELECT doc_id, n_chars,
               ROW_NUMBER() OVER (ORDER BY doc_id) AS rn
        FROM documents
    ), r AS (
        SELECT rn, n_chars, 1 AS bin, n_chars AS fill FROM o WHERE rn = 1
        UNION ALL
        SELECT o.rn, o.n_chars,
               CASE WHEN r.fill + o.n_chars <= {_PACK_CTX}
                    THEN r.bin ELSE r.bin + 1 END,
               CASE WHEN r.fill + o.n_chars <= {_PACK_CTX}
                    THEN r.fill + o.n_chars ELSE o.n_chars END
        FROM r JOIN o ON o.rn = r.rn + 1
    )
    SELECT CAST(MAX(bin) AS BIGINT) AS n_bins,
           CAST(SUM(n_chars) AS BIGINT) AS total_packed,
           CAST((SELECT MAX(s) FROM (SELECT SUM(n_chars) AS s FROM r GROUP BY bin)) AS BIGINT) AS max_fill,
           CAST((SELECT MAX(c) FROM (SELECT COUNT(*) AS c FROM r GROUP BY bin)) AS BIGINT) AS max_docs_per_bin
    FROM r
"""
QUERIES["sequence_packing"] = q_sequence_packing


# ---------------------------------------------------------------------------
# Gopher-style per-document quality signals: within-doc repetition ratio
# (distinct-word count) and mean word length — both SQL-exact
# ---------------------------------------------------------------------------

def q_repetition(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    cols = ["doc_id", "n_words", "n_distinct_words", "rep_ratio"]
    return _fold(ds, lambda b: ftext.repetition_metrics(b).select(cols),
                 pa.schema({"doc_id": pa.int64(), "n_words": pa.int64(),
                            "n_distinct_words": pa.int64(), "rep_ratio": pa.float64()}))


ORACLES["repetition"] = """
    SELECT doc_id,
           CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words,
           CAST(len(list_distinct(string_split(text, ' '))) AS BIGINT) AS n_distinct_words,
           1.0 - len(list_distinct(string_split(text, ' ')))
               * 1.0 / len(string_split(text, ' ')) AS rep_ratio
    FROM documents
"""
QUERIES["repetition"] = q_repetition


def q_gopher_word_len_filter(sf_dir: str):
    """Docs failing the mean-word-length band [4.0, 4.9] (Gopher-style
    quality rule, band tuned to this corpus's 4.5±0.2 distribution so the
    filter is non-vacuous) — the predicate is SQL-exact on raw float64."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def flag(b: pa.Table) -> pa.Table:
        m = ftext.mean_word_length(b)
        mwl = m["mean_word_len"].to_numpy(zero_copy_only=False)
        keep = (mwl < 4.0) | (mwl > 4.9)
        return m.select(["doc_id", "mean_word_len"]).filter(pa.array(keep))

    return _fold(ds, flag, pa.schema({"doc_id": pa.int64(), "mean_word_len": pa.float64()}))


ORACLES["gopher_word_len_filter"] = """
    WITH m AS (
        SELECT doc_id,
               (LENGTH(text) - (len(string_split(text, ' ')) - 1))
                   * 1.0 / len(string_split(text, ' ')) AS mean_word_len
        FROM documents
    )
    SELECT doc_id, mean_word_len FROM m
    WHERE mean_word_len < 4.0 OR mean_word_len > 4.9
"""
QUERIES["gopher_word_len_filter"] = q_gopher_word_len_filter


ORACLES["deterministic_sample"] = """
    SELECT source, COUNT(*) AS n_sampled,
           CAST(SUM(n_chars) AS BIGINT) AS chars_sampled
    FROM documents WHERE doc_id % 10 < 3 GROUP BY source
"""
QUERIES["deterministic_sample"] = q_deterministic_sample


def _bench_side(bench: bool):
    """The decontamination queries' split: the deterministic doc_id % 101
    == 0 slice is the 'benchmark' (SQL-expressible), everything else is
    the corpus. A filter to one side of it."""

    def f(b: pa.Table) -> pa.Table:
        m = b["doc_id"].to_numpy(zero_copy_only=False) % 101 == 0
        return b.filter(pa.array(m if bench else ~m))

    return f


def _bench_split(ds: Blocks) -> tuple[Blocks, Blocks]:
    """(bench, corpus) views of one read (``_bench_side``): each side's
    filter runs inside the wave that reads it."""
    return ds.view(_bench_side(True)), ds.view(_bench_side(False))


_OVERLAP = pa.schema({"doc_id": pa.int64(), "n_overlap": pa.int64()})


def q_contamination_check(sf_dir: str):
    """Benchmark decontamination (GPT-3 appendix C-style n-gram overlap):
    the 'benchmark' is the deterministic doc_id % 101 == 0 slice of the
    corpus (SQL-expressible), the corpus is everything else; a corpus doc
    is flagged with its count of DISTINCT word-3-grams that also occur
    anywhere in the benchmark. One broadcast + one streaming pass — no
    shuffle (functions/decontam.py)."""
    from fastpasta_ray.functions.decontam import contamination_check

    bench, corpus = _bench_split(_rp(sf_dir, "documents", ["doc_id", "text"], blocks=8))
    out = contamination_check(corpus, bench, ngram_n=3)
    return _fold(out, None, _OVERLAP).sort_by("doc_id")


ORACLES["contamination_check"] = """
    WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS sh
          FROM w, UNNEST(generate_series(1, len(ws) - 2)) AS t(i)),
    gu AS (SELECT DISTINCT doc_id, sh FROM g),
    bench AS (SELECT DISTINCT sh FROM gu WHERE doc_id % 101 = 0),
    corpus AS (SELECT * FROM gu WHERE doc_id % 101 <> 0)
    SELECT c.doc_id, CAST(COUNT(*) AS BIGINT) AS n_overlap
    FROM corpus c JOIN bench b ON c.sh = b.sh
    GROUP BY c.doc_id ORDER BY c.doc_id
"""
QUERIES["contamination_check"] = q_contamination_check


def q_contamination_check_dist(sf_dir: str):
    """The SHUFFLE path of benchmark decontamination
    (contamination_check_distributed: hash-partitioned n-gram semi-join for
    corpus-sized benchmark sides) on the same inputs and with the same SQL
    oracle as the broadcast path — the 100-TB regime carries a correctness
    pin AND bench telemetry of its own (VERDICT r3 item 9)."""
    from fastpasta_ray.functions.decontam import contamination_check_distributed

    bench, corpus = _bench_split(_rp(sf_dir, "documents", ["doc_id", "text"], blocks=8))
    out = contamination_check_distributed(corpus, bench, ngram_n=3)
    return _fold(out, None, _OVERLAP).sort_by("doc_id")


ORACLES["contamination_check_dist"] = ORACLES["contamination_check"]
QUERIES["contamination_check_dist"] = q_contamination_check_dist


def q_mixture_sample(sf_dir: str):
    """Data-mixing: rebalance three sources to an exact 5:3:2 target mix
    with deterministic integer-math thresholds (functions/sampling.py
    mixture_sample, hash_keys=False so the SQL oracle replicates the
    doc_id % denom predicate exactly)."""
    from fastpasta_ray.functions.sampling import mixture_sample

    ds = _rp(sf_dir, "documents", ["doc_id", "source"])
    sampled, _thr = mixture_sample(
        ds,
        key_col="doc_id",
        stratum_col="source",
        weights={"src0": 5, "src1": 3, "src2": 2},
        denom=1000,
        hash_keys=False,
    )
    return _fold(sampled, lambda b: _agg(b, ["source"], n_sampled=([], "count_all")),
                 pa.schema({"source": pa.string(), "n_sampled": pa.int64()}),
                 _merge(["source"], n_sampled="sum"))


ORACLES["mixture_sample"] = """
    WITH cnt AS (SELECT source, COUNT(*) AS c FROM documents GROUP BY source),
    w(source, wt) AS (VALUES ('src0', 5), ('src1', 3), ('src2', 2)),
    j AS (SELECT w.source, wt, c FROM w JOIN cnt ON w.source = cnt.source),
    t AS (SELECT MIN(c * 10 // wt) AS tt FROM j),
    thr AS (SELECT source, (wt * tt * 1000) // (10 * c) AS th FROM j, t)
    SELECT d.source, COUNT(*) AS n_sampled
    FROM documents d JOIN thr ON d.source = thr.source
    WHERE d.doc_id % 1000 < thr.th
    GROUP BY d.source ORDER BY d.source
"""
QUERIES["mixture_sample"] = q_mixture_sample


def q_kmeans_assign(sf_dir: str):
    """Embedding clustering (data-curation step): assign every vector to
    its nearest cosine centroid. Centroids here are the embeddings of the
    8 smallest vec_ids — a deterministic, SQL-expressible init so the
    oracle can replicate assignment exactly (ties break to the lowest
    cluster index on both sides); production clustering uses
    functions/similarity.py kmeans_fit (distributed Lloyd's, tested in
    test_functions)."""
    from fastpasta_ray.functions.similarity import kmeans_assign

    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent = _seed_centroids(ds, 8)
    return _fold(kmeans_assign(ds, cent),
                 lambda b: _agg(b, ["cluster"], n_assigned=([], "count_all")),
                 pa.schema({"cluster": pa.int64(), "n_assigned": pa.int64()}),
                 _merge(["cluster"], n_assigned="sum"))


ORACLES["kmeans_assign"] = """
    WITH c AS (
        SELECT embedding, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
        FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 8)
    ),
    s AS (
        SELECT e.vec_id, c.cluster,
               list_cosine_similarity(e.embedding, c.embedding) AS sim
        FROM embeddings e CROSS JOIN c
    ),
    r AS (
        SELECT vec_id, cluster,
               ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY sim DESC, cluster ASC) AS rn
        FROM s
    )
    SELECT cluster, CAST(COUNT(*) AS BIGINT) AS n_assigned
    FROM r WHERE rn = 1 GROUP BY cluster ORDER BY cluster
"""
QUERIES["kmeans_assign"] = q_kmeans_assign


def q_quantile_filter(sf_dir: str):
    """Quantile-threshold selection (the 'keep the top decile' curation
    step) in ONE pass: each batch emits its (source, n_chars) counts, the
    driver merges them, takes the exact global p90 of n_chars from the
    merged IntHistogram and sums each source's counts at or above it (no
    sort, no shuffle, no second read). IntHistogram.quantile uses the same
    discrete (lower-interpolation) semantics as DuckDB quantile_disc, so
    the oracle is value-exact."""
    from fastpasta_ray.sketches import IntHistogram

    ds = _rp(sf_dir, "documents", ["source", "n_chars"])
    keys = ["source", "n_chars"]

    def select(t: pa.Table) -> pa.Table:
        # quantile_disc and the >= filter both skip NULL n_chars
        t = t.filter(pc.is_valid(t["n_chars"]))
        by_len = _merge(["n_chars"], n="sum")(t)
        thr = IntHistogram(
            dict(zip(by_len["n_chars"].to_pylist(), by_len["n"].to_pylist()))
        ).quantile(0.9)
        kept = _merge(["source"], n="sum")(t.filter(pc.greater_equal(t["n_chars"], thr)))
        return pa.table({"source": kept["source"], "n_kept": kept["n"],
                         "threshold": pa.array([thr] * kept.num_rows, type=pa.int64())})

    schema = pa.schema({"source": pa.string(), "n_chars": pa.int64(), "n": pa.int64()})
    return _fold(ds, lambda b: _agg(b, keys, n=([], "count_all")), schema, select)


ORACLES["quantile_filter"] = """
    WITH thr AS (SELECT quantile_disc(n_chars, 0.9) AS t FROM documents)
    SELECT source, CAST(COUNT(*) AS BIGINT) AS n_kept,
           CAST(thr.t AS BIGINT) AS threshold
    FROM documents, thr WHERE n_chars >= thr.t
    GROUP BY source, thr.t ORDER BY source
"""
QUERIES["quantile_filter"] = q_quantile_filter


def q_unigram_logprob(sf_dir: str):
    """Unigram LM quality score (CCNet-style model-free perplexity proxy):
    corpus word-frequency table (per-block value_counts partials → one
    (word, count) hash exchange), broadcast once via ray.put, then one
    scoring wave computing each doc's mean log P(word). The filtering step
    every LM data pipeline runs before training; exact SQL oracle."""
    from fastpasta_ray.functions.text import (
        unigram_logprob_score,
        unigram_logprob_table,
    )

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    vocab, logp, oov = unigram_logprob_table(ds, "text")
    return _fold(unigram_logprob_score(ds, vocab, logp, oov), None,
                 pa.schema({"doc_id": pa.int64(), "logprob": pa.float64()}))


ORACLES["unigram_logprob"] = """
    WITH words AS (
        SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents
    ), freq AS (
        SELECT w, COUNT(*) AS c FROM words GROUP BY w
    ), tot AS (
        SELECT CAST(SUM(c) AS DOUBLE) AS n FROM freq
    )
    SELECT words.doc_id,
           ROUND(SUM(LN(freq.c / tot.n)) / COUNT(*), 4) AS logprob
    FROM words JOIN freq ON words.w = freq.w CROSS JOIN tot
    GROUP BY words.doc_id
"""
QUERIES["unigram_logprob"] = q_unigram_logprob


def q_semantic_dedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): embedding-cluster near-dup removal —
    the semantic-dedup curation step. Deterministic 8-seed centroids (the
    kmeans_assign convention) so the SQL oracle replicates the cluster
    assignment; returns the dropped (cluster, vec_id) rows."""
    from fastpasta_ray.functions.similarity import semantic_dedup

    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent = _seed_centroids(ds, 8)
    t = _fold(semantic_dedup(ds, cent, threshold=0.4), None,
              pa.schema({"cluster": pa.int64(), "vec_id": pa.int64()}))
    return t.sort_by([("cluster", "ascending"), ("vec_id", "ascending")])


ORACLES["semantic_dedup"] = """
    WITH c AS (
        SELECT embedding, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
        FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 8)
    ),
    s AS (
        -- DOUBLE[] casts: compute cosine in float64 like the engine (the
        -- float32 kernel can straddle the threshold by an ulp)
        SELECT e.vec_id, CAST(e.embedding AS DOUBLE[]) AS embedding, c.cluster,
               list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                      CAST(c.embedding AS DOUBLE[])) AS sim
        FROM embeddings e CROSS JOIN c
    ),
    a AS (
        SELECT vec_id, embedding, cluster,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY sim DESC, cluster ASC) AS rn
        FROM s
    )
    SELECT b.cluster, b.vec_id
    FROM (SELECT * FROM a WHERE rn = 1) b
    JOIN (SELECT * FROM a WHERE rn = 1) lo
      ON lo.cluster = b.cluster AND lo.vec_id < b.vec_id
    WHERE list_cosine_similarity(lo.embedding, b.embedding) >= 0.4
    GROUP BY b.cluster, b.vec_id
    ORDER BY b.cluster, b.vec_id
"""
QUERIES["semantic_dedup"] = q_semantic_dedup


def q_embedding_stats(sf_dir: str):
    """Embedding-table validation (the north-star column-stats pass applied
    to the vector modality): row count, NULL rows, dim min/max (ragged-dim
    detection), NaN-poisoned row count, norm min/max (catches un-normalized
    or zero vectors). A validation query must SURVIVE the defects it
    reports (code-review r4): null rows are counted (not crashed on), dim
    and norm stats cover the non-null rows, NaN rows are excluded from the
    norm bounds. One streaming pass of per-batch partials, driver merge —
    the mergeable-sketch pattern, no shuffle."""
    from fastpasta_ray.functions.similarity import _emb_matrix

    ds = _rp(sf_dir, "embeddings", ["embedding"])
    how = {"n_vecs": "sum", "n_null": "sum", "min_dim": "min", "max_dim": "max",
           "n_nan": "sum", "min_norm": "min", "max_norm": "max"}
    schema = pa.schema({c: pa.float64() if c.endswith("_norm") else pa.int64() for c in how})

    def partial(b: pa.Table) -> pa.Table:
        def row(*vals):
            return pa.table([pa.array([v], f.type) for v, f in zip(vals, schema)], schema=schema)

        if b.num_rows == 0:
            return row(0, 0, None, None, 0, None, None)
        col = one_chunk(b["embedding"])
        n_null = int(col.null_count)
        sub = b.filter(pc.is_valid(col)) if n_null else b
        if sub.num_rows == 0:  # all-null batch: still a valid partial
            return row(b.num_rows, n_null, None, None, 0, None, None)
        lens = pc.list_value_length(sub["embedding"]).to_numpy(zero_copy_only=False)
        # uniform fast path needs equal AND non-zero dims (reshape(n, -1)
        # cannot infer a axis from a size-0 flat array)
        uniform = bool((lens == lens[0]).all()) and int(lens[0]) > 0
        m = _emb_matrix(sub, "embedding") if uniform else None
        if m is not None:
            nan_rows = np.isnan(m).any(axis=1)
            norms = np.sqrt(np.einsum("ij,ij->i", m, m))
        else:  # ragged/zero dims: per-row fallback (violation case, rare)
            flat = one_chunk(one_chunk(sub["embedding"]).flatten()).to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            offs = np.zeros(len(lens) + 1, dtype=np.int64)
            np.cumsum(lens, out=offs[1:])
            cs = np.zeros(len(flat) + 1); np.cumsum(np.square(flat), out=cs[1:])
            norms = np.sqrt(cs[offs[1:]] - cs[offs[:-1]])
            nan_cs = np.zeros(len(flat) + 1); np.cumsum(np.isnan(flat), out=nan_cs[1:])
            nan_rows = (nan_cs[offs[1:]] - nan_cs[offs[:-1]]) > 0
        ok = ~nan_rows
        return row(
            b.num_rows,
            n_null,
            int(lens.min()),
            int(lens.max()),
            int(nan_rows.sum()),
            float(norms[ok].min()) if ok.any() else None,
            float(norms[ok].max()) if ok.any() else None,
        )

    t = _fold(ds, partial, schema, _merge([], **how))
    return _round_col(_round_col(t, "min_norm", 4), "max_norm", 4)


ORACLES["embedding_stats"] = """
    SELECT CAST(COUNT(*) AS BIGINT) AS n_vecs,
           CAST(SUM(CASE WHEN embedding IS NULL THEN 1 ELSE 0 END) AS BIGINT)
               AS n_null,
           CAST(MIN(len(embedding)) AS BIGINT) AS min_dim,
           CAST(MAX(len(embedding)) AS BIGINT) AS max_dim,
           CAST(SUM(CASE WHEN embedding IS NOT NULL
                          AND isnan(list_aggregate(CAST(embedding AS DOUBLE[]), 'sum'))
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_nan,
           ROUND(MIN(CASE WHEN embedding IS NULL
                            OR isnan(list_aggregate(CAST(embedding AS DOUBLE[]), 'sum'))
                          THEN NULL ELSE sqrt(list_dot_product(
                              CAST(embedding AS DOUBLE[]),
                              CAST(embedding AS DOUBLE[]))) END), 4) AS min_norm,
           ROUND(MAX(CASE WHEN embedding IS NULL
                            OR isnan(list_aggregate(CAST(embedding AS DOUBLE[]), 'sum'))
                          THEN NULL ELSE sqrt(list_dot_product(
                              CAST(embedding AS DOUBLE[]),
                              CAST(embedding AS DOUBLE[]))) END), 4) AS max_norm
    FROM embeddings
"""
QUERIES["embedding_stats"] = q_embedding_stats


def q_curation_pipeline(sf_dir: str):
    """End-to-end curation composition — the shape of a real pre-training
    data pass, chained over ONE read: Gopher-style quality gate (length >=
    200 chars, mean word length in [3, 12]) → exact-dedup keep-first (hash
    exchange on the fingerprint) → per-source kept counts. Each stage is an
    existing operator; the point of the query is that they compose without
    materializing between stages (the gate runs inside the exchange's map
    tasks)."""
    from fastpasta_ray.functions.dedup import drop_exact_dups
    from fastpasta_ray.functions.text import mean_word_length

    ds = _rp(sf_dir, "documents", ["doc_id", "text", "source", "n_chars"])

    def gate(b: pa.Table) -> pa.Table:
        b = mean_word_length(b)
        mwl = b["mean_word_len"]
        keep = pc.and_(
            pc.greater_equal(b["n_chars"], 200),
            pc.and_(pc.greater_equal(mwl, 3.0), pc.less_equal(mwl, 12.0)),
        )
        return b.filter(keep).drop_columns(["mean_word_len"])

    kept = drop_exact_dups(ds.view(gate))
    return _fold(kept, lambda b: _agg(b, ["source"], n_kept=([], "count_all")),
                 pa.schema({"source": pa.string(), "n_kept": pa.int64()}),
                 _merge(["source"], n_kept="sum"))


ORACLES["curation_pipeline"] = """
    WITH f AS (
        SELECT *,
               (LENGTH(text) - (len(string_split(text, ' ')) - 1))
                   / len(string_split(text, ' ')) AS mwl
        FROM documents
        WHERE n_chars >= 200
    ),
    g AS (SELECT * FROM f WHERE mwl >= 3.0 AND mwl <= 12.0),
    d AS (
        SELECT *, ROW_NUMBER() OVER (PARTITION BY text ORDER BY doc_id) AS rn
        FROM g
    )
    SELECT source, CAST(COUNT(*) AS BIGINT) AS n_kept
    FROM d WHERE rn = 1 GROUP BY source ORDER BY source
"""
QUERIES["curation_pipeline"] = q_curation_pipeline


def q_budget_trim(sf_dir: str):
    """Per-source data-budget curation: keep documents in deterministic
    (doc_id) order until each source's cumulative n_chars budget is
    reached — the 'sample N tokens per domain' step of corpus assembly.

    Scale shape (VERDICT r4: the giant-source pre-trim was documented
    advice only): a per-block EXACT pre-trim keeps, per (block, source) in
    doc_id order, the docs whose block-local prefix sum is <= budget PLUS
    the FIRST overflow doc. Exactness: (a) docs with doc_id below the
    block's overflow point contribute exactly (all smaller-id block docs
    survive); (b) once a block prefix exceeds the budget at doc d, every
    doc anywhere with doc_id > d has global prefix > budget — and keeping
    d preserves that evidence in the final cumsum (kept_block + nch(d) >
    budget), so the per-source trim classifies every survivor exactly. (The
    first r5 draft dropped d too, which removed its n_chars from later
    docs' cumsum and over-kept docs past the budget — caught by the r5
    code review reproducing an oracle mismatch at sf0.1, where documents
    span multiple blocks.) The hash exchange on the source then moves
    <= budget/min_n_chars + 1 docs per source per block instead of the
    whole source; inside a reduce task it's the same sort + cumsum per
    source."""
    budget = 5_000

    ds = _rp(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def by_source(b: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(row order by (source, doc_id), a mask of each source run's
        first row in that order) of a table with rows."""
        codes, _ = group_codes(b["source"], include_null=True)
        order = np.lexsort((b["doc_id"].to_numpy(zero_copy_only=False), codes))
        cs = codes[order]
        return order, np.r_[True, cs[1:] != cs[:-1]]

    def pretrim(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return b
        order, run_start = by_source(b)
        ns = b["n_chars"].to_numpy(zero_copy_only=False)[order]
        starts = np.flatnonzero(run_start)
        cum = np.cumsum(ns)
        base = np.repeat(cum[starts] - ns[starts], np.diff(np.r_[starts, len(ns)]))
        keep = (cum - base) <= budget
        # first overflow doc per source run: its presence keeps the final
        # cumsum over the budget for every later doc_id (see docstring)
        prev_keep = np.r_[True, keep[:-1]]
        keep |= ~keep & (run_start | prev_keep)
        return b.take(pa.array(np.sort(order[keep])))

    schema = pa.schema({"source": pa.string(), "n_docs": pa.int64(), "n_chars_kept": pa.int64()})

    def trim(g: pa.Table) -> pa.Table:
        # every pre-trimmed doc of a source lands in one reduce task, which
        # may hold several sources: the budget cut per source run
        if not g.num_rows:
            return schema.empty_table()
        order, run_start = by_source(g)
        starts = np.flatnonzero(run_start)
        runs = np.split(g["n_chars"].to_numpy(zero_copy_only=False)[order], starts[1:])
        n = [int((np.cumsum(r) <= budget).sum()) for r in runs]
        t = pa.table(
            {
                "source": g["source"].take(order[starts]),
                "n_docs": pa.array(n, pa.int64()),
                "n_chars_kept": pa.array([int(r[:k].sum()) for r, k in zip(runs, n)], pa.int64()),
            }
        )
        # a source whose first doc is over budget keeps nothing: no row,
        # as the oracle's GROUP BY over the kept docs
        return t.filter(pc.greater(t["n_docs"], 0))

    out = hash_exchange(ds.view(pretrim), "source", trim)
    return _fold(out, None, schema).sort_by([("source", "ascending")])


ORACLES["budget_trim"] = """
    WITH c AS (
        SELECT source, n_chars,
               SUM(n_chars) OVER (PARTITION BY source ORDER BY doc_id) AS cum
        FROM documents
    )
    SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(n_chars) AS BIGINT) AS n_chars_kept
    FROM c WHERE cum <= 5000
    GROUP BY source ORDER BY source
"""
QUERIES["budget_trim"] = q_budget_trim


def q_top_docs_per_source(sf_dir: str):
    """Grouped top-k (top 3 docs by n_chars per source) — the per-domain
    'best documents' selection. Scale shape: each batch emits its own
    per-source top-3 partial (no shuffle of full rows), and the same top-3
    reduces the tiny (3 × sources × blocks) candidate set on the driver.
    Ties break to the lowest doc_id, mirrored in the oracle."""
    ds = _rp(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    top = _top(3, [("n_chars", "descending"), ("doc_id", "ascending")], group="source")
    schema = pa.schema({"doc_id": pa.int64(), "source": pa.string(), "n_chars": pa.int64()})
    return _fold(ds, top, schema, top)


ORACLES["top_docs_per_source"] = """
    SELECT source, doc_id, n_chars FROM (
        SELECT source, doc_id, n_chars,
               ROW_NUMBER() OVER (PARTITION BY source
                                  ORDER BY n_chars DESC, doc_id) AS rn
        FROM documents
    ) WHERE rn <= 3
    ORDER BY source, n_chars DESC, doc_id
"""
QUERIES["top_docs_per_source"] = q_top_docs_per_source


# ---------------------------------------------------------------------------
# Multimodal plumbing CORRECTNESS pin (VERDICT r4 #3): the media path —
# binary payload column + typed metadata + decode stages — gets a
# hard-signal oracle. The media table is derived DETERMINISTICALLY from
# documents (payload = UTF-8 text bytes, width/height from doc_id) so the
# DuckDB oracle can replicate the fake-decode stats byte for byte: the
# corpus is ASCII (strlen == length for every sf dir, asserted in
# TESTDATA-derived checks), so SQL codepoints equal payload bytes.
# ---------------------------------------------------------------------------

def q_media_stats(sf_dir: str):
    """Fake-media decode stats: per media, ImageDecoder's pixels/mean/std
    (fake decode = byte stats of the payload;
    fastpasta_ray/functions/multimodal.py) and VideoFrameSampler's
    sampled-frame count (payload seen as a stream of w×h-byte frames,
    every 10th kept).

    Scale shape: one read and one wave of raw tasks that run both decoders
    on the same 64-row slice, so each media's frames are counted beside its
    own row — no second pass, no join, and nothing assumed about block
    boundaries. The fake decoders have no codec setup for an actor pool to
    amortize (fixed pools held the only CPU of a 1-CPU cluster); the small
    slices bound payload × batch in worker memory."""
    from fastpasta_ray.functions.multimodal import ImageDecoder, VideoFrameSampler

    def decode(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False)
        media = pa.table(
            {
                "media_id": pc.cast(b["doc_id"], pa.string()),
                "payload": pc.cast(b["text"], pa.binary()),  # zero-copy utf8→binary
                "media_type": pa.array(["image/png"] * len(did), type=pa.string()),
                "width": pa.array((did % 5 + 2).astype(np.int32)),
                "height": pa.array((did % 3 + 2).astype(np.int32)),
                "sample_rate": pa.array(np.zeros(len(did), dtype=np.int32)),
            }
        )
        frames = VideoFrameSampler(every_n=10)(media)
        # each frame row names a media of this batch; a payload shorter
        # than w*h has no frame and counts 0
        pos = pc.index_in(frames["media_id"], value_set=one_chunk(media["media_id"]))
        n = np.bincount(pos.to_numpy(zero_copy_only=False), minlength=len(did))
        return ImageDecoder()(media).append_column("n_frames", pa.array(n, type=pa.int64()))

    schema = pa.schema({"media_id": pa.string(), "pixels": pa.int64(), "mean_value": pa.float64(),
                        "std_value": pa.float64(), "n_frames": pa.int64()})

    def decode_block(b: pa.Table) -> pa.Table:
        # 64-row slices bound payload × batch in worker memory
        return pa.concat_tables([schema.empty_table()] + [
            decode(b.slice(i, 64)) for i in range(0, b.num_rows, 64)])

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return _fold(ds, decode_block, schema).sort_by("media_id")


# byte stats in SQL: the corpus is ASCII, so ascii(char) == payload byte.
# SUM/SUM-of-squares over <=558 bytes are exact in float64, so the mean is
# bit-identical to numpy's and the variance formula agrees with np.std to
# ~1e-12 — far inside the 4-decimal rounding granularity. round_even (NOT
# ROUND): power-of-two text lengths make means binary-EXACT half ties
# (93.90625 at len 512), where numpy's half-even and SQL's half-away split.
ORACLES["media_stats"] = """
    WITH m AS (
        SELECT CAST(doc_id AS VARCHAR) AS media_id,
               (doc_id % 5 + 2) AS w, (doc_id % 3 + 2) AS h,
               text, strlen(text) AS nbytes
        FROM documents
    ), b AS (
        SELECT media_id, ascii(substring(text, CAST(u.i AS INT), 1)) AS byte
        FROM m, unnest(range(1, CAST(length(text) AS BIGINT) + 1)) AS u(i)
    ), s AS (
        SELECT media_id, COUNT(*) AS n, SUM(byte) AS sm,
               SUM(byte * byte) AS sq
        FROM b GROUP BY media_id
    )
    SELECT m.media_id,
           CAST(m.w * m.h AS BIGINT) AS pixels,
           round_even(sm * 1.0 / n, 4) AS mean_value,
           round_even(sqrt((sq * 1.0 - sm * 1.0 * sm / n) / n), 4) AS std_value,
           CAST((m.nbytes // (m.w * m.h) + 9) // 10 AS BIGINT) AS n_frames
    FROM m JOIN s USING (media_id)
    ORDER BY media_id
"""
QUERIES["media_stats"] = q_media_stats


# ---------------------------------------------------------------------------
# Decontamination DROP side: functions/decontam.decontaminate (previously
# CLI/test-covered only) gets its own hard-signal oracle — the cleaned
# corpus per source, i.e. what a training run would actually consume.
# ---------------------------------------------------------------------------

def q_decontam_clean_count(sf_dir: str):
    """Per-source surviving-document counts after dropping every corpus doc
    with >= 1 word-3-gram shared with the benchmark slice (doc_id % 101 ==
    0, the contamination_check convention). One read of ``documents``,
    then two raw-task waves over its blocks: the benchmark n-gram set, and
    split + drop + per-block (source, count) partials in one task each
    (tiny: sources x blocks rows, folded driver-side)."""
    from fastpasta_ray.functions.decontam import decontaminate

    docs = _rp(sf_dir, "documents", ["doc_id", "source", "text"], blocks=8)
    clean = decontaminate(docs.view(_bench_side(False)), docs.view(_bench_side(True)), ngram_n=3)
    return _fold(clean, lambda b: _agg(b, ["source"], n_clean=([], "count_all")),
                 pa.schema({"source": pa.string(), "n_clean": pa.int64()}),
                 _merge(["source"], n_clean="sum"))


ORACLES["decontam_clean_count"] = """
    WITH w AS (SELECT doc_id, source, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS sh
          FROM w, UNNEST(generate_series(1, len(ws) - 2)) AS t(i)),
    gu AS (SELECT DISTINCT doc_id, sh FROM g),
    bench AS (SELECT DISTINCT sh FROM gu WHERE doc_id % 101 = 0),
    dirty AS (SELECT DISTINCT c.doc_id
              FROM gu c JOIN bench b ON c.sh = b.sh
              WHERE c.doc_id % 101 <> 0)
    SELECT d.source, CAST(COUNT(*) AS BIGINT) AS n_clean
    FROM documents d
    WHERE d.doc_id % 101 <> 0 AND d.doc_id NOT IN (SELECT doc_id FROM dirty)
    GROUP BY d.source ORDER BY d.source
"""
QUERIES["decontam_clean_count"] = q_decontam_clean_count


# ---------------------------------------------------------------------------
# TPC-H Q12 shape (priority-split line counts per return flag) — the
# conditional-count join workload. Broadcast-probe plan like Q3: orders'
# (orderkey -> is_high_priority) is the broadcast side; at corpus scale
# where orders outgrows the broadcast envelope this becomes the R8 shuffle
# join (q_lines_per_orderpriority demonstrates that plan).
# ---------------------------------------------------------------------------

def q12_priority_lines(sf_dir: str):
    orders = _fold(_rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]), None,
                   pa.schema({"o_orderkey": pa.int64(), "o_orderpriority": pa.string()}))
    ok = orders["o_orderkey"].to_numpy()
    hi = pc.is_in(
        orders["o_orderpriority"], value_set=pa.array(["1-URGENT", "2-HIGH"])
    ).to_numpy(zero_copy_only=False)
    order = np.argsort(ok)
    lookup = ray.put((ok[order], hi[order]))

    lo_us = np.datetime64("1996-01-01", "us").astype(np.int64)
    hi_us = np.datetime64("1997-01-01", "us").astype(np.int64)

    def partial(b: pa.Table) -> pa.Table:
        keys, is_hi = ray.get(lookup)  # zero-copy plasma read per task
        sd = b["l_shipdate"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        m = (sd >= lo_us) & (sd < hi_us)
        b = b.filter(pa.array(m))
        pos, hit = _probe(keys, b["l_orderkey"])
        line_hi = is_hi[pos[hit]]
        t = pa.table({"l_returnflag": b["l_returnflag"].filter(pa.array(hit)),
                      "high": line_hi.astype(np.int64), "low": (~line_hi).astype(np.int64)})
        return _agg(t, ["l_returnflag"], high_line_count=("high", "sum"),
                    low_line_count=("low", "sum"))

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_shipdate"])
    schema = pa.schema({"l_returnflag": pa.string(), "high_line_count": pa.int64(),
                        "low_line_count": pa.int64()})
    return _fold(li, partial, schema,
                 _merge(["l_returnflag"], high_line_count="sum", low_line_count="sum"))


ORACLES["q12_priority_lines"] = """
    SELECT l_returnflag,
           CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                         THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
           CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                         THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
    GROUP BY l_returnflag ORDER BY l_returnflag
"""
QUERIES["q12_priority_lines"] = q12_priority_lines
