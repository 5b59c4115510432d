"""Query pipelines over the driver testdata tables + their DuckDB oracles.

Each ``q_*`` function takes ``sf_dir`` and returns a Dataset / pyarrow
Table whose column NAMES and VALUES match the oracle SQL in ``ORACLES``
(the driver hash-compares after sorting columns by name). Floating
aggregates are rounded identically on both sides.

These exercise the engine's operator inventory (SURVEY.md §2) on generic
tables: grouped aggregates (G1/G3), distinct (G2), constraint predicates
(C-analogs), dup detection (O4), referential anti-join (G6/A4), running
order checks (R1), windowed aggregates, joins, dedup and text operators.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.aggregate import Count, Max, Min, Sum

from fastpasta_ray.functions import text as ftext
from fastpasta_ray.sketches import one_chunk


def _rp(sf_dir: str, table: str, columns=None, blocks: int | None = None):
    """Column-pruned read with SIZE-AWARE block parallelism.

    Ray's default block count (~2× CPUs regardless of input size) costs
    seconds of per-block overhead in downstream sorts/groupbys on small
    tables (measured: asof over 5 MB of events, 2.8 s at default blocks vs
    0.5 s at 2 blocks). Default here: one block per ~75k rows, at least 2 —
    small tables stay cheap, big tables still fan out. Compute-heavy
    callers pass ``blocks`` explicitly. Every count, default or explicit,
    is capped at 2× the cluster's CPUs: beyond that a block is one more
    queued task, not more parallelism (blocks=32 keeps its 32 tasks on 16+
    CPUs, and reads 500 documents as 2 blocks, not 32, on 1 CPU)."""
    path = os.path.join(sf_dir, f"{table}.parquet")
    if blocks is None:
        try:
            import pyarrow.parquet as _pq

            rows = _pq.ParquetFile(path).metadata.num_rows
        except Exception:
            rows = 0
        # ~75k rows per block (sweep: lineitem 600k rows is fastest at 8
        # blocks; 2 blocks pays serial sort, 64 blocks pays per-block
        # shuffle overhead — 5 MB of events at default blocking cost 2.3 s
        # of pure overhead in asof/sessionize)
        blocks = max(2, rows // 75_000 + 1)
    from fastpasta_ray.sources.parquet import cluster_cpus

    blocks = int(min(blocks, 2 * cluster_cpus()))
    return ray.data.read_parquet(
        path, columns=columns, override_num_blocks=blocks
    )


def _to_table(ds) -> pa.Table:
    ts = [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)]
    ts = [t for t in ts if t.num_rows]
    return pa.concat_tables(ts) if ts else None


def _round_col(t: pa.Table, col: str, nd: int = 2) -> pa.Table:
    i = t.column_names.index(col)
    return t.set_column(i, col, pc.round(t[col], ndigits=nd))


def _seed_centroids(ds, k: int = 8) -> np.ndarray:
    """Embeddings of the k smallest vec_ids as float64 centroids, via
    per-batch min-k partials + a driver reduce over ≤ k×blocks rows
    (VERDICT r4 #2: ``ds.sort("vec_id").limit(k)`` ran a full global sort
    shuffle for k rows — the same partial-reduce shape as
    q_top_docs_per_source, no shuffle at any corpus size)."""

    def partial(b: pa.Table) -> pa.Table:
        v = b["vec_id"].to_numpy(zero_copy_only=False)
        if len(v) > k:
            b = b.take(pa.array(np.sort(np.argpartition(v, k)[:k])))
        return b

    parts = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    vid = parts["vec_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(vid, kind="stable")[:k]
    emb = parts["embedding"].take(pa.array(order)).to_pylist()
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

    def partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        t = b.append_column("revenue", rev)
        g = t.group_by(keys).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"), ("revenue", "sum"), ("revenue", "count")]
        )
        return g.rename_columns(keys + ["q_part", "bp_part", "dp_part", "n_part"])

    # driver fold: one Arrow group_by over the ≤6-rows-per-batch partials;
    # a Dataset groupby here paid an all-to-all shuffle for those few rows
    parts = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    t = parts.group_by(keys).aggregate(
        [("q_part", "sum"), ("bp_part", "sum"), ("dp_part", "sum"), ("n_part", "sum")]
    )
    t = t.rename_columns(keys + ["sum_qty", "sum_base_price", "sum_disc_price", "count_order"])
    t = t.set_column(
        t.column_names.index("count_order"), "count_order",
        pc.cast(t["count_order"], pa.int64()),
    )
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        t = _round_col(t, c, 2)
    return t


# ---------------------------------------------------------------------------
# G3: histogram / per-source grouped stats
# ---------------------------------------------------------------------------

def q_source_histogram(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["source", "n_chars"])
    return ds.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"),
        Min("n_chars", alias_name="min_chars"),
        Max("n_chars", alias_name="max_chars"),
    )


# ---------------------------------------------------------------------------
# G2: exact distinct over small domains — per-batch partial distinct sets
# merged on the driver (the reference's dedup-on-insert, but mergeable).
# ---------------------------------------------------------------------------

def q_distinct_counts(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["lang", "source"])

    def partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "langs": pa.array([pc.unique(b["lang"]).to_pylist()]),
                "sources": pa.array([pc.unique(b["source"]).to_pylist()]),
            }
        )

    parts = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    langs, sources = set(), set()
    for ls in parts["langs"].to_pylist():
        langs.update(ls)
    for ss in parts["sources"].to_pylist():
        sources.update(ss)
    return pa.table(
        {
            "n_langs": pa.array([len(langs)], type=pa.int64()),
            "n_sources": pa.array([len(sources)], type=pa.int64()),
        }
    )


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

    t = _to_table(ds.map_batches(bad, batch_format="pyarrow"))
    if t is None:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "code": pa.array([], type=pa.string()),
                "actual_len": pa.array([], type=pa.int64()),
                "expected_len": pa.array([], type=pa.int64()),
            }
        )
    return t


LANG_DOMAIN = ("en", "de", "fr", "es", "zh")


def q_constraint_lang_domain(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "lang"])

    def bad(b: pa.Table) -> pa.Table:
        ok = pc.is_in(b["lang"], value_set=pa.array(list(LANG_DOMAIN)))
        f = b.filter(pc.invert(pc.fill_null(ok, False)))
        return pa.table({"doc_id": f["doc_id"], "lang": f["lang"]})

    t = _to_table(ds.map_batches(bad, batch_format="pyarrow"))
    if t is None:
        return pa.table(
            {"doc_id": pa.array([], type=pa.int64()), "lang": pa.array([], type=pa.string())}
        )
    return t


# ---------------------------------------------------------------------------
# O4: duplicate detection via groupby count
# ---------------------------------------------------------------------------

def q_dup_doc_id(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id"])
    agg = ds.groupby("doc_id").aggregate(Count(alias_name="n"))
    t = _to_table(
        agg.map_batches(
            lambda b: b.filter(pc.greater(b["n"], 1)), batch_format="pyarrow"
        )
    )
    if t is None:
        return pa.table(
            {"doc_id": pa.array([], type=pa.int64()), "n": pa.array([], type=pa.int64())}
        )
    return t


# ---------------------------------------------------------------------------
# G6/A4: referential anti-join — broadcast small side via ray.put, probed
# inside map_batches (no shuffle of the big side).
# ---------------------------------------------------------------------------

def q_customers_without_orders(sf_dir: str):
    custkeys = ray.put(
        np.unique(
            _to_table(_rp(sf_dir, "orders", ["o_custkey"]))["o_custkey"].to_numpy()
        )
    )

    # a task-pool function, not an actor pool: a fixed pool holds its CPUs
    # for the whole stage and starved the read on a 1-CPU cluster
    def anti_join(b: pa.Table) -> pa.Table:
        keys = ray.get(custkeys)  # zero-copy plasma read per task
        ck = b["c_custkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, ck), 0, len(keys) - 1)
        return b.filter(pa.array(keys[pos] != ck))

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name"])
    t = _to_table(ds.map_batches(anti_join, batch_format="pyarrow"))
    if t is None:
        return pa.table(
            {"c_custkey": pa.array([], type=pa.int64()), "c_name": pa.array([], type=pa.string())}
        )
    return t


# ---------------------------------------------------------------------------
# broadcast dimension join + grouped aggregate (G6 lookup-join shape)
# ---------------------------------------------------------------------------

def q_orders_by_segment(sf_dir: str):
    cust = _to_table(_rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    custkeys = cust["c_custkey"].to_numpy()
    order = np.argsort(custkeys)
    lookup_ref = ray.put(
        (custkeys[order], np.asarray(cust["c_mktsegment"].to_pylist(), dtype=object)[order])
    )

    # task-pool function (see q_customers_without_orders)
    def seg_join(b: pa.Table) -> pa.Table:
        keys, segs = ray.get(lookup_ref)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, ck), 0, len(keys) - 1)
        seg = np.where(keys[pos] == ck, segs[pos], None)
        t = pa.table(
            {
                "c_mktsegment": pa.array(seg.astype(object), type=pa.string()),
                "o_totalprice": b["o_totalprice"],
            }
        )
        # ≤5 segment rows per batch, folded on the driver
        g = t.group_by(["c_mktsegment"]).aggregate(
            [("o_totalprice", "count"), ("o_totalprice", "sum")]
        )
        return g.rename_columns(["c_mktsegment", "n_part", "p_part"])

    ds = _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    parts = _to_table(ds.map_batches(seg_join, batch_format="pyarrow"))
    t = parts.group_by("c_mktsegment").aggregate([("n_part", "sum"), ("p_part", "sum")])
    t = t.rename_columns(["c_mktsegment", "n_orders", "total_price"])
    t = t.set_column(
        t.column_names.index("n_orders"), "n_orders", pc.cast(t["n_orders"], pa.int64())
    )
    return _round_col(t, "total_price", 2)


# ---------------------------------------------------------------------------
# shuffle hash join via Dataset.join (R8 dispatcher-shuffle analog)
# ---------------------------------------------------------------------------

def q_lines_per_orderpriority(sf_dir: str):
    """The ONE kept genuine Dataset.join (R8 dispatcher-shuffle
    demonstrator) — every other multi-table query broadcasts its small
    side (VERDICT r1 #3). Tuning swept: num_partitions 8 ≈ 16 « 32 at
    this scale (32 starves the hash-shuffle aggregator actors); both
    sides pre-projected to the join/aggregate columns only."""
    li = _rp(sf_dir, "lineitem", ["l_orderkey"])
    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    # coalesce the 8 join partitions below the group cardinality (5): the
    # sort-based aggregate makes one range per input block, and surplus
    # ranges come back as schema-less empty blocks (VERDICT r4 #5)
    return _to_table(
        joined.repartition(4)
        .groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_lines"))
    )


# ---------------------------------------------------------------------------
# R1-analog on generic tables: per-key ordered monotonicity scan, bucketed
# (same pattern as checks/key_checks.py — vectorized within buckets).
# ---------------------------------------------------------------------------

def q_nonmonotonic_events(sf_dir: str):
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def bucketize(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "bucket", pa.array((uid % 64).astype(np.int64))
        )

    def scan(g: pa.Table) -> pa.Table:
        # lexsort + shifted compare, no pandas conversion (VERDICT r2 #6)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((eid, uid))
        u, t = uid[order], ts[order]
        bad = (u[1:] == u[:-1]) & (t[1:] < t[:-1])
        return pa.table({"n_violations_part": pa.array([int(bad.sum())], type=pa.int64())})

    parts = _to_table(
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(scan, batch_format="pyarrow")
    )
    total = int(pc.sum(parts["n_violations_part"]).as_py() or 0)
    return pa.table({"n_violations": pa.array([total], type=pa.int64())})


# ---------------------------------------------------------------------------
# windowed aggregate: tumbling 1-hour windows per event type
# ---------------------------------------------------------------------------

def q_hourly_events(sf_dir: str):
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        # map-side combiner: pre-aggregate the tumbling windows per batch
        # so the shuffle carries ≤ |windows × types| rows per block, not
        # every event (the G1 partial→final pattern)
        t = pa.table(
            {
                "window_start": pc.floor_temporal(b["ts"], unit="hour"),
                "event_type": b["event_type"],
                "value": b["value"],
            }
        )
        g = t.group_by(["window_start", "event_type"]).aggregate(
            [("value", "count"), ("value", "sum")]
        )
        return g.rename_columns(
            ["window_start", "event_type", "n_part", "sum_part"]
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Sum("n_part", alias_name="n_events"), Sum("sum_part", alias_name="total_value"))
    )
    t = _to_table(out)
    t = t.set_column(
        t.column_names.index("n_events"), "n_events", pc.cast(t["n_events"], pa.int64())
    )
    return _round_col(t, "total_value", 2)


# ---------------------------------------------------------------------------
# exact dedup count (dedup family; SQL-checkable scalar)
# ---------------------------------------------------------------------------

def q_exact_dup_count(sf_dir: str):
    from fastpasta_ray.functions.dedup import exact_dup_groups

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    groups = _to_table(exact_dup_groups(ds))
    n_dups = 0
    if groups is not None and groups.num_rows:
        n_dups = int(pc.sum(pc.subtract(groups["n_copies"], pa.scalar(1))).as_py())
    return pa.table({"n_exact_dups": pa.array([n_dups], type=pa.int64())})


# ---------------------------------------------------------------------------
# text analysis (token counting, quality metrics) — SQL-matched
# ---------------------------------------------------------------------------

def q_token_counts(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: ftext.token_count(b).select(["doc_id", "n_words"]),
        batch_format="pyarrow",
    )
    return _to_table(out)


def q_text_quality(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: ftext.quality_metrics(b).select(
            ["doc_id", "n_chars_obs", "n_punct", "n_upper", "n_digit"]
        ),
        batch_format="pyarrow",
    )
    return _to_table(out)


# ---------------------------------------------------------------------------
# similarity: brute-force cosine top-k vs vec_id=0 (SQL-matched via
# duckdb list_cosine_similarity)
# ---------------------------------------------------------------------------

def q_similarity_top10(sf_dir: str):
    from fastpasta_ray.functions.similarity import cosine_topk

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _to_table(
        emb.map_batches(lambda b: b.filter(pc.equal(b["vec_id"], 0)), batch_format="pyarrow")
    )["embedding"].to_pylist()[0]
    rest = emb.map_batches(
        lambda b: b.filter(pc.not_equal(b["vec_id"], 0)), batch_format="pyarrow"
    )
    t = cosine_topk(rest, np.asarray(q), k=10, round_to=4)
    return t.select(["vec_id", "cosine"])


# ---------------------------------------------------------------------------
# non-SQL ops (rows-only driver check): minhash/simhash near-dup, lang-id,
# fingerprints, HLL distinct estimate, IVF similarity
# ---------------------------------------------------------------------------

_EMPTY_JACCARD = pa.table(
    {
        "doc_a": pa.array([], type=pa.int64()),
        "doc_b": pa.array([], type=pa.int64()),
        "jaccard": pa.array([], type=pa.float64()),
    }
)


def q_minhash_pairs(sf_dir: str):
    """MinHash-LSH candidates verified by EXACT word-3gram Jaccard ≥ 0.5 —
    the SQL oracle computes the identical value via a DISTINCT-shingle
    self-join (bimodal corpus: planted near-dups ≥0.88, background <0.3,
    so LSH recall at this threshold is total)."""
    from fastpasta_ray.functions.dedup import minhash_lsh_pairs

    # blocks=32: small signature tasks shorten a throttled core's straggler
    # tail on many CPUs; _rp caps the count at 2× cluster CPUs
    ds = _rp(sf_dir, "documents", ["doc_id", "text"], blocks=32)
    # as_table: the verified pairs are already driver-held; wrapping them in
    # a Dataset would cost one more streaming-executor launch to consume
    t = minhash_lsh_pairs(ds, threshold=0.5, as_table=True)
    return t if t.num_rows else _EMPTY_JACCARD


def q_simhash_pairs(sf_dir: str):
    """SimHash candidates (Hamming ≤ 6 guaranteed by 8-block combo keys)
    verified by EXACT word-3gram Jaccard ≥ 0.8 — same SQL oracle shape as
    minhash_pairs at a stricter threshold."""
    from fastpasta_ray.functions.dedup import exact_jaccard_verify, simhash_near_dups

    # blocks=32: see q_minhash_pairs
    ds = _rp(sf_dir, "documents", ["doc_id", "text"], blocks=32)
    cand = simhash_near_dups(ds, aggregate=False, as_table=True).select(
        ["doc_a", "doc_b"]
    )
    t = exact_jaccard_verify(cand, ds, threshold=0.8, as_table=True)
    return t if t.num_rows else _EMPTY_JACCARD


def q_lang_id(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text", "lang"], blocks=8)
    out = ds.map_batches(
        ftext.LangID(), batch_format="pyarrow", concurrency=2
    ).map_batches(
        lambda b: b.select(["doc_id", "lang", "lang_pred"]), batch_format="pyarrow"
    )
    return _to_table(out)


def q_hll_distinct_users(sf_dir: str):
    """HLL estimate judged against the exact distinct count (both computed
    by the engine; the oracle recomputes the exact count and asserts the
    2% accuracy bound as a checkable column)."""
    from fastpasta_ray.sketches import HyperLogLog, splitmix64

    ds = _rp(sf_dir, "events", ["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        # per-batch dedup + HLL partial; the exact side ships only
        # (unique id, bucket) pairs into a hash-bucketed distinct count —
        # the driver never materializes the id set (that unbounded union
        # is exactly what the sketch exists to avoid)
        u = np.unique(b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
        h = HyperLogLog()
        h.add_hashes(splitmix64(u))
        return pa.table(
            {
                "state": pa.array([h.to_json()["registers"]], type=pa.string()),
            }
        )

    def uniq_rows(b: pa.Table) -> pa.Table:
        u = np.unique(b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table(
            {
                "uid": pa.array(u),
                "bucket": pa.array(
                    (splitmix64(u.astype(np.uint64)) % np.uint64(32)).astype(np.int64)
                ),
            }
        )

    def count_bucket(g: pa.Table) -> pa.Table:
        n = len(np.unique(g["uid"].to_numpy(zero_copy_only=False)))
        return pa.table({"n": pa.array([n], type=pa.int64())})

    import base64

    merged = HyperLogLog()
    parts = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    for row in parts["state"].to_pylist():
        merged.merge(
            HyperLogLog(14, np.frombuffer(base64.b64decode(row), dtype=np.uint8).copy())
        )
    exact_t = _to_table(
        ds.map_batches(uniq_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(count_bucket, batch_format="pyarrow")
    )
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
    k = 10
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        price = b["o_totalprice"].to_numpy(zero_copy_only=False)
        keys = b["o_orderkey"].to_numpy(zero_copy_only=False)
        if len(price) > k:
            top = np.lexsort((keys, -price))[:k]
            b = b.take(pa.array(np.sort(top)))
        return b

    cand = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    price = cand["o_totalprice"].to_numpy(zero_copy_only=False)
    keys = cand["o_orderkey"].to_numpy(zero_copy_only=False)
    t = cand.take(pa.array(np.lexsort((keys, -price))[:k]))
    return _round_col(t, "o_totalprice", 2)


# ---------------------------------------------------------------------------
# R7-analog: gap-based session windows (AlpideReadoutFrame sessionization)
# ---------------------------------------------------------------------------

def q_session_stats(sf_dir: str):
    from ray.data.aggregate import Count as _Count

    from fastpasta_ray.functions.windows import sessionize

    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    s = sessionize(ds, gap_seconds=1800.0)
    t = _to_table(s)
    import pyarrow.compute as _pc

    n_sessions = t.num_rows
    n_events = int(_pc.sum(t["n_events"]).as_py())
    max_ev = int(_pc.max(t["n_events"]).as_py())
    return pa.table(
        {
            "n_sessions": pa.array([n_sessions], type=pa.int64()),
            "n_events": pa.array([n_events], type=pa.int64()),
            "max_session_events": pa.array([max_ev], type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# exact grouped quantiles via the mergeable IntHistogram sketch (t-digest
# replacement for bounded int domains; matches quantile_disc convention)
# ---------------------------------------------------------------------------

def q_nchars_quantiles(sf_dir: str):
    from fastpasta_ray.sketches import IntHistogram

    ds = _rp(sf_dir, "documents", ["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        import json as _json

        from fastpasta_ray.sketches import group_codes

        codes, uniques = group_codes(b["source"], include_null=True)
        nch = b["n_chars"].to_numpy(zero_copy_only=False)
        rows = {"source": [], "hist": []}
        for k, s in enumerate(uniques):
            h = IntHistogram()
            h.add(nch[codes == k])
            rows["source"].append(s)
            rows["hist"].append(_json.dumps(h.to_json()))
        return pa.table({"source": pa.array(rows["source"]), "hist": pa.array(rows["hist"])})

    import json as _json

    parts = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    merged: dict[str, IntHistogram] = {}
    for s, hj in zip(parts["source"].to_pylist(), parts["hist"].to_pylist()):
        h = IntHistogram.from_json(_json.loads(hj))
        merged[s] = merged[s].merge(h) if s in merged else h
    rows = {"source": [], "p25": [], "p50": [], "p75": [], "p99": []}
    # NULL source sorts last (DuckDB ASC default NULLS LAST)
    for s in sorted(merged, key=lambda s: (s is None, s or "")):
        rows["source"].append(s)
        for q, k in ((0.25, "p25"), (0.5, "p50"), (0.75, "p75"), (0.99, "p99")):
            rows[k].append(merged[s].quantile(q))
    return pa.table(
        {
            "source": pa.array(rows["source"]),
            "p25": pa.array(rows["p25"], type=pa.int64()),
            "p50": pa.array(rows["p50"], type=pa.int64()),
            "p75": pa.array(rows["p75"], type=pa.int64()),
            "p99": pa.array(rows["p99"], type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# word top-k: per-batch partial counts -> groupby sum -> driver top-k
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

    agg = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="n"))
    )
    df = _to_table(agg).to_pandas()
    df = df.sort_values(["n", "word"], ascending=[False, True], kind="mergesort").head(20)
    return pa.table({"word": pa.array(df["word"]), "n": pa.array(df["n"].astype("int64"))})


# ---------------------------------------------------------------------------
# embeddings: IVF search + near-dup pairs + per-label stats (rows-only)
# ---------------------------------------------------------------------------

def q_ivf_similarity(sf_dir: str):
    """Exact IVF (angular-bound cluster pruning) — result equals brute
    force, so it shares similarity_top10's SQL oracle."""
    from fastpasta_ray.functions.similarity import ivf_topk_exact

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _to_table(
        emb.map_batches(lambda b: b.filter(pc.equal(b["vec_id"], 0)), batch_format="pyarrow")
    )["embedding"].to_pylist()[0]
    # materialize the probe corpus ONCE: the exact-IVF search makes several
    # passes (centroid sample, radii, two probe waves) — re-running the
    # read+filter chain per pass dominated wall time on this small table
    rest = emb.map_batches(
        lambda b: b.filter(pc.not_equal(b["vec_id"], 0)), batch_format="pyarrow"
    ).materialize()
    return ivf_topk_exact(rest, np.asarray(q), k=10).select(["vec_id", "cosine"])


def q_embedding_neardups(sf_dir: str):
    from fastpasta_ray.functions.similarity import embedding_near_dup_pairs

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=8)
    t = _to_table(embedding_near_dup_pairs(emb, threshold=0.95))
    if t is None:
        return pa.table(
            {
                "vec_a": pa.array([], type=pa.int64()),
                "vec_b": pa.array([], type=pa.int64()),
                "cosine": pa.array([], type=pa.float64()),
            }
        )
    return t


def q_label_stats(sf_dir: str):
    from ray.data.aggregate import Count as _Count

    emb = _rp(sf_dir, "embeddings", ["vec_id", "label"])
    return emb.groupby("label").aggregate(
        _Count(alias_name="n_vecs"), Min("vec_id", alias_name="min_vec_id"),
        Max("vec_id", alias_name="max_vec_id"),
    )

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

def q_asof_purchase_attribution(sf_dir: str):
    from fastpasta_ray.functions.joins import asof_join

    ev = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def side(kind, cols=None):
        def f(b: pa.Table) -> pa.Table:
            t = b.filter(pc.equal(b["event_type"], kind))
            return t.select(cols) if cols else t.drop_columns(["event_type"])
        return f

    # ONE fused filter+project map per side, then a coalesce: a block with
    # zero purchases/views would otherwise ride into asof_join's widen map
    # as an empty block that Ray skips, emitting a schema-less block
    # (VERDICT r4 #5). Block count is bench-scale; at corpus scale the
    # asof exchange re-buckets anyway.
    purchases = ev.map_batches(side("purchase"), batch_format="pyarrow").repartition(4)
    views = ev.map_batches(
        side("view", ["user_id", "ts"]), batch_format="pyarrow"
    ).repartition(4)
    joined = asof_join(purchases, views, on="ts", by="user_id", right_cols=[])
    t = _to_table(joined)
    df = t.to_pandas()
    with_view = df["ts_right"].notna()
    # exact integer microseconds on both sides (duckdb date_diff('second')
    # counts boundary crossings, not elapsed time — avoid it)
    gaps_us = (
        df.loc[with_view, "ts"].astype("datetime64[us]").astype("int64")
        - df.loc[with_view, "ts_right"].astype("datetime64[us]").astype("int64")
    )
    return pa.table(
        {
            "n_purchases": pa.array([len(df)], type=pa.int64()),
            "n_with_view": pa.array([int(with_view.sum())], type=pa.int64()),
            "total_gap_us": pa.array([int(gaps_us.sum())], type=pa.int64()),
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

    partial = (
        ds.map_batches(salt, batch_format="pyarrow")
        .groupby(["source", "salt"])
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="total_chars"),
            Min("n_chars", alias_name="min_chars"),
            Max("n_chars", alias_name="max_chars"),
        )
    )
    df = _to_table(partial).to_pandas()
    out = (
        df.groupby("source", sort=True)
        .agg(
            n_docs=("n_docs", "sum"),
            total_chars=("total_chars", "sum"),
            min_chars=("min_chars", "min"),
            max_chars=("max_chars", "max"),
        )
        .reset_index()
    )
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


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
        # map-side combiner: a handful of event types per batch
        g = t.group_by(["event_type"]).aggregate(
            [("k", "count"), ("k", "sum"), ("k", "min"), ("k", "max")]
        )
        return g.rename_columns(["event_type", "n_p", "s_p", "mn_p", "mx_p"])

    out = (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n_p", alias_name="n"),
            Sum("s_p", alias_name="total_k"),
            Min("mn_p", alias_name="min_k"),
            Max("mx_p", alias_name="max_k"),
        )
    )
    t = _to_table(out)
    for c in ("n", "total_k"):
        t = t.set_column(t.column_names.index(c), c, pc.cast(t[c], pa.int64()))
    return t


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
    with searchsorted inside map_batches over lineitem. NO all-to-all
    shuffle of the fact table; the only exchange is the per-order groupby
    of (orderkey, date, partial revenue) rows. The genuine shuffle-join
    demonstrator (R8) is q_lines_per_orderpriority."""
    cust = _to_table(_rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    seg_keys = ray.put(
        np.sort(
            cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))["c_custkey"].to_numpy()
        )
    )

    def seg_filter(b: pa.Table) -> pa.Table:
        # broadcast semi-join (task-pool fn; ray.get is zero-copy plasma)
        keys = ray.get(seg_keys)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        # empty-domain guard (ADVICE r2): no BUILDING customers → clip
        # to -1 would index the empty array; return an empty batch instead
        pos = np.clip(np.searchsorted(keys, ck), 0, max(len(keys) - 1, 0))
        hit = keys[pos] == ck if len(keys) else np.zeros(len(ck), bool)
        return b.filter(pa.array(hit))

    orders = _to_table(
        _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
            seg_filter, batch_format="pyarrow"
        )
    )
    okeys = orders["o_orderkey"].to_numpy()
    odates = orders["o_orderdate"].to_numpy().astype("datetime64[us]").astype(np.int64)
    oorder = np.argsort(okeys)
    skeys, sdates = okeys[oorder], odates[oorder]
    lookup_ref = ray.put(skeys)

    def rev_probe(b: pa.Table) -> pa.Table:
        # broadcast inner join + per-batch PARTIAL aggregation: each batch
        # combines revenue by order position (dense index into the
        # broadcast key array), so the "shuffle" is a bounded partial
        # merge (≤ |BUILDING orders| rows/batch — the same memory envelope
        # the broadcast already assumes)
        keys = ray.get(lookup_ref)
        lk = b["l_orderkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, lk), 0, max(len(keys) - 1, 0))
        hit = keys[pos] == lk if len(keys) else np.zeros(len(lk), bool)
        f = b.filter(pa.array(hit))
        pos = pos[hit]
        rev = pc.multiply(
            f["l_extendedprice"], pc.subtract(pa.scalar(1.0), f["l_discount"])
        ).to_numpy(zero_copy_only=False)
        part = np.zeros(len(keys))
        np.add.at(part, pos, rev)
        nz = np.flatnonzero(part)
        return pa.table({"opos": pa.array(nz), "revenue": pa.array(part[nz])})

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    parts = _to_table(li.map_batches(rev_probe, batch_format="pyarrow")).to_pandas()
    fin = parts.groupby("opos")["revenue"].sum()  # ≤ |BUILDING orders| rows
    idx = fin.index.to_numpy()
    df = pd.DataFrame(
        {
            "l_orderkey": skeys[idx],
            "o_orderdate": sdates[idx],
            "revenue": fin.to_numpy().round(2),
        }
    )
    df = df.sort_values(["revenue", "l_orderkey"], ascending=[False, True], kind="mergesort").head(10)
    return pa.table(
        {
            "l_orderkey": pa.array(df["l_orderkey"].astype("int64")),
            "o_orderdate": pa.array(df["o_orderdate"].to_numpy()).cast(pa.timestamp("us")),
            "revenue": pa.array(df["revenue"].astype("float64")),
        }
    )


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
    region = _to_table(_rp(sf_dir, "region"))
    nation = _to_table(_rp(sf_dir, "nation"))
    cust = _to_table(_rp(sf_dir, "customer", ["c_custkey", "c_nationkey"]))
    asia = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"].to_pylist()
    nat = nation.filter(pc.is_in(nation["n_regionkey"], value_set=pa.array(asia, type=pa.int32())))
    nkey_to_name = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    ck = cust["c_custkey"].to_numpy()
    cn = cust["c_nationkey"].to_numpy(zero_copy_only=False)
    sel = np.isin(cn, list(nkey_to_name))
    lookup = ray.put((np.sort(ck[sel]), cn[sel][np.argsort(ck[sel])]))

    def cust_nation(b: pa.Table) -> pa.Table:
        # broadcast join: order -> customer nation (ASIA only)
        keys, nk = ray.get(lookup)
        ock = b["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, ock), 0, max(len(keys) - 1, 0))
        mask = keys[pos] == ock if len(keys) else np.zeros(len(ock), bool)
        t = b.filter(pa.array(mask))
        ock2 = t["o_custkey"].to_numpy(zero_copy_only=False)
        pos2 = np.searchsorted(keys, ock2)
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "c_nationkey": pa.array(nk[pos2].astype(np.int64)),
            }
        )

    # broadcast-join plan (VERDICT r1 #3): ASIA orders are a ~1/5 subset —
    # broadcast (o_orderkey → c_nationkey), probe + per-batch partial sum
    # by nation inside map_batches over lineitem (no fact shuffle at all;
    # the "reduce" is a ≤25-nation partial merge on the driver)
    orders = _to_table(
        _rp(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
            cust_nation, batch_format="pyarrow"
        )
    )
    okeys = orders["o_orderkey"].to_numpy()
    onation = orders["c_nationkey"].to_numpy(zero_copy_only=False)
    oorder = np.argsort(okeys)
    order_ref = ray.put((okeys[oorder], onation[oorder].astype(np.int64)))

    def nation_probe(b: pa.Table) -> pa.Table:
        keys, nation = ray.get(order_ref)
        lk = b["l_orderkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, lk), 0, max(len(keys) - 1, 0))
        hit = keys[pos] == lk if len(keys) else np.zeros(len(lk), bool)
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
        return pa.table(
            {
                "c_nationkey": pa.array(nz.astype(np.int64)),
                "revenue": pa.array(part[nz]),
            }
        )

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    parts = _to_table(li.map_batches(nation_probe, batch_format="pyarrow")).to_pandas()
    df = parts.groupby("c_nationkey", as_index=False)["revenue"].sum()
    df["n_name"] = df["c_nationkey"].map(nkey_to_name)
    df["revenue"] = df["revenue"].round(2)
    return pa.table(
        {"n_name": pa.array(df["n_name"].astype(str)), "revenue": pa.array(df["revenue"])}
    )


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
    """Exact grouped float quantiles (per-group map_groups; values of one
    group must fit a task — documented partitioning assumption) PLUS the
    mergeable TDigest estimate judged against them as checkable tolerance
    columns. Oracle: DuckDB quantile_cont + TRUE for the tolerance bits."""
    import json as _json

    from fastpasta_ray.sketches import TDigest

    ds = _rp(sf_dir, "events", ["event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        from fastpasta_ray.sketches import group_codes

        codes, uniques = group_codes(b["event_type"], include_null=True)
        val = b["value"].to_numpy(zero_copy_only=False)
        rows = {"event_type": [], "digest": []}
        for k, t in enumerate(uniques):
            td = TDigest()
            td.add(val[codes == k])
            rows["event_type"].append(t)
            rows["digest"].append(_json.dumps(td.to_json()))
        return pa.table({"event_type": pa.array(rows["event_type"]), "digest": pa.array(rows["digest"])})

    def exact_q(g: pa.Table) -> pa.Table:
        v = g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "event_type": pa.array([g["event_type"][0].as_py()]),
                "p50": pa.array([float(np.quantile(v, 0.5))]),
                "p99": pa.array([float(np.quantile(v, 0.99))]),
            }
        )

    parts = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    exact = _to_table(ds.groupby("event_type").map_groups(exact_q, batch_format="pyarrow"))
    merged: dict = {}
    for t, dj in zip(parts["event_type"].to_pylist(), parts["digest"].to_pylist()):
        td = TDigest.from_json(_json.loads(dj))
        merged[t] = merged[t].merge(td) if t in merged else td
    ex = {r["event_type"]: r for r in exact.to_pylist()}
    # judge the tdigest by RANK error (the sketch's actual guarantee: the
    # estimate's empirical CDF position within 0.01 of q; value-space tail
    # error is unbounded by between-sample gaps) — broadcast the estimates,
    # one vectorized counting pass, driver merge of partial counts
    ests = {t: (merged[t].quantile(0.5), merged[t].quantile(0.99)) for t in merged}

    def rank_counts(b: pa.Table) -> pa.Table:
        from fastpasta_ray.sketches import group_codes

        codes, uniques = group_codes(b["event_type"], include_null=True)
        val = b["value"].to_numpy(zero_copy_only=False)
        rows = {"event_type": [], "n": [], "le50": [], "le99": []}
        for k, t in enumerate(uniques):
            m = codes == k
            e50, e99 = ests[t]
            rows["event_type"].append(t)
            rows["n"].append(int(m.sum()))
            rows["le50"].append(int((val[m] <= e50).sum()))
            rows["le99"].append(int((val[m] <= e99).sum()))
        return pa.table({k: pa.array(v) for k, v in rows.items()})

    # fold the tiny (types × blocks) partial-count table in a dict — a
    # pandas groupby here would drop the NULL event_type group (dropna)
    rct = _to_table(ds.map_batches(rank_counts, batch_format="pyarrow"))
    rc: dict = {}
    for r in rct.to_pylist():
        acc = rc.setdefault(r["event_type"], [0, 0, 0])
        acc[0] += r["n"]
        acc[1] += r["le50"]
        acc[2] += r["le99"]
    rows = {"event_type": [], "p50": [], "p99": [], "td_p50_ok": [], "td_p99_ok": []}
    for t in sorted(merged, key=lambda t: (t is None, t or "")):
        n, le50, le99 = rc[t]
        n = max(int(n), 1)
        rows["event_type"].append(t)
        rows["p50"].append(round(ex[t]["p50"], 4))
        rows["p99"].append(round(ex[t]["p99"], 4))
        rows["td_p50_ok"].append(bool(abs(le50 / n - 0.5) <= 0.01))
        rows["td_p99_ok"].append(bool(abs(le99 / n - 0.99) <= 0.01))
    return pa.table(
        {
            "event_type": pa.array(rows["event_type"]),
            "p50": pa.array(rows["p50"], type=pa.float64()),
            "p99": pa.array(rows["p99"], type=pa.float64()),
            "td_p50_ok": pa.array(rows["td_p50_ok"], type=pa.bool_()),
            "td_p99_ok": pa.array(rows["td_p99_ok"], type=pa.bool_()),
        }
    )


QUERIES["value_quantiles_tdigest"] = q_value_quantiles_tdigest


# ---------------------------------------------------------------------------
# TPC-H Q6 shape: predicate-pushdown filtered aggregate — the filter travels
# to the parquet scan (only matching row groups are decoded)
# ---------------------------------------------------------------------------

def q_q6_forecast_revenue(sf_dir: str):
    import pyarrow.dataset as pads

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
        filter=(
            (pads.field("l_shipdate") >= pads.scalar(pa.scalar(np.datetime64("1996-01-01", "us"))))
            & (pads.field("l_shipdate") < pads.scalar(pa.scalar(np.datetime64("1997-01-01", "us"))))
            & (pads.field("l_discount") >= 0.03)
            & (pads.field("l_discount") <= 0.07)
            & (pads.field("l_quantity") < 25)
        ),
    )

    def rev(b: pa.Table) -> pa.Table:
        r = pc.sum(pc.multiply(b["l_extendedprice"], b["l_discount"])).as_py() or 0.0
        return pa.table({"partial": pa.array([float(r)])})

    parts = _to_table(ds.map_batches(rev, batch_format="pyarrow"))
    total = float(pc.sum(parts["partial"]).as_py() or 0.0) if parts is not None else 0.0
    return pa.table({"revenue": pa.array([round(total, 2)])})


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
    pairs = minhash_lsh_pairs(ds, threshold=0.5, as_table=True)
    return near_dup_clusters(pairs).sort_by([("doc_id", "ascending")])


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
        g = f.group_by(["source"]).aggregate([("n_chars", "count"), ("n_chars", "sum")])
        return g.rename_columns(["source", "n_p", "s_p"])

    out = (
        ds.map_batches(keep, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_p", alias_name="n_sampled"), Sum("s_p", alias_name="chars_sampled"))
    )
    t = _to_table(out)
    for c in ("n_sampled", "chars_sampled"):
        t = t.set_column(t.column_names.index(c), c, pc.cast(t[c], pa.int64()))
    return t


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
    t = _to_table(out)
    return pa.table(
        {
            "n_events": pa.array([t.num_rows], type=pa.int64()),
            "total_in_window": pa.array(
                [int(pc.sum(t["n_in_window"]).as_py())], type=pa.int64()
            ),
            "max_in_window": pa.array(
                [int(pc.max(t["n_in_window"]).as_py())], type=pa.int64()
            ),
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

    def side(kind):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["event_type"], kind)).drop_columns(["event_type"])

        return f

    purchases = ev.map_batches(side("purchase"), batch_format="pyarrow")
    views = ev.map_batches(side("view"), batch_format="pyarrow")
    out = range_join_count(
        purchases, views, by="user_id",
        before_seconds=1800.0, after_seconds=1800.0,
    )
    t = _to_table(out)
    return pa.table(
        {
            "n_purchases": pa.array([t.num_rows], type=pa.int64()),
            "total_matches": pa.array(
                [int(pc.sum(t["n_matches"]).as_py())], type=pa.int64()
            ),
            "max_matches": pa.array(
                [int(pc.max(t["n_matches"]).as_py())], type=pa.int64()
            ),
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
        # one block → one batch → one packing domain in doc_id order
        return b.sort_by("doc_id").append_column(
            "part", pa.array(["all"] * b.num_rows, type=pa.string())
        )

    bins = _to_table(
        pack_sequences(
            ds.map_batches(ordered, batch_format="pyarrow", batch_size=None),
            context_len=_PACK_CTX,
            n_tok_col="n_chars",
        )
    )
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
    out = ds.map_batches(
        lambda b: ftext.repetition_metrics(b).select(
            ["doc_id", "n_words", "n_distinct_words", "rep_ratio"]
        ),
        batch_format="pyarrow",
    )
    return _to_table(out)


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

    t = _to_table(ds.map_batches(flag, batch_format="pyarrow"))
    if t is None:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "mean_word_len": pa.array([], type=pa.float64()),
            }
        )
    return t


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


def q_contamination_check(sf_dir: str):
    """Benchmark decontamination (GPT-3 appendix C-style n-gram overlap):
    the 'benchmark' is the deterministic doc_id % 101 == 0 slice of the
    corpus (SQL-expressible), the corpus is everything else; a corpus doc
    is flagged with its count of DISTINCT word-3-grams that also occur
    anywhere in the benchmark. One broadcast + one streaming pass — no
    shuffle (functions/decontam.py)."""
    from fastpasta_ray.functions.decontam import contamination_check

    ds = _rp(sf_dir, "documents", ["doc_id", "text"], blocks=8)

    def _mod_filter(keep_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            did = b["doc_id"].to_numpy(zero_copy_only=False)
            m = did % 101 == 0
            return b.filter(pa.array(m if keep_bench else ~m))

        return f

    # the bench side is collected by benchmark_ngram_set, which skips the
    # empty blocks the ~1/101 filter leaves, so it needs no coalesce
    bench = ds.map_batches(_mod_filter(True), batch_format="pyarrow")
    corpus = ds.map_batches(_mod_filter(False), batch_format="pyarrow")
    out = contamination_check(corpus, bench, ngram_n=3)
    t = _to_table(out)
    if t is None or t.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "n_overlap": pa.array([], type=pa.int64()),
            }
        )
    return t.sort_by([("doc_id", "ascending")])


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

    ds = _rp(sf_dir, "documents", ["doc_id", "text"], blocks=8)

    def _mod_filter(keep_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            did = b["doc_id"].to_numpy(zero_copy_only=False)
            m = did % 101 == 0
            return b.filter(pa.array(m if keep_bench else ~m))

        return f

    bench = ds.map_batches(_mod_filter(True), batch_format="pyarrow")
    corpus = ds.map_batches(_mod_filter(False), batch_format="pyarrow")
    out = contamination_check_distributed(corpus, bench, ngram_n=3)
    t = _to_table(out)
    if t is None or t.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "n_overlap": pa.array([], type=pa.int64()),
            }
        )
    return t.sort_by([("doc_id", "ascending")])


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
    out = sampled.groupby("source").count()
    t = _to_table(out)
    t = t.rename_columns(["source", "n_sampled"])
    return t.set_column(
        t.column_names.index("n_sampled"), "n_sampled", pc.cast(t["n_sampled"], pa.int64())
    ).sort_by([("source", "ascending")])


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
    out = kmeans_assign(ds, cent).groupby("cluster").count()
    t = _to_table(out).rename_columns(["cluster", "n_assigned"])
    return t.set_column(
        t.column_names.index("n_assigned"), "n_assigned", pc.cast(t["n_assigned"], pa.int64())
    ).sort_by([("cluster", "ascending")])


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

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + ["n"])

    parts = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    # quantile_disc and the >= filter both skip NULL n_chars
    t = parts.filter(pc.is_valid(parts["n_chars"])).group_by(keys).aggregate([("n", "sum")])
    by_len = t.group_by("n_chars").aggregate([("n_sum", "sum")])
    thr = IntHistogram(
        dict(zip(by_len["n_chars"].to_pylist(), by_len["n_sum_sum"].to_pylist()))
    ).quantile(0.9)
    kept = (
        t.filter(pc.greater_equal(t["n_chars"], thr))
        .group_by("source")
        .aggregate([("n_sum", "sum")])
    )
    counts = dict(zip(kept["source"].to_pylist(), kept["n_sum_sum"].to_pylist()))
    srcs = sorted(counts, key=lambda s: (s is None, s or ""))
    return pa.table(
        {
            "source": pa.array(srcs, type=pa.string()),
            "n_kept": pa.array([counts[s] for s in srcs], type=pa.int64()),
            "threshold": pa.array([thr] * len(srcs), type=pa.int64()),
        }
    )


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
    corpus word-frequency table (per-batch value_counts partials → one
    (word, count) groupby), broadcast once via ray.put, then one streaming
    scoring pass computing each doc's mean log P(word). The filtering step
    every LM data pipeline runs before training; exact SQL oracle."""
    from fastpasta_ray.functions.text import (
        unigram_logprob_score,
        unigram_logprob_table,
    )

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    vocab, logp, oov = unigram_logprob_table(ds, "text")
    return _to_table(unigram_logprob_score(ds, vocab, logp, oov))


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
    t = _to_table(semantic_dedup(ds, cent, threshold=0.4))
    if t is None:
        return pa.table(
            {
                "cluster": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
            }
        )
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

    def partial(b: pa.Table) -> pa.Table:
        def row(n_vecs, n_null, min_dim, max_dim, n_nan, min_norm, max_norm):
            return pa.table(
                {
                    "n_vecs": pa.array([n_vecs], type=pa.int64()),
                    "n_null": pa.array([n_null], type=pa.int64()),
                    "min_dim": pa.array([min_dim], type=pa.int64()),
                    "max_dim": pa.array([max_dim], type=pa.int64()),
                    "n_nan": pa.array([n_nan], type=pa.int64()),
                    "min_norm": pa.array([min_norm], type=pa.float64()),
                    "max_norm": pa.array([max_norm], type=pa.float64()),
                }
            )

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

    parts = _to_table(ds.map_batches(partial, batch_format="pyarrow"))

    def agg(fn, col, cast=None):
        v = fn(parts[col]).as_py()
        if v is None:
            return None
        return cast(v) if cast else v

    return pa.table(
        {
            "n_vecs": pa.array([agg(pc.sum, "n_vecs", int)], type=pa.int64()),
            "n_null": pa.array([agg(pc.sum, "n_null", int)], type=pa.int64()),
            "min_dim": pa.array([agg(pc.min, "min_dim", int)], type=pa.int64()),
            "max_dim": pa.array([agg(pc.max, "max_dim", int)], type=pa.int64()),
            "n_nan": pa.array([agg(pc.sum, "n_nan", int)], type=pa.int64()),
            "min_norm": pa.array(
                [agg(pc.min, "min_norm", lambda v: round(v, 4))], type=pa.float64()
            ),
            "max_norm": pa.array(
                [agg(pc.max, "max_norm", lambda v: round(v, 4))], type=pa.float64()
            ),
        }
    )


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
    data pass, chained in ONE streaming plan: Gopher-style quality gate
    (length >= 200 chars, mean word length in [3, 12]) → exact-dedup
    keep-first (hash-bucketed groupby) → per-source kept counts. Each stage
    is an existing operator; the point of the query is that they compose
    without materializing between stages."""
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

    kept = drop_exact_dups(ds.map_batches(gate, batch_format="pyarrow"))
    t = _to_table(kept.groupby("source").count())
    t = t.rename_columns(["source", "n_kept"])
    return t.set_column(
        t.column_names.index("n_kept"), "n_kept", pc.cast(t["n_kept"], pa.int64())
    ).sort_by([("source", "ascending")])


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
    advice only): a per-batch EXACT pre-trim keeps, per (batch, source) in
    doc_id order, the docs whose batch-local prefix sum is <= budget PLUS
    the FIRST overflow doc. Exactness: (a) docs with doc_id below the
    batch's overflow point contribute exactly (all smaller-id batch docs
    survive); (b) once a batch prefix exceeds the budget at doc d, every
    doc anywhere with doc_id > d has global prefix > budget — and keeping
    d preserves that evidence in the final cumsum (kept_batch + nch(d) >
    budget), so the group trim classifies every survivor exactly. (The
    first r5 draft dropped d too, which removed its n_chars from later
    docs' cumsum and over-kept docs past the budget — caught by the r5
    code review reproducing an oracle mismatch at sf0.1, where documents
    span multiple batches.) The groupby then shuffles
    <= budget/min_n_chars + 1 docs per source per batch instead of the
    whole source; inside a group it's the same sort + cumsum."""
    budget = 5_000

    ds = _rp(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def pretrim(b: pa.Table) -> pa.Table:
        from fastpasta_ray.sketches import group_codes

        codes, _ = group_codes(b["source"], include_null=True)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        nch = b["n_chars"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, codes))
        cs, ns = codes[order], nch[order]
        run_start = np.r_[True, cs[1:] != cs[:-1]]
        starts = np.flatnonzero(run_start)
        cum = np.cumsum(ns)
        base = np.repeat(
            cum[starts] - ns[starts], np.diff(np.r_[starts, len(cs)])
        )
        keep = (cum - base) <= budget
        # first overflow doc per source run: its presence keeps the final
        # cumsum over the budget for every later doc_id (see docstring)
        prev_keep = np.r_[True, keep[:-1]]
        keep |= ~keep & (run_start | prev_keep)
        return b.take(pa.array(np.sort(order[keep])))

    ds = ds.map_batches(pretrim, batch_format="pyarrow")

    def trim(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        nch = g["n_chars"].to_numpy(zero_copy_only=False)[order]
        keep = np.cumsum(nch) <= budget
        n = int(keep.sum())
        return pa.table(
            {
                "source": pa.array([g["source"][0].as_py()]),
                "n_docs": pa.array([n], type=pa.int64()),
                "n_chars_kept": pa.array([int(nch[:n].sum())], type=pa.int64()),
            }
        )

    out = (
        ds.groupby("source")
        .map_groups(trim, batch_format="pyarrow")
    )
    return _to_table(out).sort_by([("source", "ascending")])


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
    per-source top-3 partial (vectorized lexsort, no shuffle of full rows),
    the driver reduces the tiny (3 × sources × blocks) candidate set.
    Ties break to the lowest doc_id, mirrored in the oracle."""
    k = 3
    ds = _rp(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        from fastpasta_ray.sketches import group_codes

        codes, uniques = group_codes(b["source"])
        nch = b["n_chars"].to_numpy(zero_copy_only=False)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        # per-source rank via one lexsort: (source, -n_chars, doc_id)
        order = np.lexsort((ids, -nch, codes))
        cs = codes[order]
        run_start = np.r_[True, cs[1:] != cs[:-1]]
        starts = np.flatnonzero(run_start)
        rank = np.arange(len(cs)) - np.repeat(starts, np.diff(np.r_[starts, len(cs)]))
        keep = order[rank < k]
        return b.select(["doc_id", "source", "n_chars"]).take(pa.array(np.sort(keep)))

    cand = _to_table(ds.map_batches(partial, batch_format="pyarrow"))
    # final reduce over the small candidate set (3 x sources x blocks rows)
    import pandas as pd

    df = cand.to_pandas().sort_values(
        ["source", "n_chars", "doc_id"], ascending=[True, False, True],
        kind="mergesort",
    )
    # dropna=False: keep a NULL-source group like the oracle's PARTITION BY
    df = df.groupby("source", sort=True, dropna=False).head(k).reset_index(drop=True)
    return pa.table(
        {
            "source": pa.array(df["source"]),
            "doc_id": pa.array(df["doc_id"].astype("int64")),
            "n_chars": pa.array(df["n_chars"].astype("int64")),
        }
    )


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
# binary payload column + typed metadata + actor-pool decode stages — gets a
# hard-signal oracle. The media table is derived DETERMINISTICALLY from
# documents (payload = UTF-8 text bytes, width/height from doc_id) so the
# DuckDB oracle can replicate the fake-decode stats byte for byte: the
# corpus is ASCII (strlen == length for every sf dir, asserted in
# TESTDATA-derived checks), so SQL codepoints equal payload bytes.
# ---------------------------------------------------------------------------

def q_media_stats(sf_dir: str):
    """Fake-media decode stats over an actor-pool pipeline: per media,
    ImageDecoder's pixels/mean/std (fake decode = byte stats of the
    payload; fastpasta_ray/functions/multimodal.py) and
    VideoFrameSampler's sampled-frame count (payload seen as a stream of
    w×h-byte frames, every 10th kept).

    Scale shape: two independent streaming plans over the same read (no
    mid-pipeline materialization); both decode stages are actor pools
    (codec setup once per actor) with the small batch_size binary payloads
    need. The per-media frame count folds IN-BATCH: a sampler output block
    is f(one input block), so one media's frames never straddle blocks.
    The final per-media join runs driver-side on the collected tables —
    fine at bench scale; at corpus scale co-partition both legs by
    media_id and join per partition."""
    from fastpasta_ray.functions.multimodal import ImageDecoder, VideoFrameSampler

    def to_media(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "media_id": pc.cast(b["doc_id"], pa.string()),
                "payload": pc.cast(b["text"], pa.binary()),  # zero-copy utf8→binary
                "media_type": pa.array(["image/png"] * len(did), type=pa.string()),
                "width": pa.array((did % 5 + 2).astype(np.int32)),
                "height": pa.array((did % 3 + 2).astype(np.int32)),
                "sample_rate": pa.array(np.zeros(len(did), dtype=np.int32)),
            }
        )

    def media_ds():
        return _rp(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            to_media, batch_format="pyarrow"
        )

    def fold_frames(b: pa.Table) -> pa.Table:
        g = b.group_by("media_id").aggregate([("frame_idx", "count")])
        return pa.table(
            {
                "media_id": g["media_id"],
                "n_frames": pc.cast(g["frame_idx_count"], pa.int64()),
            }
        )

    # The two legs run SEQUENTIALLY by design: overlapping two actor-pool
    # plans from driver threads deadlocks under constrained CPU (each
    # pool's actors hold CPUs while idle; 2 plans x 2 actors on a 4-CPU
    # session leaves no CPU for their read tasks — observed hang). Wall
    # time at bench scale is actor-pool spin-up, the expected cost shape
    # for a correctness pin; a production media pipeline amortizes actor
    # startup across the corpus.
    img = _to_table(
        media_ds().map_batches(
            ImageDecoder, concurrency=2, batch_size=64, batch_format="pyarrow"
        )
    )
    frames = _to_table(
        media_ds()
        .map_batches(
            VideoFrameSampler,
            fn_constructor_kwargs={"every_n": 10},
            concurrency=2,
            batch_size=64,
            batch_format="pyarrow",
        )
        .map_batches(fold_frames, batch_size=None, batch_format="pyarrow")
    )
    out = img.join(frames, keys="media_id").sort_by([("media_id", "ascending")])
    # a media whose payload is shorter than w*h yields ZERO frame rows —
    # the left-outer join gives NULL where the oracle computes 0 (r5 code
    # review; latent on shipped fixtures only because min text length 44 >
    # max w*h 24)
    out = out.set_column(
        out.column_names.index("n_frames"),
        "n_frames",
        pc.fill_null(out["n_frames"], 0),
    )
    return out.select(["media_id", "pixels", "mean_value", "std_value", "n_frames"])


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
    0, the contamination_check convention). Same broadcast + one streaming
    pass shape as contamination_check; per-batch (source, count) partials
    fold driver-side (tiny: sources x blocks rows)."""
    from fastpasta_ray.functions.decontam import decontaminate

    ds = _rp(sf_dir, "documents", ["doc_id", "source", "text"], blocks=8)

    def _mod_filter(keep_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            did = b["doc_id"].to_numpy(zero_copy_only=False)
            m = did % 101 == 0
            return b.filter(pa.array(m if keep_bench else ~m))

        return f

    bench = ds.map_batches(_mod_filter(True), batch_format="pyarrow")
    corpus = ds.map_batches(_mod_filter(False), batch_format="pyarrow")
    clean = decontaminate(corpus, bench, ngram_n=3)

    def per_source(b: pa.Table) -> pa.Table:
        g = b.group_by("source").aggregate([("doc_id", "count")])
        return pa.table(
            {
                "source": g["source"],
                "n_clean": pc.cast(g["doc_id_count"], pa.int64()),
            }
        )

    parts = _to_table(clean.map_batches(per_source, batch_format="pyarrow"))
    acc: dict = {}
    for r in parts.to_pylist():
        acc[r["source"]] = acc.get(r["source"], 0) + r["n_clean"]
    srcs = sorted(acc, key=lambda s: (s is None, s or ""))
    return pa.table(
        {
            "source": pa.array(srcs, type=pa.string()),
            "n_clean": pa.array([acc[s] for s in srcs], type=pa.int64()),
        }
    )


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
    orders = _to_table(_rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]))
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
        lk = b["l_orderkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, lk), 0, max(len(keys) - 1, 0))
        hit = keys[pos] == lk if len(keys) else np.zeros(len(lk), bool)
        b = b.filter(pa.array(hit))
        line_hi = is_hi[pos[hit]]
        from fastpasta_ray.sketches import group_codes

        codes, uniques = group_codes(b["l_returnflag"], include_null=True)
        rows = {"l_returnflag": [], "high_part": [], "low_part": []}
        for k, flag in enumerate(uniques):
            mm = codes == k
            rows["l_returnflag"].append(flag)
            rows["high_part"].append(int(line_hi[mm].sum()))
            rows["low_part"].append(int((~line_hi[mm]).sum()))
        return pa.table(
            {
                "l_returnflag": pa.array(rows["l_returnflag"], type=pa.string()),
                "high_part": pa.array(rows["high_part"], type=pa.int64()),
                "low_part": pa.array(rows["low_part"], type=pa.int64()),
            }
        )

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_shipdate"])
    parts = _to_table(li.map_batches(partial, batch_format="pyarrow"))
    acc: dict = {}
    for r in parts.to_pylist():
        a = acc.setdefault(r["l_returnflag"], [0, 0])
        a[0] += r["high_part"]
        a[1] += r["low_part"]
    flags = sorted(acc, key=lambda s: (s is None, s or ""))
    return pa.table(
        {
            "l_returnflag": pa.array(flags, type=pa.string()),
            "high_line_count": pa.array([acc[f][0] for f in flags], type=pa.int64()),
            "low_line_count": pa.array([acc[f][1] for f in flags], type=pa.int64()),
        }
    )


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
