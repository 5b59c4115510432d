"""Seeded inputs for the three workloads and their expected answers,
computed without the engine.

- ``payload_scan``: long ``[BOS] body [EOS]`` rows, sparse planted
  ``bad_grammar`` (even partitions) and ``bad_vocab`` (odd partitions) rows,
  a clean manifest. Expected row codes come from the planted rows; key
  codes come from DuckDB.
- ``key_exchange``: many short rows read without the payload, planted
  duplicate ``doc_id``s (even partitions) and manifest mismatches (odd
  partitions: wrong ``n_tok``, rows missing from the manifest, manifest
  rows with no sequence row). Every expected code comes from DuckDB.
- ``query_folds``: seeded ``lineitem``/``orders``/``documents``/
  ``embeddings`` tables with the columns and types of the TPC-H-ish test
  tables; expected results are the DuckDB ``ORACLES``, normalised as the
  oracle tests normalise them.

Generation uses the engine's fixture generator (``fastpasta_ray.synth``)
for the sequence partitions and plain numpy for the board tables; the
engine itself only ever sees the written files.
"""

from __future__ import annotations

import datetime as _dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Job sizes. "full" is what the benchmark measures; "tiny" is for the
# self-test. Each full-size job takes roughly 0.5-2.5 s on one CPU.
SIZES = {
    "full": {
        "payload_scan": {"n_parts": 4, "n_rows": 8_000, "mean_n_tok": 256, "k": 24},
        "key_exchange": {"n_parts": 8, "n_rows": 25_000, "mean_n_tok": 16, "k": 20},
        "query_folds": {"lineitem": 60_000, "orders": 15_000, "documents": 500, "embeddings": 500},
    },
    "tiny": {
        "payload_scan": {"n_parts": 2, "n_rows": 1_000, "mean_n_tok": 64, "k": 6},
        "key_exchange": {"n_parts": 4, "n_rows": 2_000, "mean_n_tok": 16, "k": 5},
        "query_folds": {"lineitem": 3_000, "orders": 800, "documents": 120, "embeddings": 120},
    },
}

# The query board: per-batch-partial plus final-fold queries, and the two
# shingle-set queries. Value = the tables each query reads (for rows_per_s).
BOARD = {
    "lineitem_agg": ("lineitem",),
    "top_orders": ("orders",),
    "top_docs_per_source": ("documents",),
    "q12_priority_lines": ("lineitem", "orders"),
    "embedding_stats": ("embeddings",),
    "quantile_filter": ("documents",),
    "budget_trim": ("documents",),
    "ivf_similarity": ("embeddings",),
    "minhash_pairs": ("documents",),
    "decontam_clean_count": ("documents",),
}

# media_stats, customers_without_orders, orders_by_segment and
# asof_purchase_attribution stay off the board: they hang or overrun at one
# CPU (a known engine defect, listed in predictions.json).

GRAMMAR = {"bos_id": 1, "eos_id": 2, "pad_id": 0}
MANIFEST = "_manifest.parquet"
EXPECTED = "expected.pkl"


def _part_rng(seed: int, part: int) -> np.random.Generator:
    # same seeding convention as synth.write_fixture's defect injection
    return np.random.default_rng(np.random.SeedSequence([seed, part, 777]))


def _manifest_of(t: pa.Table) -> pa.Table:
    from fastpasta_ray.schema import MANIFEST_SCHEMA

    return pa.table(
        {"doc_id": t["doc_id"], "source": t["source"], "expected_n_tok": t["n_tok"]},
        schema=MANIFEST_SCHEMA,
    )


def write_payload_fixture(out_dir: str, seed: int, n_parts: int, n_rows: int,
                          mean_n_tok: int, k: int) -> list[tuple[str, int, str]]:
    """Write the payload_scan fixture; return the planted row codes as
    sorted ``(part, row_index, code)``."""
    from fastpasta_ray import synth

    os.makedirs(out_dir, exist_ok=True)
    spec = synth.SynthSpec(n_rows=n_rows, n_parts=n_parts, mean_n_tok=mean_n_tok,
                           seed=seed, grammar=True)
    planted: list[tuple[str, int, str]] = []
    manifests = []
    for p in range(n_parts):
        t = synth.gen_partition(spec, p)
        manifests.append(_manifest_of(t))
        part = synth.part_name(p)
        rng = _part_rng(seed, p)
        if p % 2 == 0:
            t, rows = synth.INJECTORS["bad_grammar"](t, rng, k)
            # the injector cycles missing BOS / missing EOS / interior PAD
            for j, r in enumerate(rows):
                planted.append((part, int(r), ("E30", "E50", "E60")[j % 3]))
        else:
            lens = t["n_tok"].to_numpy()
            t, rows = synth.INJECTORS["bad_vocab"](t, rng, k)
            # one out-of-vocab token at in-row position r % len; landing on
            # the first or last token also breaks BOS or EOS
            for r in rows:
                pos = int(r) % max(int(lens[r]), 1)
                planted.append((part, int(r), "E70"))
                if pos == 0:
                    planted.append((part, int(r), "E30"))
                if pos == lens[r] - 1:
                    planted.append((part, int(r), "E50"))
        pq.write_table(t, os.path.join(out_dir, f"{part}.parquet"), row_group_size=10_000)
    pq.write_table(pa.concat_tables(manifests), os.path.join(out_dir, MANIFEST),
                   row_group_size=10_000)
    return sorted(planted)


def write_key_fixture(out_dir: str, seed: int, n_parts: int, n_rows: int,
                      mean_n_tok: int, k: int) -> None:
    """Write the key_exchange fixture: duplicate doc_ids in even
    partitions; in odd partitions wrong n_tok, k sequence rows missing from
    the manifest and k manifest rows with no sequence row."""
    from fastpasta_ray import synth

    os.makedirs(out_dir, exist_ok=True)
    spec = synth.SynthSpec(n_rows=n_rows, n_parts=n_parts, mean_n_tok=mean_n_tok, seed=seed)
    manifests = []
    for p in range(n_parts):
        t = synth.gen_partition(spec, p)
        man = _manifest_of(t)
        rng = _part_rng(seed, p)
        if p % 2 == 0:
            t, _ = synth.INJECTORS["bad_dup_doc_id"](t, rng, k)
        else:
            t, _ = synth.INJECTORS["bad_len"](t, rng, k)
            keep = np.ones(man.num_rows, dtype=bool)
            keep[rng.choice(man.num_rows, size=k, replace=False)] = False
            extra = pa.table(
                {
                    "doc_id": [f"web/{p:04d}/{n_rows + i:08d}" for i in range(k)],
                    "source": ["web"] * k,
                    "expected_n_tok": pa.array([mean_n_tok] * k, type=pa.int32()),
                },
                schema=man.schema,
            )
            man = pa.concat_tables([man.filter(pa.array(keep)), extra])
        manifests.append(man)
        pq.write_table(t, os.path.join(out_dir, f"{synth.part_name(p)}.parquet"),
                       row_group_size=10_000)
    pq.write_table(pa.concat_tables(manifests), os.path.join(out_dir, MANIFEST),
                   row_group_size=10_000)


# E11 (strictly increasing doc index per partition), E80 (duplicate doc_id
# beyond its first occurrence), E71 (not in manifest), E72 (n_tok differs
# from the manifest's smallest expectation), E701 (manifest id with no
# sequence row) — the engine's definitions, restated in SQL.
_KEY_SQL = r"""
WITH seq AS (
    SELECT regexp_extract(filename, '([^/]+)\.parquet$', 1) AS part,
           CAST(file_row_number AS BIGINT) AS row_index, doc_id, n_tok
    FROM read_parquet($files, filename = true, file_row_number = true)
),
keyed AS (SELECT * FROM seq WHERE doc_id IS NOT NULL AND doc_id <> ''),
man AS (SELECT doc_id, expected_n_tok FROM read_parquet($manifest)),
idx AS (
    SELECT part, row_index,
           CAST(regexp_extract(doc_id, '/(\d{8})$', 1) AS BIGINT) AS i
    FROM seq WHERE regexp_matches(doc_id, '/\d{4}/\d{8}$')
),
ordered AS (
    SELECT part, row_index, i,
           lag(i) OVER (PARTITION BY part ORDER BY row_index) AS prev
    FROM idx
)
SELECT part, row_index, 'E11' AS code FROM ordered WHERE prev IS NOT NULL AND i <= prev
UNION ALL
SELECT part, row_index, 'E80' FROM (
    SELECT part, row_index,
           row_number() OVER (PARTITION BY doc_id ORDER BY part, row_index) AS rn
    FROM keyed) WHERE rn > 1
UNION ALL
SELECT part, row_index, 'E71' FROM keyed
WHERE NOT EXISTS (SELECT 1 FROM man WHERE man.doc_id = keyed.doc_id)
UNION ALL
SELECT k.part, k.row_index, 'E72' FROM keyed k
JOIN (SELECT doc_id, min(expected_n_tok) AS e FROM man GROUP BY doc_id) m USING (doc_id)
WHERE k.n_tok <> m.e
UNION ALL
SELECT '__manifest__', -1, 'E701' FROM (SELECT DISTINCT doc_id FROM man) m
WHERE NOT EXISTS (SELECT 1 FROM keyed WHERE keyed.doc_id = m.doc_id)
"""


def key_codes_duckdb(fixture_dir: str) -> list[tuple[str, int, str]]:
    """E11/E80/E71/E72/E701 over the fixture files, by DuckDB."""
    import glob

    import duckdb

    files = sorted(
        f for f in glob.glob(os.path.join(fixture_dir, "*.parquet"))
        if not os.path.basename(f).startswith("_")
    )
    con = duckdb.connect()
    try:
        rows = con.execute(
            _KEY_SQL, {"files": files, "manifest": os.path.join(fixture_dir, MANIFEST)}
        ).fetchall()
    finally:
        con.close()
    return sorted((str(p), int(r), str(c)) for p, r, c in rows)


# ---------------------------------------------------------------------------
# query board tables
# ---------------------------------------------------------------------------

_WORDS = (
    "join hash row batch scan column customer filter small slow merge order "
    "vector line table data agg value key stream window a spark part group "
    "big sort query fast the"
).split()
_DAY_US = 86_400 * 1_000_000


def _dates(rng, n: int, start: str, days: int) -> pa.Array:
    base = int(_dt.datetime.fromisoformat(start).timestamp()) * 1_000_000
    return pa.array(base + rng.integers(0, days, n) * _DAY_US, type=pa.timestamp("us"))


def _pick(rng, values: tuple, n: int) -> pa.Array:
    return pa.array(np.asarray(values, dtype=object)[rng.integers(0, len(values), n)],
                    type=pa.string())


def write_board_tables(out_dir: str, seed: int, lineitem: int, orders: int,
                       documents: int, embeddings: int) -> dict[str, int]:
    """Write the four board tables; return rows per table."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4242]))
    o = pa.table({
        "o_orderkey": pa.array(np.arange(orders, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, max(orders // 10, 1), orders), type=pa.int64()),
        "o_orderstatus": _pick(rng, ("F", "O", "P"), orders),
        "o_totalprice": pa.array(np.round(rng.uniform(1_000, 500_000, orders), 2)),
        "o_orderdate": _dates(rng, orders, "1995-01-01", 2400),
        "o_orderpriority": _pick(
            rng, ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"), orders),
    })
    li = pa.table({
        "l_orderkey": pa.array(rng.integers(0, orders, lineitem), type=pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 2000, lineitem), type=pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, lineitem), type=pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, lineitem), type=pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, lineitem).astype(np.float64)),
        "l_extendedprice": pa.array(np.round(rng.uniform(900, 105_000, lineitem), 2)),
        "l_discount": pa.array(rng.integers(0, 11, lineitem) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, lineitem) / 100.0),
        "l_returnflag": _pick(rng, ("A", "N", "R"), lineitem),
        "l_linestatus": _pick(rng, ("F", "O"), lineitem),
        "l_shipdate": _dates(rng, lineitem, "1995-01-02", 2500),
    })
    # documents: random word strings (pairwise word-3gram Jaccard well
    # under 0.3) plus planted near-duplicates (one word appended, Jaccard
    # above 0.88) — the bimodal corpus the minhash query is specified on
    texts = []
    for i in range(documents):
        if i >= 8 and i % 17 == 0:
            texts.append(texts[int(rng.integers(0, i))] + " dup")
        else:
            n = int(rng.integers(10, 100))
            texts.append(" ".join(np.asarray(_WORDS)[rng.integers(0, len(_WORDS), n)]))
    docs = pa.table({
        "doc_id": pa.array(np.arange(documents, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
        "lang": _pick(rng, ("en", "en", "en", "de", "es", "fr", "zh"), documents),
        "source": pa.array([f"src{i % 20}" for i in range(documents)], type=pa.string()),
        "n_chars": pa.array([len(s) for s in texts], type=pa.int64()),
    })
    vec = rng.normal(size=(embeddings, 64)).astype(np.float32)
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    emb = pa.table({
        "vec_id": pa.array(np.arange(embeddings, dtype=np.int64)),
        "embedding": pa.array(list(vec), type=pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, embeddings), type=pa.int32()),
    })
    tables = {"lineitem": li, "orders": o, "documents": docs, "embeddings": emb}
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return {name: t.num_rows for name, t in tables.items()}


def normalize(df):
    """Order-insensitive comparable frame — the normalisation of the
    repository's oracle tests (sorted columns, int64/float64 widening,
    floats rounded to 6 places, rows sorted)."""
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def board_expected(board_dir: str, oracles: dict[str, str]) -> dict:
    """Normalised DuckDB oracle result per board query."""
    import duckdb

    con = duckdb.connect()
    try:
        for name in ("lineitem", "orders", "documents", "embeddings"):
            path = os.path.join(board_dir, f"{name}.parquet")
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM '{path}'")
        return {q: normalize(con.sql(oracles[q]).df()) for q in BOARD}
    finally:
        con.close()


def prepare(name: str, work_dir: str, seed: int, size_name: str):
    """Write a workload's inputs under ``work_dir/data``; return
    ``(data_dir, expected)``."""
    size = SIZES[size_name][name]
    data_dir = os.path.join(work_dir, "data")
    if name == "payload_scan":
        planted = write_payload_fixture(data_dir, seed, **size)
        return data_dir, sorted(planted + key_codes_duckdb(data_dir))
    if name == "key_exchange":
        write_key_fixture(data_dir, seed, **size)
        return data_dir, key_codes_duckdb(data_dir)
    from fastpasta_ray.pipelines.queries import ORACLES

    rows = write_board_tables(data_dir, seed, **size)
    return data_dir, (rows, board_expected(data_dir, ORACLES))


if __name__ == "__main__":
    import pickle
    import sys

    _name, _work, _seed, _size = sys.argv[1:5]
    _out = prepare(_name, _work, int(_seed), _size)
    with open(os.path.join(_work, EXPECTED), "wb") as _f:
        pickle.dump(_out, _f)
