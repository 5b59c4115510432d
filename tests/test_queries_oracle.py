"""Driver-contract simulation: run each queries() entry and its oracle_sql()
side by side on sf0.001 and compare row-count + schema + order-insensitive
values (the CORRECTNESS_r{N}.json gate)."""

import glob
import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entry_mod

SF_DIR = "/root/testdata/sf0.001"


def _oracle_con(sf_dir: str = SF_DIR):
    con = duckdb.connect()
    for f in glob.glob(os.path.join(sf_dir, "*.parquet")):
        name = os.path.splitext(os.path.basename(f))[0]
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM '{f}'")
    return con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        # Widen within a dtype family (the driver's hash tolerates int32 vs
        # int64 / float32 vs float64 — verified in CORRECTNESS_r01: label_stats
        # int32 and similarity_top10 float32 both hash-matched) but NOT across
        # families (int64 vs HUGEINT->float64 failed 4 queries in r1).
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _as_df(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def assert_matches_oracle(name: str, res, sf_dir: str = SF_DIR) -> None:
    """Compare one query result to its DuckDB oracle on ``sf_dir``."""
    got = _normalize(_as_df(res))
    con = _oracle_con(sf_dir)
    exp = _normalize(con.sql(entry_mod.oracle_sql()[name]).df())
    assert list(got.columns) == list(exp.columns), (
        f"{name}: columns {list(got.columns)} != {list(exp.columns)}"
    )
    assert len(got) == len(exp), f"{name}: {len(got)} rows != {len(exp)}"
    # check_dtype=True replicates the driver's hash gate: DuckDB HUGEINT sums
    # land as float64 in pandas while the engine emits int64 — the values hash
    # differently even when numerically equal (VERDICT r1 "What's wrong" #1).
    pd.testing.assert_frame_equal(got, exp, check_dtype=True, check_exact=False, rtol=1e-6)


SQL_KEYS = sorted(entry_mod.oracle_sql())


@pytest.mark.parametrize("name", SQL_KEYS)
def test_query_matches_oracle(name):
    assert_matches_oracle(name, entry_mod.queries()[name](SF_DIR))


ROWS_ONLY = sorted(set(entry_mod.queries()) - set(entry_mod.oracle_sql()))


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(name):
    res = _as_df(entry_mod.queries()[name](SF_DIR))
    assert res is not None
    assert len(res.columns) > 0


def test_entry_smoke():
    res = entry_mod.entry()
    df = _as_df(res)
    assert len(df) >= 0
    assert len(df.columns) > 0


def test_budget_trim_cross_batch_overflow(tmp_path):
    """Regression (r5 code review): the pre-trim must keep each (batch,
    source) run's FIRST overflow doc — dropping it removes its n_chars
    from later docs' global cumsum and over-keeps docs past the budget
    when a source spans batches. Crafted so block 1 overflows (3000+3000)
    and block 2 holds a higher doc_id that must NOT be kept (true cum
    7000 > 5000). A source whose first doc alone is over the budget keeps
    nothing and, as in the oracle, has no row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastpasta_ray.pipelines.queries import QUERIES

    d = str(tmp_path / "sfx")
    os.makedirs(d)
    t = pa.table(
        {
            # two blocks: docs 1, 2, 4 and docs 3, 5
            "doc_id": pa.array([1, 2, 4, 3, 5], type=pa.int64()),
            "source": pa.array(["s", "s", "t", "s", "t"]),
            "n_chars": pa.array([3000, 3000, 6000, 1000, 10], type=pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    got = QUERIES["budget_trim"](d)
    # only doc 1 fits the 5000 budget (cum 3000, 6000, 7000); source t's
    # first doc is over it (cum 6000, 6010)
    assert got.to_pydict() == {"source": ["s"], "n_docs": [1], "n_chars_kept": [3000]}
    assert_matches_oracle("budget_trim", got, d)


@pytest.mark.parametrize(
    "orders",
    [
        # custkey 99 has no customer: the oracle's inner JOIN drops it
        {"o_custkey": [1, 2, 2, 99], "o_totalprice": [10.0, 20.5, 1.25, 7.0]},
        {"o_custkey": [], "o_totalprice": []},
    ],
    ids=["orphan_order", "no_orders"],
)
def test_broadcast_joins_on_edge_orders(tmp_path, orders):
    """orders_by_segment keeps no NULL segment for an order without a
    customer, and neither broadcast join crashes when orders has no rows
    (an empty broadcast side)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastpasta_ray.pipelines.queries import QUERIES

    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], type=pa.int64()),
                "c_name": ["c1", "c2", "c3"],
                "c_mktsegment": ["BUILDING", "MACHINERY", "BUILDING"],
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array(orders["o_custkey"], type=pa.int64()),
                "o_totalprice": pa.array(orders["o_totalprice"], type=pa.float64()),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    for name in ("customers_without_orders", "orders_by_segment"):
        assert_matches_oracle(name, QUERIES[name](str(tmp_path)), str(tmp_path))


def test_event_queries_on_empty_events(tmp_path):
    """The exchange-backed event summaries on a zero-row ``events`` table
    answer like their oracles (COUNT 0, SUM and MAX NULL): the read keeps
    its parquet schema, so every exchange side arrives typed."""
    import pyarrow.parquet as pq

    from fastpasta_ray.pipelines.queries import QUERIES

    events = pq.read_table(os.path.join(SF_DIR, "events.parquet"))
    pq.write_table(events.slice(0, 0), str(tmp_path / "events.parquet"))
    for name in ("session_stats", "rolling_window_count",
                 "range_join_views_near_purchase", "asof_purchase_attribution"):
        assert_matches_oracle(name, QUERIES[name](str(tmp_path)), str(tmp_path))
