"""Query-layer block sizing and execution budget: results must not depend
on how many blocks a read makes (``_rp`` caps every count at 2× cluster
CPUs), the folded queries must not grow extra streaming executions, the
``_fold`` helper keeps its contract, and the broadcast-join, media and
exchange queries must finish on a 1-CPU cluster."""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

import ray
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from fastpasta_ray.pipelines import queries as Q
from fastpasta_ray.sources import parquet as P
from tests.test_queries_oracle import SF_DIR, assert_matches_oracle

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CAPPED = ["lineitem_agg", "quantile_filter", "minhash_pairs", "decontam_clean_count"]


def _read_blocks(monkeypatch, cpus: int, blocks) -> int:
    """The override_num_blocks ``_rp`` hands to read_parquet at ``cpus``."""
    seen = []
    monkeypatch.setattr(P, "cluster_cpus", lambda default=8: cpus)
    monkeypatch.setattr(
        ray.data, "read_parquet", lambda path, **kw: seen.append(kw["override_num_blocks"])
    )
    Q._rp(SF_DIR, "documents", ["doc_id"], blocks=blocks)
    return seen[0]


def test_rp_caps_block_count_at_twice_cluster_cpus(monkeypatch):
    assert _read_blocks(monkeypatch, 32, 32) == 32
    assert _read_blocks(monkeypatch, 1, 32) == 2
    assert _read_blocks(monkeypatch, 2, 8) == 4
    # an ordering requirement (sequence_packing) keeps its single block
    assert _read_blocks(monkeypatch, 1, 1) == 1
    # the size-aware default is unchanged: 2 blocks for a small table
    assert _read_blocks(monkeypatch, 32, None) == 2


@pytest.mark.parametrize("cpus", [1, 2, 32])
def test_capped_queries_layout_independent(monkeypatch, cpus):
    """The same oracle answer whatever block count the cap picks (1 and 2
    CPUs shrink the blocks=32/8 reads; 32 keeps them)."""
    monkeypatch.setattr(P, "cluster_cpus", lambda default=8: cpus)
    for name in CAPPED:
        assert_matches_oracle(name, Q.QUERIES[name](SF_DIR))


EXCHANGE_QUERIES = [
    "asof_purchase_attribution", "range_join_views_near_purchase",
    "rolling_window_count", "session_stats", "nonmonotonic_events",
    "hll_distinct_users",
]


@pytest.mark.parametrize("n_parts", [1, 3, 8])
def test_exchange_queries_layout_independent(monkeypatch, n_parts):
    """The same oracle answer at 1, 3 and 8 hash_exchange reduce tasks."""
    import fastpasta_ray.exchange as X

    monkeypatch.setattr(X, "_reduce_task_count", lambda cpus, rows: n_parts)
    for name in EXCHANGE_QUERIES:
        assert_matches_oracle(name, Q.QUERIES[name](SF_DIR))


# streaming executions per board query on sf0.001 before the block cap and
# the driver folds; none may grow, and quantile_filter is now one pass
EXECUTIONS_BEFORE = {
    "lineitem_agg": 1,
    "top_orders": 1,
    "top_docs_per_source": 1,
    "q12_priority_lines": 2,
    "embedding_stats": 1,
    "quantile_filter": 2,
    "budget_trim": 1,
    "ivf_similarity": 6,
    "minhash_pairs": 2,
    "decontam_clean_count": 3,
}


def test_media_stats_one_execution(monkeypatch):
    """Both decoders run in one task-pool plan over one read: one streaming
    execution, and the result equals the oracle."""
    count = [0]
    real = StreamingExecutor.execute

    def counting(self, *a, **kw):
        count[0] += 1
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    assert_matches_oracle("media_stats", Q.QUERIES["media_stats"](SF_DIR))
    assert count[0] == 1


def test_fold_contract():
    """``_fold`` with the stock combines: a NULL key is its own group,
    sorted last; batches that are all emptied give a typed empty table;
    top-k ties break to the lowest id, per group and overall."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = pa.table({"k": ["b", None, "a", "b", None], "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2)])
    merge = Q._merge(["k"], v="sum")
    got = Q._fold(ds, lambda b: Q._agg(b, ["k"], v=("v", "sum")), t.schema, merge)
    assert got.to_pydict() == {"k": ["a", "b", None], "v": [3, 5, 7]}
    assert got.schema == t.schema
    none = Q._fold(ds, lambda b: b.filter(pc.less(b["v"], 0)), t.schema, merge)
    assert none.num_rows == 0 and none.schema == t.schema

    ties = pa.table({"k": ["x", "x", "x", None, None], "id": [3, 1, 2, 9, 8], "v": [7, 7, 1, 0, 0]})
    ds = ray.data.from_arrow([ties.slice(0, 2), ties.slice(2)])
    top = Q._top(1, [("v", "descending"), ("id", "ascending")], group="k")
    assert Q._fold(ds, top, ties.schema, top).to_pydict() == {
        "k": ["x", None], "id": [1, 8], "v": [7, 0]}
    top = Q._top(2, [("v", "ascending"), ("id", "ascending")])
    assert Q._fold(ds, top, ties.schema, top)["id"].to_pylist() == [8, 9]


def test_board_execution_budget(monkeypatch):
    count = [0]
    real = StreamingExecutor.execute

    def counting(self, *a, **kw):
        count[0] += 1
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    got = {}
    for name in EXECUTIONS_BEFORE:
        count[0] = 0
        res = Q.QUERIES[name](SF_DIR)
        if isinstance(res, ray.data.Dataset):
            res.to_arrow_refs()
        got[name] = count[0]
    assert got["quantile_filter"] == 1
    over = {n: (got[n], c) for n, c in EXECUTIONS_BEFORE.items() if got[n] > c}
    assert not over, f"executions (now, before): {over}"


# the two broadcast joins and media_stats (a fixed-size actor pool once held
# the only CPU and starved the read) and every query that runs through
# hash_exchange (asof_purchase_attribution's sort-based union once hung at
# 1 CPU)
ONE_CPU = (
    "customers_without_orders", "orders_by_segment", "media_stats",
    "asof_purchase_attribution", "range_join_views_near_purchase",
    "rolling_window_count", "session_stats", "nonmonotonic_events",
    "hll_distinct_users", "exact_dup_count", "simhash_pairs",
    "neardup_clusters", "embedding_neardups", "contamination_check_dist",
    "curation_pipeline",
)

_ONE_CPU_SCRIPT = textwrap.dedent(
    f"""
    import ray
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from fastpasta_ray.pipelines import queries as Q
    from tests.test_queries_oracle import SF_DIR, assert_matches_oracle
    for name in {ONE_CPU!r}:
        assert_matches_oracle(name, Q.QUERIES[name](SF_DIR))
        print("ok", name, flush=True)
    ray.shutdown()
    """
)


def test_queries_finish_on_one_cpu():
    """Each query in ONE_CPU finishes on a 1-CPU cluster and equals its
    DuckDB oracle."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its Ray processes share the group
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        pytest.fail(f"1-CPU run did not finish in 120 s; stdout: {out!r}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # reap leftover Ray processes
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, err[-2000:]
    assert out.split("\n")[: len(ONE_CPU)] == [f"ok {name}" for name in ONE_CPU]
