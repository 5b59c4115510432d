"""Query-layer block sizing and execution budget: results must not depend
on how many blocks a read makes (``_rp`` caps every count at 2× cluster
CPUs), the board, multi-pass and exchange-backed queries run no streaming
execution (a raw-task read, then raw-task waves over its blocks), the
``_fold`` helper keeps its contract, IVF search and decontamination give
the same rows at any block count, and the broadcast-join, media, exchange
and ported shuffle/actor-pool queries must finish on a 1-CPU cluster."""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

import ray
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from fastpasta_ray.exchange import Blocks
from fastpasta_ray.pipelines import queries as Q
from fastpasta_ray.sources import parquet as P
from tests.test_queries_oracle import SF_DIR, assert_matches_oracle

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CAPPED = ["lineitem_agg", "quantile_filter", "minhash_pairs", "decontam_clean_count"]


def _read_blocks(monkeypatch, cpus: int, blocks) -> int:
    """The number of slices ``_rp``'s read task returns at ``cpus``."""
    monkeypatch.setattr(P, "cluster_cpus", lambda default=8: cpus)
    return len(Q._rp(SF_DIR, "documents", ["doc_id"], blocks=blocks).refs)


def test_rp_caps_block_count_at_twice_cluster_cpus(monkeypatch):
    assert _read_blocks(monkeypatch, 32, 32) == 32
    assert _read_blocks(monkeypatch, 1, 32) == 2
    assert _read_blocks(monkeypatch, 2, 8) == 4
    # an ordering requirement (sequence_packing) keeps its single block
    assert _read_blocks(monkeypatch, 1, 1) == 1
    # the size-aware default is unchanged: 2 blocks for a small table
    assert _read_blocks(monkeypatch, 32, None) == 2


@pytest.mark.parametrize("n_files", [1, 3, 8])
def test_read_blocks_over_a_directory_equals_rp(tmp_path, n_files):
    """``read_blocks`` over a directory of 1, 3 or 8 files cut from one
    table gives the rows ``_rp`` gives over the single file, plain, with
    ``columns=`` and with ``filter=``; every block has exactly
    ``Blocks.schema``, and a ``_``-prefixed file is not read."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from fastpasta_ray.exchange import collect

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    cuts = [t.num_rows * i // n_files for i in range(n_files + 1)]
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        pq.write_table(t.slice(a, b - a), str(tmp_path / f"part-{i:04d}.parquet"))
    pq.write_table(t.slice(0, 3), str(tmp_path / "_manifest.parquet"))
    some = pads.field("source").isin(["src3", "src7"])
    for kw in ({}, {"columns": ["doc_id", "source"]}, {"filter": some}):
        got = P.read_blocks(str(tmp_path), **kw)
        assert len(got.refs) >= n_files
        assert collect(got).equals(collect(Q._rp(SF_DIR, "documents", **kw))), kw
        for b in ray.get(got.refs):
            assert b.schema == got.schema


def test_read_blocks_empty_files_and_schema_mismatch(tmp_path):
    """A zero-row file is one typed empty block; a zero-row file next to a
    full one adds no block; files whose schemas differ, or a file whose
    footer cannot be read, raise ``ValueError`` on the driver naming the
    file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({"a": pa.array([1, 2, 3], pa.int64()), "s": ["x", "y", "z"]})
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(t.slice(0, 0), empty)
    got = P.read_blocks(empty)
    assert got.rows == 0 and len(got.refs) == 1
    (b,) = ray.get(got.refs)
    assert b.num_rows == 0 and b.schema == t.schema == got.schema

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    pq.write_table(t.slice(0, 0), str(mixed / "part-0.parquet"))
    pq.write_table(t, str(mixed / "part-1.parquet"))
    got = P.read_blocks(str(mixed))
    assert got.rows == 3 and all(b.num_rows for b in ray.get(got.refs))

    bad = tmp_path / "bad"
    bad.mkdir()
    pq.write_table(t, str(bad / "part-0.parquet"))
    pq.write_table(t.select(["a"]), str(bad / "part-1.parquet"))
    with pytest.raises(ValueError, match="differs"):
        P.read_blocks(str(bad))

    # an unreadable file is named in the error, not a bare ArrowInvalid
    cut = tmp_path / "cut"
    cut.mkdir()
    pq.write_table(t, str(cut / "part-0.parquet"))
    raw = (cut / "part-0.parquet").read_bytes()
    (cut / "part-1.parquet").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValueError, match="part-1.parquet"):
        P.read_blocks(str(cut))


def test_write_blocks_rerun_with_fewer_blocks(tmp_path):
    """A re-run into the same directory with fewer blocks removes the
    writer's own ``part-NNNNN.parquet`` files its write did not replace,
    so ``read_blocks`` reads back only the new rows; other files stay."""
    import pyarrow as pa

    t = pa.table({"a": pa.array(range(10), pa.int64())})
    out = str(tmp_path / "out")
    assert P.write_blocks(Blocks([ray.put(t.slice(0, 5)), ray.put(t.slice(5))], t.schema, 10),
                          out) == 10
    keep = os.path.join(out, "_keep.parquet")
    with open(keep, "w") as f:
        f.write("not this writer's")
    assert P.write_blocks(Blocks([ray.put(t.slice(0, 3))], t.schema, 3), out) == 3
    assert sorted(os.listdir(out)) == ["_keep.parquet", "part-00000.parquet"]
    got = P.read_blocks(out)
    assert sum(b.num_rows for b in ray.get(got.refs)) == 3


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
# the driver folds; each now runs none (a raw-task read, then waves)
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


ONE_READ = ("asof_purchase_attribution", "range_join_views_near_purchase",
            "rolling_window_count", "session_stats", "exact_dup_count",
            "embedding_neardups", "similarity_top10", "media_stats",
            "simhash_pairs", "contamination_check", "contamination_check_dist",
            "kmeans_assign")


def _count_executions(monkeypatch) -> list:
    count = [0]
    real = StreamingExecutor.execute

    def counting(self, *a, **kw):
        count[0] += 1
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return count


@pytest.mark.parametrize("name", ONE_READ)
def test_one_execution(monkeypatch, name):
    """One raw-task read, no streaming execution, and the oracle's answer.
    Executions on a Ray Data read, for comparison: the exchange-backed
    queries 2 (the two joins 3, one per filtered side), similarity_top10
    2, media_stats 1, and simhash_pairs 2, contamination_check 2,
    contamination_check_dist 3 and kmeans_assign 2, each of which now
    shares one read across its passes."""
    count = _count_executions(monkeypatch)
    assert_matches_oracle(name, Q.QUERIES[name](SF_DIR))
    assert count[0] == 0


def test_rp_fold_layout_and_empty_table(monkeypatch, tmp_path):
    """``_fold`` over ``_rp``'s raw-task read gives the same answers when
    the table is read as 1, 3 or 8 blocks, also when a pushed-down filter
    empties some of them; a zero-row file reads as one typed empty block
    and folds to typed empty (or SQL-NULL) answers."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    monkeypatch.setattr(P, "cluster_cpus", lambda default=8: 8)
    t = pa.table({"k": pa.array(["b", None, "a", "b", "c", None, "a"] * 5),
                  "v": pa.array(range(35), pa.int64())})
    pq.write_table(t, str(tmp_path / "t.parquet"))
    pq.write_table(t.slice(0, 0), str(tmp_path / "empty.parquet"))
    by_k = Q._merge(["k"], v="sum")
    total = Q._merge([], v="sum")
    top = Q._top(2, [("v", "descending")], group="k")

    def answers(table: str, n: int, filter=None) -> list:
        src = Q._rp(str(tmp_path), table, blocks=n, filter=filter)
        return [
            len(src.refs),
            Q._fold(src, lambda b: Q._agg(b, ["k"], v=("v", "sum")), t.schema, by_k),
            Q._fold(src, lambda b: Q._agg(b, [], v=("v", "sum")), pa.schema({"v": pa.int64()}),
                    total),
            Q._fold(src, top, t.schema, top),
            Q._fold(src, None, t.schema).sort_by("v"),
        ]

    one = answers("t", 1)
    assert one[1].to_pydict() == {"k": ["a", "b", "c", None], "v": [180, 155, 90, 170]}
    assert one[2].to_pydict() == {"v": [595]} and one[4].equals(t)
    for n in (3, 8):
        got = answers("t", n)
        assert got[0] == n and all(a.equals(b) for a, b in zip(got[1:], one[1:]))
    late = pads.field("v") >= 30  # 5 rows pass: at 8 blocks, 3 slices are empty
    kept = [answers("t", n, late) for n in (1, 3, 8)]
    assert kept[0][2].to_pydict() == {"v": [160]}
    assert all(a.equals(b) for k in kept[1:] for a, b in zip(k[1:], kept[0][1:]))

    n_refs, grouped, summed, topk, rows = answers("empty", 8)
    assert n_refs == 1
    assert grouped.num_rows == 0 and grouped.schema == t.schema
    assert summed.to_pydict() == {"v": [None]}
    assert topk.num_rows == 0 and rows.num_rows == 0 and rows.schema == t.schema


def test_fold_contract():
    """``_fold`` with the stock combines: a NULL key is its own group,
    sorted last; batches that are all emptied give a typed empty table;
    top-k ties break to the lowest id, per group and overall."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = pa.table({"k": ["b", None, "a", "b", None], "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    ds = _blocks_of(t, 2)
    merge = Q._merge(["k"], v="sum")
    got = Q._fold(ds, lambda b: Q._agg(b, ["k"], v=("v", "sum")), t.schema, merge)
    assert got.to_pydict() == {"k": ["a", "b", None], "v": [3, 5, 7]}
    assert got.schema == t.schema
    none = Q._fold(ds, lambda b: b.filter(pc.less(b["v"], 0)), t.schema, merge)
    assert none.num_rows == 0 and none.schema == t.schema

    ties = pa.table({"k": ["x", "x", "x", None, None], "id": [3, 1, 2, 9, 8], "v": [7, 7, 1, 0, 0]})
    ds = _blocks_of(ties, 2)
    top = Q._top(1, [("v", "descending"), ("id", "ascending")], group="k")
    assert Q._fold(ds, top, ties.schema, top).to_pydict() == {
        "k": ["x", None], "id": [1, 8], "v": [7, 0]}
    top = Q._top(2, [("v", "ascending"), ("id", "ascending")])
    assert Q._fold(ds, top, ties.schema, top)["id"].to_pylist() == [8, 9]


def test_board_execution_budget(monkeypatch):
    count = _count_executions(monkeypatch)
    got = {}
    for name in EXECUTIONS_BEFORE:
        count[0] = 0
        res = Q.QUERIES[name](SF_DIR)
        if isinstance(res, ray.data.Dataset):
            res.to_arrow_refs()
        got[name] = count[0]
    ran = {n: c for n, c in got.items() if c}
    assert not ran, f"streaming executions per board query: {ran}"


def _blocks_of(t, n: int) -> Blocks:
    """``t`` as ``Blocks`` of ``n`` contiguous slices, each put once."""
    step = -(-t.num_rows // n)
    return Blocks([ray.put(t.slice(i, step)) for i in range(0, t.num_rows, step)],
                  t.schema, t.num_rows)


def _vectors(m):
    import numpy as np
    import pyarrow as pa

    return pa.table({"vec_id": pa.array(np.arange(len(m)), pa.int64()),
                     "embedding": pa.array(list(m.astype(np.float32)),
                                           type=pa.list_(pa.float32()))})


def _ivf_cases():
    import numpy as np

    rng = np.random.default_rng(0)
    few = np.random.default_rng(1).normal(size=(20, 8))
    dirs = rng.normal(size=(3, 8))
    dups = np.repeat(dirs, 10, axis=0)
    ties = np.concatenate([np.repeat(dirs[:1], 12, axis=0), rng.normal(size=(40, 8))])
    ties = ties[rng.permutation(len(ties))]
    return {"few_first_hits": (few, few[0]), "empty_probe": (dups, dirs[0]),
            "tie_at_kth": (ties, dirs[0])}


IVF_CASES = _ivf_cases()


@pytest.mark.parametrize("n_blocks", [1, 3, 8])
@pytest.mark.parametrize("case", sorted(IVF_CASES))
def test_ivf_equals_brute_force_at_any_layout(monkeypatch, case, n_blocks):
    """Exact IVF equals brute-force cosine top-10 over the same corpus in
    1, 3 and 8 blocks, when the first probe wave has fewer than k hits,
    when a probe wave finds no row (clusters that kept a centroid but no
    member), and when rows tie at the kth score (12 copies of the query
    vector for k=10: the lowest ids win on both paths)."""
    import numpy as np

    from fastpasta_ray.functions import similarity as S

    waves, real = [], S._candidates

    def spy(src, q, k, id_col, emb_col, cent=None, probe=None):
        t = real(src, q, k, id_col, emb_col, cent, probe)
        if probe is not None:
            waves.append(t.num_rows)
        return t

    monkeypatch.setattr(S, "_candidates", spy)
    m, q = IVF_CASES[case]
    ds = _blocks_of(_vectors(m), n_blocks)
    got = S.ivf_topk_exact(ds, q, k=10).select(["vec_id", "cosine"])
    brute = S.cosine_topk(ds, q, k=10).select(["vec_id", "cosine"])
    assert got.equals(brute)
    if case == "few_first_hits":
        assert waves[0] < 10 and len(waves) == 2
    elif case == "empty_probe":
        assert 0 in waves
    else:
        sims = (m / np.linalg.norm(m, axis=1, keepdims=True)) @ (q / np.linalg.norm(q))
        assert np.sort(np.round(sims, 12))[::-1][9] == np.sort(np.round(sims, 12))[::-1][10]
        assert got["vec_id"].to_pylist() == sorted(np.flatnonzero(np.isclose(sims, 1.0)))[:10]


def test_kmeans_fit_one_execution(monkeypatch):
    """Lloyd's k-means starts no streaming execution over a viewed input:
    the hash-sample init and every iteration are waves over its blocks
    (once n_iter + 2 executions; later one, a lazy Dataset input's own)."""
    import numpy as np

    from fastpasta_ray.functions.similarity import kmeans_fit

    m = np.random.default_rng(3).normal(size=(60, 8))
    ds = _blocks_of(_vectors(m), 3).view(lambda b: b)
    count = _count_executions(monkeypatch)
    assert kmeans_fit(ds, k=3, n_iter=4).shape == (3, 8)
    assert count[0] == 0


def _decontam_corpus():
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, size=12)) for _ in range(200)]
    return pa.table({"doc_id": pa.array(np.arange(200), pa.int64()), "text": texts})


def test_decontaminate_layout_and_cap(monkeypatch):
    """``decontaminate`` keeps the same rows whether its inputs come in 1
    or 3 blocks, and a benchmark side over ``MAX_BENCH_NGRAMS`` still
    fails loudly instead of broadcasting."""
    import numpy as np

    from fastpasta_ray.exchange import map_blocks
    from fastpasta_ray.functions import decontam as D

    t = _decontam_corpus()
    bench, corpus = t.slice(0, 20), t.slice(20)

    def kept(n_blocks):
        out = D.decontaminate(_blocks_of(corpus, n_blocks), _blocks_of(bench, n_blocks), ngram_n=3)
        return np.sort(np.concatenate([b["doc_id"].to_numpy() for b in ray.get(map_blocks(None, out))]))

    one = kept(1)
    assert 0 < len(one) < corpus.num_rows
    assert np.array_equal(one, kept(3))
    monkeypatch.setattr(D, "MAX_BENCH_NGRAMS", 50)
    with pytest.raises(ValueError, match="too large for a broadcast"):
        D.decontaminate(_blocks_of(corpus, 3), _blocks_of(bench, 3), ngram_n=3)


# every query: the ones that once held the only CPU (a fixed-size actor
# pool starved media_stats' read; asof_purchase_attribution's sort-based
# union hung), every hash_exchange and functions/ call site, and the two
# queries still on a Ray Data shuffle (word_topk, source_histogram_salted)
ONE_CPU = tuple(Q.QUERIES)

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
