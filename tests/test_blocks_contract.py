"""The ``functions/`` return contract: every entry point takes ``Blocks``
or a table and returns ``exchange.Blocks`` whose every block carries
exactly its schema, typed empties included; ``hash_exchange`` refuses a
side without its key before any task starts; and Ray Data is called only
in the two kept shuffle queries, with one streaming execution each, and in
``deterministic_shuffle``."""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest

import ray

import fastpasta_ray
import fastpasta_ray.exchange as X
from fastpasta_ray.exchange import Blocks, map_blocks
from fastpasta_ray.functions import (
    decontam,
    dedup,
    joins,
    packing,
    sampling,
    similarity,
    text,
    windows,
)

CENT = np.eye(8)[:3]


def _inputs() -> dict[str, pa.Table]:
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choice(words, size=8)) for _ in range(10)]
    texts[3] = texts[2]  # an exact and a near duplicate
    emb = rng.normal(size=(10, 8))
    emb[7] = emb[6]
    ts = np.datetime64("2024-01-01T00:00:00", "us") + rng.integers(0, 7200, 10) * 10**6
    return {
        "docs": pa.table({
            "doc_id": pa.array(np.arange(10), pa.int64()),
            "text": texts,
            "source": ["a", "b"] * 5,
            "n_tok": pa.array(rng.integers(1, 40, 10), pa.int32()),
        }),
        "emb": pa.table({
            "vec_id": pa.array(np.arange(10), pa.int64()),
            "embedding": pa.array(list(emb.astype(np.float32)), pa.list_(pa.float32())),
        }),
        "events": pa.table({
            "event_id": pa.array(np.arange(10), pa.int64()),
            "user_id": pa.array(rng.integers(0, 3, 10), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }),
        "pairs": pa.table({"doc_a": pa.array([2, 0], pa.int64()),
                           "doc_b": pa.array([3, 1], pa.int64())}),
    }


def _blocks(t: pa.Table) -> Blocks:
    """``t`` as three blocks, the middle one a typed empty."""
    parts = [t.slice(0, 4), t.slice(4, 0), t.slice(4)]
    return Blocks([ray.put(p) for p in parts], t.schema, t.num_rows)


def _unigram(src):
    return text.unigram_logprob_score(src, *text.unigram_logprob_table(src))


ENTRY_POINTS = {
    # map-only: a view of the input
    "kmeans_assign": lambda d: similarity.kmeans_assign(d["emb"], CENT),
    "contamination_check": lambda d: decontam.contamination_check(d["docs"], d["docs"]),
    "pack_sequences": lambda d: packing.pack_sequences(d["docs"], context_len=64),
    "unigram_logprob_score": lambda d: _unigram(d["docs"]),
    "mixture_sample": lambda d: sampling.mixture_sample(
        d["docs"], key_col="doc_id", stratum_col="source", weights={"a": 1, "b": 1})[0],
    "hash_sample": lambda d: sampling.hash_sample(d["docs"], key_col="doc_id", num=500),
    "stratified_sample": lambda d: sampling.stratified_sample(
        d["docs"], key_col="doc_id", stratum_col="source", rates={"a": 0.5}),
    "with_hashed_ids": lambda d: dedup.with_hashed_ids(d["docs"], "source"),
    # exchange-backed: the reduce tasks' outputs
    "exact_dup_groups": lambda d: dedup.exact_dup_groups(d["docs"]),
    "drop_exact_dups": lambda d: dedup.drop_exact_dups(d["docs"]),
    "exact_jaccard_verify": lambda d: dedup.exact_jaccard_verify(
        d["pairs"], d["docs"], threshold=0.1),
    "minhash_lsh_pairs": lambda d: dedup.minhash_lsh_pairs(d["docs"], threshold=0.1),
    "simhash_near_dups": lambda d: dedup.simhash_near_dups(d["docs"]),
    "embedding_near_dup_pairs": lambda d: similarity.embedding_near_dup_pairs(
        d["emb"], threshold=0.9, dim=8),
    "semantic_dedup": lambda d: similarity.semantic_dedup(d["emb"], CENT, threshold=0.9),
    "contamination_check_distributed": lambda d: decontam.contamination_check_distributed(
        d["docs"], d["docs"]),
    "rolling_count": lambda d: windows.rolling_count(d["events"]),
    "sessionize": lambda d: windows.sessionize(d["events"], gap_seconds=600.0),
    "asof_join": lambda d: joins.asof_join(d["events"], d["events"], on="ts", by="user_id"),
    "range_join_count": lambda d: joins.range_join_count(d["events"], d["events"], by="user_id"),
}


@pytest.mark.parametrize("size", ["small", "zero"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_returns_typed_blocks(monkeypatch, name, size):
    """On a small input (three blocks, one of them empty) and on a
    zero-row table, the result is ``Blocks`` and every block it yields has
    exactly ``Blocks.schema``. Exchanges run 3 reduce tasks, so some get no
    rows and must still return a typed table. ``mixture_sample`` refuses a
    zero-row input: a weighted stratum with no rows fails loudly."""
    monkeypatch.setattr(X, "_reduce_task_count", lambda cpus, rows: 3)
    data = _inputs()
    data = ({k: _blocks(t) if k != "pairs" else t for k, t in data.items()} if size == "small"
            else {k: t.slice(0, 0) for k, t in data.items()})
    if name == "mixture_sample" and size == "zero":
        with pytest.raises(ValueError, match="no rows"):
            ENTRY_POINTS[name](data)
        return
    out = ENTRY_POINTS[name](data)
    assert isinstance(out, Blocks)
    got = ray.get(map_blocks(None, out))
    assert got
    for b in got:
        assert b.schema == out.schema, (b.schema, out.schema)
    if size == "small" and name in ("drop_exact_dups", "exact_dup_groups", "sessionize"):
        assert sum(b.num_rows for b in got) > 0


@pytest.mark.parametrize("cpus", [1, 32])
def test_hash_exchange_missing_key_fails_on_the_driver(monkeypatch, cpus):
    """A side without the key column raises ``ValueError`` before any task
    starts: at 1 CPU (one reduce task, where blocks without a view skip the
    map step and ``fn`` would run without the key) and at 32 (8 reduce
    tasks, where a map task would fail in a worker with a KeyError)."""

    class NoTask:
        def options(self, **kw):
            return self

        def remote(self, *args):
            raise AssertionError("a task was launched")

    monkeypatch.setattr(X, "cluster_cpus", lambda default=8: cpus)
    monkeypatch.setattr(X, "_map_side", NoTask())
    monkeypatch.setattr(X, "_reduce_side", NoTask())
    good = pa.table({"key": [1, 2], "v": [3, 4]})
    for sides in (pa.table({"v": [5]}), (good, pa.table({"v": [5]})),
                  X.blocks(good).select_columns(["v"])):
        with pytest.raises(ValueError, match="'key' is not a column"):
            X.hash_exchange(sides, "key", lambda *t: t[0])


# Ray Data calls and where they may appear: the two queries whose point is
# a Ray Data shuffle, and the global sort of ``deterministic_shuffle``
RAY_DATA_CALLS = {"from_arrow_refs", "map_batches", "read_parquet", "write_parquet", "from_items"}
ALLOWED_RAY_DATA_CALLS = {
    ("pipelines/queries.py", "q_word_topk", "from_arrow_refs"),
    ("pipelines/queries.py", "q_source_histogram_salted", "from_arrow_refs"),
    ("functions/packing.py", "deterministic_shuffle", "map_batches"),
}


def _ray_data_calls(tree: ast.AST, path: str) -> set:
    """``(path, innermost function, name)`` of every call to a name in
    ``RAY_DATA_CALLS``, as a method or a bare name."""
    sites = set()

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in RAY_DATA_CALLS:
                sites.add((path, fn, name))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "<module>")
    return sites


def test_dataset_wraps_only_in_the_kept_shuffles():
    """Ray Data is called only where the shuffle is the point:
    ``from_arrow_refs`` only in the two kept shuffle queries,
    ``map_batches`` only in ``deterministic_shuffle``, and
    ``read_parquet``, ``write_parquet`` and ``from_items`` nowhere (reads
    and writes are ``sources.parquet``'s raw tasks). No ``as_table`` flag
    is left, and no ``functions/`` signature names a Dataset except
    ``deterministic_shuffle``, a global sort."""
    root = pathlib.Path(fastpasta_ray.__file__).parent
    sites, dataset_sigs = set(), set()
    for file in sorted(root.rglob("*.py")):
        path, src = file.relative_to(root).as_posix(), file.read_text()
        assert "as_table" not in src, path
        tree = ast.parse(src)
        sites |= _ray_data_calls(tree, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                sig = ast.unparse(node.args) + " -> " + (ast.unparse(node.returns) if node.returns else "")
                if path.startswith("functions/") and "Dataset" in sig:
                    dataset_sigs.add(node.name)
    assert sites == ALLOWED_RAY_DATA_CALLS
    assert dataset_sigs == {"deterministic_shuffle"}


@pytest.mark.parametrize("name", ["word_topk", "source_histogram_salted"])
def test_kept_shuffles_run_one_execution(monkeypatch, name):
    """The two queries that keep a Ray Data shuffle run one streaming
    execution (the aggregate) and hand its block refs to ``_fold``; a lazy
    ``to_arrow_refs`` would run the plan again for its schema."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from fastpasta_ray.pipelines import queries as Q
    from tests.test_queries_oracle import SF_DIR, assert_matches_oracle

    count, real = [0], StreamingExecutor.execute

    def counting(self, *a, **kw):
        count[0] += 1
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    assert_matches_oracle(name, Q.QUERIES[name](SF_DIR))
    assert count[0] == 1
