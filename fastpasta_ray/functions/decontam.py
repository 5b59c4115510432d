"""Benchmark decontamination: flag corpus documents that share word
n-grams with an evaluation/benchmark set.

The standard training-data hygiene step (n-gram overlap decontamination
as published for GPT-3 appendix C / Llama 2 §A.6 — public method): any
training document containing an n-gram that also occurs in a held-out
benchmark is flagged (and typically dropped) so downstream evals are not
contaminated.

Scale shape — broadcast, not shuffle: benchmark sets are small (10^4-10^6
documents) while the corpus is the 10^12-row side, so the benchmark's
unique n-gram hash set is built once, sorted, broadcast via ``ray.put``,
and every corpus batch does a vectorized ``searchsorted`` membership test
against it — zero shuffle, one pass over the corpus. This mirrors
the manifest/IHW-mask broadcast-lookup pattern (SURVEY §2.5 A4) rather
than fastPASTA's per-link dispatch; there is no reference analog —
fastPASTA has no cross-corpus membership operator.

When the benchmark side is itself corpus-sized,
``contamination_check_distributed`` co-partitions both sides' n-gram rows
with one two-sided ``hash_exchange`` instead of broadcasting.

N-grams are word n-grams over a single-space split, hashed per doc with
SET semantics (``word_ngram_hashes_flat``) — identical to the exact
Jaccard verify's ground truth, so a DuckDB oracle can recompute the same
overlap counts from strings.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from fastpasta_ray.exchange import Blocks, blocks, hash_exchange, map_blocks
from fastpasta_ray.functions.dedup import word_ngram_hashes_flat

logger = logging.getLogger(__name__)

# Driver-held benchmark set cap: 2^27 unique n-grams x 8 B = 1 GiB. Real
# eval suites are orders of magnitude below this; hitting the cap means
# the "benchmark" side is actually a corpus and needs the shuffle-join
# path instead of a broadcast.
MAX_BENCH_NGRAMS = 1 << 27


def benchmark_ngram_set(
    bench: "Blocks | pa.Table",
    *,
    text_col: str = "text",
    ngram_n: int = 3,
) -> np.ndarray:
    """Sorted unique word-n-gram hashes of the benchmark corpus.

    Per-block unique sets are computed in one wave of raw tasks; the
    driver only merges the (already-deduped) partials — bounded by
    MAX_BENCH_NGRAMS, enforced loudly."""

    def partial(b: pa.Table) -> np.ndarray:
        return np.unique(word_ngram_hashes_flat(b[text_col], ngram_n)[0])

    parts = [p for p in ray.get(map_blocks(partial, blocks(bench))) if len(p)]
    if not parts:
        return np.zeros(0, dtype=np.uint64)
    # cap check BEFORE the concatenate: sum of per-block uniques bounds the
    # global unique count, so a corpus-sized "benchmark" fails here instead
    # of OOMing the driver on the multi-GB concat (code-review r3)
    total = sum(len(p) for p in parts)
    if total > MAX_BENCH_NGRAMS:
        raise ValueError(
            f"benchmark n-gram partials total {total} hashes "
            f"(> {MAX_BENCH_NGRAMS}); this side is too large for a broadcast "
            "— use contamination_check_distributed (hash-partitioned "
            "n-gram semi-join) instead"
        )
    return np.unique(np.concatenate(parts))


def _overlap_counts(batch: pa.Table, bs: np.ndarray, text_col: str, ngram_n: int) -> np.ndarray:
    """Per-row count of distinct word-n-grams also present in the sorted
    benchmark hash set ``bs`` (vectorized searchsorted + reduceat)."""
    flat, off = word_ngram_hashes_flat(batch[text_col], ngram_n)
    if len(bs) and len(flat):
        pos = np.clip(np.searchsorted(bs, flat), 0, len(bs) - 1)
        hit = (bs[pos] == flat).astype(np.int64)
    else:
        hit = np.zeros(len(flat), dtype=np.int64)
    starts = off[:-1]
    counts = off[1:] - starts
    n_overlap = np.zeros(batch.num_rows, dtype=np.int64)
    nz = counts > 0
    if nz.any() and len(hit):
        n_overlap[nz] = np.add.reduceat(hit, starts[nz])
    return n_overlap


def contamination_check(
    docs: "Blocks | pa.Table",
    bench: "Blocks | pa.Table",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram_n: int = 3,
    min_overlap: int = 1,
) -> Blocks:
    """Per-document benchmark overlap: (id, n_overlap) for every corpus
    doc whose DISTINCT word-n-gram overlap with the benchmark set is
    ≥ ``min_overlap``.

    One broadcast (sorted benchmark hash set, built by one wave); the flag
    is a view of the corpus blocks, so it runs inside the next wave that
    reads them. The membership test and per-doc counts are fully
    vectorized (searchsorted + reduceat)."""
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be >= 1 (got {min_overlap})")
    bset = benchmark_ngram_set(bench, text_col=text_col, ngram_n=ngram_n)
    logger.info(
        "contamination_check: benchmark set has %d unique %d-grams (%.1f MB broadcast)",
        len(bset), ngram_n, bset.nbytes / 1e6,
    )
    bref = ray.put(bset)

    def flag(batch: pa.Table) -> pa.Table:
        bs = ray.get(bref)  # zero-copy plasma read, once per task
        n_overlap = _overlap_counts(batch, bs, text_col, ngram_n)
        keep = n_overlap >= min_overlap
        kept = batch.filter(pa.array(keep))
        return pa.table(
            {
                id_col: kept[id_col],
                "n_overlap": pa.array(n_overlap[keep], type=pa.int64()),
            }
        )

    src = blocks(docs)
    return src.view(flag, pa.schema([src.schema.field(id_col), ("n_overlap", pa.int64())]))


def decontaminate(
    docs: "Blocks | pa.Table",
    bench: "Blocks | pa.Table",
    *,
    text_col: str = "text",
    ngram_n: int = 3,
    min_overlap: int = 1,
) -> Blocks:
    """The drop side of ``contamination_check``: the corpus with
    contaminated documents (overlap ≥ ``min_overlap``) removed, all
    columns preserved. One wave builds the broadcast benchmark set; the
    result is a view of the corpus blocks, so the drop runs inside
    whichever wave reads it next
    (``exchange.map_blocks``; ``map_blocks(None, out)`` yields the kept
    blocks)."""
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be >= 1 (got {min_overlap})")
    bref = ray.put(benchmark_ngram_set(bench, text_col=text_col, ngram_n=ngram_n))

    def drop(batch: pa.Table) -> pa.Table:
        n_overlap = _overlap_counts(batch, ray.get(bref), text_col, ngram_n)
        return batch.filter(pa.array(n_overlap < min_overlap))

    return blocks(docs).view(drop)


def contamination_check_distributed(
    docs: "Blocks | pa.Table",
    bench: "Blocks | pa.Table",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram_n: int = 3,
    min_overlap: int = 1,
) -> Blocks:
    """The shuffle path of ``contamination_check`` for when the benchmark
    side is itself corpus-sized (beyond MAX_BENCH_NGRAMS, where the
    broadcast would not fit): a hash-partitioned n-gram semi-join.

    Both sides' blocks are read where they are, and the exchange's map
    tasks emit slim n-gram rows — corpus (sh, doc), benchmark (sh): hash
    8 B + id 8 B per DISTINCT (doc, n-gram); text never shuffles. A two-sided ``hash_exchange`` on the n-gram hash
    co-partitions them, and reduce task ``p`` counts, per corpus doc, its
    n-grams that also occur in the benchmark's shard ``p`` (sorted-merge
    membership, no Python loops). A second exchange on the doc id folds
    the per-task partial counts and applies the threshold. Results are
    identical to the broadcast path (equivalence-tested); cost is one
    all-to-all of the slim rows instead of a driver-held set — the
    standard broadcast-vs-shuffle trade at 10^12 scale."""
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be >= 1 (got {min_overlap})")
    from fastpasta_ray.functions.dedup import _require_int_ids

    def corpus_rows(batch: pa.Table) -> pa.Table:
        # a non-integer id column fails here with a clean message rather
        # than deep inside a Ray task (ADVICE r3)
        _require_int_ids(batch[id_col], id_col, "contamination_check_distributed")
        flat, off = word_ngram_hashes_flat(batch[text_col], ngram_n)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"sh": pa.array(flat, type=pa.uint64()), id_col: pa.array(np.repeat(ids, np.diff(off)))}
        )

    def bench_rows(batch: pa.Table) -> pa.Table:
        flat, _ = word_ngram_hashes_flat(batch[text_col], ngram_n)
        return pa.table({"sh": pa.array(flat, type=pa.uint64())})

    def overlap(corpus: pa.Table, bench_t: pa.Table) -> pa.Table:
        hit = np.isin(
            corpus["sh"].to_numpy(zero_copy_only=False),
            bench_t["sh"].to_numpy(zero_copy_only=False),
        )
        udocs, ucounts = np.unique(
            corpus[id_col].to_numpy(zero_copy_only=False)[hit], return_counts=True
        )
        return pa.table(
            {
                id_col: pa.array(udocs, type=pa.int64()),
                "n_overlap": pa.array(ucounts, type=pa.int64()),
            }
        )

    def fold(partial: pa.Table) -> pa.Table:
        g = partial.group_by(id_col).aggregate([("n_overlap", "sum")])
        t = pa.table({id_col: g[id_col], "n_overlap": g["n_overlap_sum"]})
        return t.filter(pc.greater_equal(t["n_overlap"], min_overlap))

    src = blocks(docs)
    corpus = src.view(corpus_rows, pa.schema([("sh", pa.uint64()), (id_col, pa.int64())]))
    bench_sh = blocks(bench).view(bench_rows, pa.schema([("sh", pa.uint64())]))
    partial = hash_exchange((corpus, bench_sh), "sh", overlap)
    # the partial counts: at most one row per corpus doc per reduce task
    schema = pa.schema([(id_col, pa.int64()), ("n_overlap", pa.int64())])
    counts = Blocks(partial, schema, src.rows)
    return Blocks(hash_exchange(counts, id_col, fold), schema, src.rows)
