"""Text-analysis operators for training-data pipelines.

All vectorized over Arrow batches (pyarrow.compute / numpy); stateful setup
(compiled regexes, stopword tables) happens once in ``__init__`` of the
callable classes, which then ship with the wave that runs them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from fastpasta_ray.exchange import Blocks, blocks, hash_exchange
from fastpasta_ray.sketches import hash_strings, one_chunk

# minimal public stopword lists per language (for the n-gram/stopword
# language-ID heuristic — the classic "count function words" approach)
STOPWORDS = {
    "en": ("the", "of", "and", "to", "in", "is", "that", "it", "for", "was"),
    "de": ("der", "die", "und", "das", "ist", "nicht", "ein", "mit", "von", "zu"),
    "fr": ("le", "la", "les", "et", "de", "un", "une", "est", "que", "pour"),
    "es": ("el", "la", "los", "las", "y", "de", "un", "una", "es", "que"),
    "zh": ("的", "是", "了", "在", "我", "有", "和", "不", "人", "这"),
}


def token_count(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count per document (single-space split — matches
    SQL ``string_split(text, ' ')`` semantics for the oracle)."""
    toks = pc.split_pattern(batch[text_col], " ")
    return batch.append_column("n_words", pc.cast(pc.list_value_length(toks), pa.int64()))


def quality_metrics(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document quality signals: length, punctuation/upper/digit counts,
    mean word length — the usual cheap quality-score features."""
    t = batch[text_col]
    length = pc.cast(pc.utf8_length(t), pa.int64())
    n_punct = pc.cast(pc.count_substring_regex(t, r"[.!?,;:]"), pa.int64())
    n_upper = pc.cast(pc.count_substring_regex(t, r"[A-Z]"), pa.int64())
    n_digit = pc.cast(pc.count_substring_regex(t, r"[0-9]"), pa.int64())
    n_space = pc.cast(pc.count_substring_regex(t, r" "), pa.int64())
    out = batch
    for name, col in [
        ("n_chars_obs", length),
        ("n_punct", n_punct),
        ("n_upper", n_upper),
        ("n_digit", n_digit),
        ("n_space", n_space),
    ]:
        out = out.append_column(name, col)
    return out


class LangID:
    """Stopword-vote language ID. Stopword regexes are compiled once
    (init), applied vectorized per batch."""

    def __init__(self, langs: dict[str, tuple] | None = None):
        self.langs = langs or STOPWORDS
        self.patterns = {
            lang: r"(?i)\b(?:" + "|".join(words) + r")\b" if lang != "zh"
            else "(?:" + "|".join(words) + ")"
            for lang, words in self.langs.items()
        }

    def __call__(self, batch: pa.Table, text_col: str = "text") -> pa.Table:
        t = batch[text_col]
        votes = np.stack(
            [
                pc.count_substring_regex(t, pat).to_numpy(zero_copy_only=False)
                for pat in self.patterns.values()
            ],
            axis=1,
        ).astype(np.int64)
        keys = np.array(list(self.patterns), dtype=object)
        best = keys[votes.argmax(axis=1)]
        none = votes.max(axis=1) == 0
        best = np.where(none, "unknown", best)
        return batch.append_column(
            "lang_pred", pa.array(best.astype(object), type=pa.string())
        )


def repetition_metrics(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Within-document repetition (the Gopher-style repetition filter
    signal): distinct-word count and repeated-word ratio per doc.
    Vectorized: one flat word-hash pass + per-doc lexsort dedup (reuses the
    word-n-gram machinery at n=1); no per-document Python."""
    from fastpasta_ray.functions.dedup import word_ngram_hashes_flat

    toks = pc.split_pattern(batch[text_col], " ")
    n_words = pc.cast(pc.list_value_length(toks), pa.int64())
    _, offsets = word_ngram_hashes_flat(batch[text_col], n=1)
    n_distinct = np.diff(offsets)
    nw = n_words.to_numpy(zero_copy_only=False)
    # NOT rounded: the SQL oracle computes the identical IEEE division, so
    # raw float64 bits match exactly; rounding would INTRODUCE mismatches
    # (numpy banker's vs SQL half-away on exact half-ulp ties)
    rep = np.where(nw > 0, 1.0 - n_distinct / np.maximum(nw, 1), 0.0)
    return (
        batch.append_column("n_words", n_words)
        .append_column("n_distinct_words", pa.array(n_distinct, type=pa.int64()))
        .append_column("rep_ratio", pa.array(rep))
    )


def mean_word_length(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Mean word length per doc (single-space tokenization):
    (chars − separators) / words — a Gopher-style quality-filter feature,
    SQL-replicable exactly."""
    t = batch[text_col]
    length = pc.cast(pc.utf8_length(t), pa.int64()).to_numpy(zero_copy_only=False)
    nw = pc.cast(
        pc.list_value_length(pc.split_pattern(t, " ")), pa.int64()
    ).to_numpy(zero_copy_only=False)
    # raw float64 (no rounding) — bit-identical to the SQL oracle's division
    mwl = np.where(nw > 0, (length - (nw - 1)) / np.maximum(nw, 1), 0.0)
    return batch.append_column("mean_word_len", pa.array(mwl))


def fingerprint(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit document fingerprint (deterministic content hash) — the cheap
    exact-dup key. Fingerprints are PERSISTED (text-stats writes them as
    parquet) and compared across runs/nodes, so this deliberately uses the
    environment-independent segmented-FNV buffer hash, NOT hash_strings'
    polars hash (whose values may change across polars versions — fine for
    in-job hashing, wrong for a persisted key; code-review r4).
    Still fully vectorized over the Arrow string buffer."""
    from fastpasta_ray.sketches import _hash_byte_rows, utf8_parts

    data, lens = utf8_parts(batch[text_col])
    h = _hash_byte_rows(data, lens)
    return batch.append_column("fingerprint", pa.array(h.astype(np.uint64)))


# ---------------------------------------------------------------------------
# unigram log-probability quality score (CCNet-style LM filtering, model-free)
# ---------------------------------------------------------------------------

def unigram_logprob_table(
    ds: "Blocks | pa.Table",
    text_col: str = "text",
    *,
    max_vocab: int = 5_000_000,
    alpha: float = 0.0,
) -> tuple[pa.Array, np.ndarray, float]:
    """Corpus word → log P(word) table: ``(vocab, logprob, oov_logprob)``.

    The standard model-free perplexity proxy for corpus filtering (CCNet /
    Wikipedia-LM style): score each document by the mean log-probability of
    its words under the corpus unigram distribution; low scores flag
    boilerplate/garbage, very high scores flag degenerate repetition.

    Scale shape: per-block ``pc.value_counts`` pre-aggregates inside the
    map tasks of one hash exchange on the word, so the exchange carries
    (word, count) partials — bounded by distinct words per block (Zipf),
    not corpus size. The input's blocks are read where they are. The
    merged table is vocab-sized; above ``max_vocab`` only the top entries
    by count are kept (drop LOGGED) and dropped words score at
    ``oov_logprob``, so the broadcast stays bounded at any corpus size.
    ``alpha`` > 0 applies add-alpha smoothing (required for scoring text
    outside the fitted corpus; the exact-oracle path uses alpha=0 over its
    own corpus)."""

    def partial(b: pa.Table) -> pa.Table:
        toks = one_chunk(pc.split_pattern(b[text_col], " "))
        vc = pc.value_counts(toks.flatten())
        return pa.table(
            {
                "word": vc.field("values"),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def word_totals(g: pa.Table) -> pa.Table:
        # every partial count of a word lands in one reduce task
        a = g.group_by("word").aggregate([("cnt", "sum")])
        return pa.table({"word": a["word"], "c": a["cnt_sum"]})

    counts = blocks(ds).view(partial, pa.schema({"word": pa.string(), "cnt": pa.int64()}))
    t = pa.concat_tables(ray.get(hash_exchange(counts, "word", word_totals)))
    c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
    total = float(c.sum())
    n_vocab = len(c)
    if n_vocab > max_vocab:
        import logging

        keep = np.argsort(-c, kind="stable")[:max_vocab]
        keep.sort()
        logging.getLogger(__name__).warning(
            "unigram_logprob_table: vocab %d capped to top %d by count "
            "(%d words dropped score at oov_logprob)",
            n_vocab, max_vocab, n_vocab - max_vocab,
        )
        t = t.take(pa.array(keep))
        c = c[keep]
    denom = total + alpha * n_vocab
    with np.errstate(divide="ignore"):
        logp = np.log((c + alpha) / denom) if denom > 0 else np.full(len(c), -np.inf)
    oov = float(np.log(alpha / denom)) if alpha > 0 and denom > 0 else float(
        logp.min() - np.log(10.0) if len(logp) else -np.inf
    )
    return one_chunk(t["word"]), logp, oov


def unigram_logprob_score(
    ds: "Blocks | pa.Table",
    vocab: pa.Array,
    logprob: np.ndarray,
    oov_logprob: float,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    append: bool = False,
) -> Blocks:
    """Per-document mean unigram log-probability — a view of ``ds``'s
    blocks, scored inside the next wave that reads them.

    The lookup table is prepared ONCE at broadcast time: vocab words are
    hashed (in-job Arrow-buffer hash) and sorted, so each task does a
    vectorized hash + ``searchsorted`` per batch instead of rebuilding an
    Arrow ``index_in`` hash table over the (up to max_vocab-entry) vocab
    for every batch (code-review r4). A 64-bit collision between two
    distinct vocab words would alias their logprobs — probability ~1e-6 at
    5M words, and audited with a logged warning at fit time. Per-doc means
    by offset-difference over a cumulative sum (robust to empty docs,
    unlike reduceat). With ``append=True`` the score rides the input batch
    as ``unigram_logprob`` (pipeline composition); default output is the
    slim (id, logprob) projection."""

    h = hash_strings(vocab)
    order = np.argsort(h, kind="stable")
    hs, lps = h[order], logprob.astype(np.float64)[order]
    n_coll = int((hs[1:] == hs[:-1]).sum()) if len(hs) else 0
    if n_coll:
        import logging

        logging.getLogger(__name__).warning(
            "unigram_logprob_score: %d vocab hash collisions (aliased logprobs)",
            n_coll,
        )
    ref = ray.put((hs, lps, float(oov_logprob)))

    def score(b: pa.Table) -> pa.Table:
        hs_, lps_, oov = ray.get(ref)
        toks = one_chunk(pc.split_pattern(pc.fill_null(b[text_col], ""), " "))
        flat = one_chunk(toks.flatten())
        if len(hs_) == 0:
            vals = np.full(len(flat), oov)
        else:
            wh = hash_strings(flat)
            pos = np.minimum(np.searchsorted(hs_, wh), len(hs_) - 1)
            vals = np.where(hs_[pos] == wh, lps_[pos], oov)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]  # slice offset safety
        cs = np.zeros(len(vals) + 1, dtype=np.float64)
        np.cumsum(vals, out=cs[1:])
        sums = cs[offs[1:]] - cs[offs[:-1]]
        n = np.maximum(np.diff(offs), 1)
        col = pa.array(np.round(sums / n, 4))
        if append:
            return b.append_column("unigram_logprob", col)
        return pa.table({id_col: b[id_col], "logprob": col})

    src = blocks(ds)
    field = pa.field("unigram_logprob" if append else "logprob", pa.float64())
    return src.view(score, src.schema.append(field) if append
                    else pa.schema([src.schema.field(id_col), field]))
