"""Training-data function tests: dedup, similarity, text, multimodal
plumbing, session windows."""

import numpy as np
import pyarrow as pa
import pytest

import ray

from fastpasta_ray.exchange import Blocks, collect


def split(t: pa.Table, k: int) -> Blocks:
    """``t`` as ``Blocks`` of ``k`` contiguous slices: a many-block layout."""
    cuts = [i * t.num_rows // k for i in range(k + 1)]
    return Blocks([ray.put(t.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])],
                  t.schema, t.num_rows)


def docs_table(texts, ids=None):
    n = len(texts)
    return pa.table(
        {
            "doc_id": pa.array(ids or list(range(n)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )


def test_exact_dedup_drop(tmp_path):
    _exact_dedup_case()


def _exact_dedup_case():
    from fastpasta_ray.functions.dedup import drop_exact_dups, exact_dup_groups

    texts = ["hello world " * 5, "foo bar " * 5, "hello world " * 5, "unique text here"]
    ds = docs_table(texts)
    groups = collect(exact_dup_groups(ds)).to_pandas()
    assert len(groups) == 1
    assert groups.iloc[0]["n_copies"] == 2
    assert groups.iloc[0]["keep_id"] == 0
    kept = collect(drop_exact_dups(ds)).to_pandas()
    assert sorted(kept["doc_id"]) == [0, 1, 3]


def test_minhash_estimates_jaccard():
    from fastpasta_ray.functions.dedup import MinHasher, _shingle_hashes, ngram_jaccard

    a = "the quick brown fox jumps over the lazy dog and runs far away home"
    b = "the quick brown fox jumps over the lazy cat and runs far away home"
    mh = MinHasher(num_perm=256)
    t = docs_table([a, b])
    sig = mh(t)
    s = sig["minhash"].combine_chunks().values.to_numpy(zero_copy_only=False).reshape(2, -1)
    est = (s[0] == s[1]).mean()
    exact = ngram_jaccard(a, b)
    assert abs(est - exact) < 0.15


def test_simhash_near_dups():
    from fastpasta_ray.functions.dedup import simhash_near_dups

    base = "this is a long document about data processing " * 4
    texts = [base, base.replace("data", "info", 1), "completely different content entirely " * 4]
    ds = docs_table(texts)
    pairs = collect(simhash_near_dups(ds, max_hamming=8)).to_pandas()
    assert (0, 1) in set(zip(pairs["doc_a"], pairs["doc_b"]))


def test_cosine_topk_matches_numpy():
    from fastpasta_ray.functions.similarity import cosine_topk

    rng = np.random.default_rng(3)
    m = rng.standard_normal((200, 16)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(200), type=pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(pa.array(m.reshape(-1)), 16),
        }
    )
    ds = split(t, 4)
    q = m[0].astype(np.float64)
    top = cosine_topk(ds, q, k=5, round_to=None).to_pandas()
    mm = m.astype(np.float64)
    mm = mm / np.linalg.norm(mm, axis=1, keepdims=True)
    qq = q / np.linalg.norm(q)
    sims = mm @ qq
    expect = np.argsort(-sims)[:5]
    assert list(top["vec_id"]) == list(expect)
    assert top.iloc[0]["vec_id"] == 0 and abs(top.iloc[0]["cosine"] - 1.0) < 1e-9


def test_embedding_near_dup_pairs():
    _embedding_near_dup_case()


def _embedding_near_dup_case():
    from fastpasta_ray.functions.similarity import embedding_near_dup_pairs

    rng = np.random.default_rng(4)
    m = rng.standard_normal((100, 64))
    m[50] = m[10] + rng.standard_normal(64) * 0.001  # near-dup of 10
    t = pa.table(
        {
            "vec_id": pa.array(range(100), type=pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1).astype(np.float32)), 64
            ),
        }
    )
    ds = split(t, 4)
    pairs = collect(embedding_near_dup_pairs(ds, threshold=0.99)).to_pandas()
    assert (10, 50) in set(zip(pairs["vec_a"], pairs["vec_b"]))


def test_lang_id_heuristic():
    from fastpasta_ray.functions.text import LangID

    t = pa.table(
        {
            "text": pa.array(
                [
                    "the cat is in the house and it was for the dog",
                    "der Hund ist nicht mit der Katze und das ist gut",
                    "le chat est dans la maison et les chiens sont pour",
                    "xyzzy plugh qwerty",
                ]
            )
        }
    )
    out = LangID()(t)
    assert out["lang_pred"].to_pylist() == ["en", "de", "fr", "unknown"]


def test_quality_and_token_count():
    from fastpasta_ray.functions.text import QualityScorer, token_count

    t = pa.table({"text": pa.array(["one two three", "a b"])})
    assert token_count(t)["n_words"].to_pylist() == [3, 2]
    scored = QualityScorer(min_len=10)(t)
    s = scored["quality_score"].to_pylist()
    assert 0 <= s[1] <= s[0] <= 1


def test_fingerprint_stable():
    from fastpasta_ray.functions.text import fingerprint

    t = docs_table(["abc", "abc", "xyz"])
    f = fingerprint(t)["fingerprint"].to_pylist()
    assert f[0] == f[1] != f[2]


def test_multimodal_plumbing():
    from fastpasta_ray.functions.multimodal import (
        MEDIA_BATCH_KWARGS,
        AudioFrameSampler,
        ImageDecoder,
        synth_media_table,
    )

    t = synth_media_table(64)
    ds = ray.data.from_arrow(t)
    out = ds.map_batches(ImageDecoder(fake=True), **MEDIA_BATCH_KWARGS).to_pandas()
    assert len(out) == 64
    assert (out["pixels"] == 64 * 64).all()
    assert out["mean_value"].between(100, 155).all()  # uniform bytes ≈ 127.5
    audio = ds.map_batches(AudioFrameSampler(every_n=100), **MEDIA_BATCH_KWARGS).to_pandas()
    assert (audio["n_samples"] == 41).all()  # ceil(4096/100)
    with pytest.raises(NotImplementedError):
        ImageDecoder(fake=False)


def test_sessionize():
    _sessionize_case()


def _sessionize_case():
    import pandas as pd

    from fastpasta_ray.functions.windows import sessionize

    ts = pd.to_datetime(
        [
            "2020-01-01 00:00:00",
            "2020-01-01 00:10:00",  # same session (gap 10m < 30m)
            "2020-01-01 02:00:00",  # new session
            "2020-01-01 00:05:00",  # user 2
        ]
    )
    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2], type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
        }
    )
    out = collect(sessionize(t, gap_seconds=1800)).to_pandas()
    u1 = out[out["user_id"] == 1].sort_values("session_start")
    assert len(u1) == 2
    assert list(u1["n_events"]) == [2, 1]
    assert len(out[out["user_id"] == 2]) == 1


def test_hash_sample_deterministic_and_layout_independent():
    from fastpasta_ray.functions.sampling import hash_sample

    t = pa.table(
        {
            "doc_id": pa.array([f"d{i:05d}" for i in range(5000)]),
            "v": pa.array(range(5000)),
        }
    )
    a = set(collect(hash_sample(t, key_col="doc_id", num=100, denom=1000)).to_pandas()["v"])
    # different block layout → identical sample
    b = set(
        collect(hash_sample(split(t, 7), key_col="doc_id", num=100, denom=1000))
        .to_pandas()["v"]
    )
    assert a == b
    assert abs(len(a) / 5000 - 0.1) < 0.02  # ~10% rate
    # different salt → a different (independent) sample
    c = set(
        collect(hash_sample(t, key_col="doc_id", num=100, denom=1000, salt=7))
        .to_pandas()["v"]
    )
    assert c != a


def test_stratified_sample_rates():
    from fastpasta_ray.functions.sampling import stratified_sample

    n = 8000
    strata = ["head" if i % 4 else "tail" for i in range(n)]
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i:05d}" for i in range(n)]),
            "source": pa.array(strata),
        }
    )
    out = collect(stratified_sample(
        t,
        key_col="doc_id",
        stratum_col="source",
        rates={"head": 0.1, "tail": 1.0},
    )).to_pandas()
    vc = out["source"].value_counts()
    assert vc.get("tail", 0) == n // 4          # keep-all stratum intact
    assert abs(vc.get("head", 0) / (3 * n // 4) - 0.1) < 0.03


def test_asof_join_string_keys_and_typed_padding():
    """asof_join with a STRING `by` key and non-float right columns
    (ADVICE r1: int-only bucketing crashed on strings; float64 padding
    broke typed columns)."""
    _asof_string_keys_case()


def _asof_string_keys_case():
    import pandas as pd

    from fastpasta_ray.functions.joins import asof_join

    left = pa.table(
        {
            "user": pa.array(["a", "a", "b"], type=pa.string()),
            "ts": pa.array(
                pd.to_datetime(["2024-01-01 10:00", "2024-01-01 11:00", "2024-01-01 10:30"])
            ),
            "amount": pa.array([1, 2, 3], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "user": pa.array(["a", "b"], type=pa.string()),
            "ts": pa.array(pd.to_datetime(["2024-01-01 09:55", "2024-01-01 10:15"])),
            "tag": pa.array([7, 9], type=pa.int64()),
        }
    )
    out = (
        collect(asof_join(
            left,
            right,
            on="ts",
            by="user",
            right_cols=["tag"],
        ))
        .to_pandas()
        .sort_values(["user", "ts"])
        .reset_index(drop=True)
    )
    assert list(out["tag"]) == [7, 7, 9]
    assert out["tag"].notna().all()


def test_redact_pii():
    from fastpasta_ray.functions.text import redact_pii

    t = docs_table(
        [
            "contact me at jane.doe@example.com or +1 (555) 123-4567 today",
            "no pii here at all",
            "two mails: a@b.io and c.d@e-f.org",
        ]
    )
    out = redact_pii(t)
    red = out["text_redacted"].to_pylist()
    assert red[0] == "contact me at [EMAIL] or [PHONE] today"
    assert red[1] == "no pii here at all"
    assert red[2] == "two mails: [EMAIL] and [EMAIL]"
    assert out["n_redactions"].to_pylist() == [2, 0, 2]


def test_repetition_and_mean_word_length():
    from fastpasta_ray.functions.text import mean_word_length, repetition_metrics

    t = docs_table(["a a b b b", "one two three four"])
    r = repetition_metrics(t)
    assert r["n_words"].to_pylist() == [5, 4]
    assert r["n_distinct_words"].to_pylist() == [2, 4]
    assert abs(r["rep_ratio"][0].as_py() - 0.6) < 1e-12
    m = mean_word_length(t)
    assert abs(m["mean_word_len"][0].as_py() - 1.0) < 1e-12
    assert abs(m["mean_word_len"][1].as_py() - 15 / 4) < 1e-12


def test_multimodal_resize_and_video_sampler():
    from fastpasta_ray.functions.multimodal import (
        MEDIA_BATCH_KWARGS,
        ImageResizer,
        VideoFrameSampler,
        synth_media_table,
    )

    t = synth_media_table(6, payload_bytes=64 * 64)
    ds = ray.data.from_arrow(t)
    r = ds.map_batches(ImageResizer, fn_constructor_kwargs={"target": 8},
                       concurrency=1, **MEDIA_BATCH_KWARGS).to_pandas()
    assert len(r) == 6
    assert all(len(x) == 64 for x in r["resized"])
    # video: payload = 4 frames of 64x64 → every 2nd frame sampled
    t2 = synth_media_table(2, payload_bytes=4 * 64 * 64)
    v = ray.data.from_arrow(t2).map_batches(
        VideoFrameSampler, fn_constructor_kwargs={"every_n": 2},
        concurrency=1, **MEDIA_BATCH_KWARGS,
    ).to_pandas()
    assert list(v.groupby("media_id")["frame_idx"].count()) == [2, 2]


def test_cli_dedup_and_text_stats(tmp_path):
    """CLI surface for the training-data operators (in-process main())."""
    import glob

    import pyarrow.parquet as pq

    from fastpasta_ray.cli import main

    src = str(tmp_path / "docs.parquet")
    texts = [
        "alpha beta gamma delta epsilon zeta eta theta",
        "alpha beta gamma delta epsilon zeta eta theta",  # exact dup
        "one two three four five six seven eight nine ten",
    ]
    pq.write_table(docs_table(texts), src)
    import pyarrow as pa

    out1 = str(tmp_path / "kept")
    assert main(["dedup", src, "-o", out1, "--method", "exact"]) == 0
    kept = pa.concat_tables([pq.read_table(f) for f in glob.glob(out1 + "/*.parquet")])
    assert kept.num_rows == 2  # dup dropped

    out2 = str(tmp_path / "pairs")
    assert main(["dedup", src, "-o", out2, "--method", "minhash", "--threshold", "0.9"]) == 0
    pair_files = [pq.read_table(f) for f in glob.glob(out2 + "/*.parquet")]
    pairs = pa.concat_tables([t for t in pair_files if t.num_rows])
    assert pairs.num_rows == 1
    assert (pairs["doc_a"][0].as_py(), pairs["doc_b"][0].as_py()) == (0, 1)

    out2c = str(tmp_path / "clusters")
    assert main([
        "dedup", src, "-o", out2c, "--method", "minhash",
        "--threshold", "0.9", "--clusters",
    ]) == 0
    cl_files = [pq.read_table(f) for f in glob.glob(out2c + "/*.parquet")]
    cl = pa.concat_tables([t for t in cl_files if t.num_rows])
    # docs 0 and 1 form one component labeled by the min id
    assert sorted(zip(cl["doc_id"].to_pylist(), cl["cluster_id"].to_pylist())) == [
        (0, 0), (1, 0),
    ]

    out3 = str(tmp_path / "stats")
    assert main(["text-stats", src, "-o", out3]) == 0
    st = pa.concat_tables([pq.read_table(f) for f in glob.glob(out3 + "/*.parquet")])
    assert st.num_rows == 3
    assert "rep_ratio" in st.column_names and "lang_pred" in st.column_names


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_rolling_count_matches_bruteforce(seed):
    """Differential test incl. DUPLICATE timestamps (SQL RANGE-frame peer
    semantics: all equal-ts rows count) against an O(n²) reference."""
    _rolling_count_case(seed)


def _rolling_count_case(seed):
    import pandas as pd

    from fastpasta_ray.functions.windows import rolling_count

    rng = np.random.default_rng(seed)
    n = 120
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 3600, n), unit="s"
    )
    users = rng.integers(0, 5, n)
    t = pa.table(
        {
            "event_id": pa.array(range(n), type=pa.int64()),
            "user_id": pa.array(users, type=pa.int64()),
            "ts": pa.array(ts),
        }
    )
    out = (
        collect(rolling_count(t, window_seconds=300.0))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    tsv = ts.astype("datetime64[us]").astype("int64").to_numpy()
    win = 300 * 1_000_000
    expect = np.array(
        [
            ((users == users[i]) & (tsv >= tsv[i] - win) & (tsv <= tsv[i])).sum()
            for i in range(n)
        ]
    )
    got = out.sort_values("event_id")["n_in_window"].to_numpy()
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_range_join_count_matches_bruteforce(seed):
    _range_join_count_case(seed)


def _range_join_count_case(seed):
    import pandas as pd

    from fastpasta_ray.functions.joins import range_join_count

    rng = np.random.default_rng(seed + 100)
    nl, nr = 40, 80
    base = pd.to_datetime("2024-01-01")
    lt = base + pd.to_timedelta(rng.integers(0, 7200, nl), unit="s")
    rt = base + pd.to_timedelta(rng.integers(0, 7200, nr), unit="s")
    lu = rng.integers(0, 4, nl)
    ru = rng.integers(0, 4, nr)
    left = pa.table({"user_id": pa.array(lu, type=pa.int64()), "ts": pa.array(lt)})
    right = pa.table({"user_id": pa.array(ru, type=pa.int64()), "ts": pa.array(rt)})
    out = (
        collect(range_join_count(
            left, right,
            by="user_id", before_seconds=600.0, after_seconds=600.0,
        ))
        .to_pandas()
        .sort_values(["user_id", "__ts"])
        .reset_index(drop=True)
    )
    ltv = lt.astype("datetime64[us]").astype("int64").to_numpy()
    rtv = rt.astype("datetime64[us]").astype("int64").to_numpy()
    win = 600 * 1_000_000
    rows = []
    for i in range(nl):
        c = ((ru == lu[i]) & (rtv >= ltv[i] - win) & (rtv <= ltv[i] + win)).sum()
        rows.append((lu[i], ltv[i], c))
    exp = (
        pd.DataFrame(rows, columns=["user_id", "ts_us", "n"])
        .sort_values(["user_id", "ts_us"])
        .reset_index(drop=True)
    )
    assert list(out["n_matches"]) == list(exp["n"])


def test_next_fit_bins_exact():
    from fastpasta_ray.functions.packing import next_fit_bins

    nt = np.array([100, 200, 300, 250, 900, 50, 60])
    bins = next_fit_bins(nt, context_len=512)
    # [100+200] fits, +300 overflows -> bin1 [300], +250 overflows? 300+250=550>512 -> bin2...
    assert list(bins) == [0, 0, 1, 2, 3, 4, 4]
    # oversized row gets its own bin, stream continues
    assert list(next_fit_bins(np.array([600, 10]), 512)) == [0, 1]
    assert list(next_fit_bins(np.array([], dtype=np.int64), 512)) == []


def test_pack_sequences_operator():
    from fastpasta_ray.functions.packing import pack_sequences

    t = pa.table(
        {
            "part": pa.array(["p0"] * 5),
            "doc_id": pa.array([f"d{i}" for i in range(5)]),
            "n_tok": pa.array([100, 200, 300, 250, 900], type=pa.int32()),
        }
    )
    out = collect(pack_sequences(t, context_len=512)).to_pandas()
    out = out.sort_values("bin").reset_index(drop=True)
    assert list(out["n_docs"]) == [2, 1, 1, 1]
    assert list(out["total_tok"]) == [300, 300, 250, 900]
    assert list(out["first_doc"]) == ["d0", "d2", "d3", "d4"]
    assert (out["fill_ratio"] <= 900 / 512 + 1e-9).all()


def test_deterministic_shuffle_layout_independent():
    from fastpasta_ray.functions.packing import deterministic_shuffle

    t = pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(2000)]),
            "v": pa.array(range(2000)),
        }
    )
    a = deterministic_shuffle(ray.data.from_arrow(t)).to_pandas()["v"].tolist()
    b = (
        deterministic_shuffle(ray.data.from_arrow(t).repartition(7))
        .to_pandas()["v"].tolist()
    )
    assert a == b                      # layout-independent
    assert a != sorted(a)              # actually shuffled
    c = deterministic_shuffle(ray.data.from_arrow(t), salt=9).to_pandas()["v"].tolist()
    assert c != a                      # independent permutation per salt


def test_pack_sequences_over_fixture(tmp_path):
    """Packing over a real sequences fixture (per-partition bins; every doc
    packed exactly once; fill never exceeds the context unless a single
    doc does)."""
    from fastpasta_ray.exchange import blocks
    from fastpasta_ray.functions.packing import pack_sequences
    from fastpasta_ray.sources.parquet import read_sequences
    from fastpasta_ray.synth import SynthSpec, write_fixture

    d = str(tmp_path / "fix")
    write_fixture(d, SynthSpec(n_rows=500, n_parts=3, mean_n_tok=64), manifest=False)
    ds = blocks(read_sequences(d, columns=["doc_id", "n_tok"]))
    bins = collect(pack_sequences(ds, context_len=1024)).to_pandas()
    assert set(bins["part"]) == {"part-0000", "part-0001", "part-0002"}
    assert bins["n_docs"].sum() == 1500          # every doc packed once
    # every bin fits the context OR is an oversize singleton
    assert ((bins["total_tok"] <= 1024) | (bins["n_docs"] == 1)).all()
    # (part, bin) keys unique even if a file split across batches
    assert not bins.duplicated(subset=["part", "bin"]).any()
    # deterministic: re-run gives identical bins
    bins2 = collect(pack_sequences(ds, context_len=1024)).to_pandas()
    pdcols = ["part", "bin", "n_docs", "total_tok"]
    import pandas as pd
    pd.testing.assert_frame_equal(
        bins[pdcols].sort_values(["part", "bin"]).reset_index(drop=True),
        bins2[pdcols].sort_values(["part", "bin"]).reset_index(drop=True),
    )


def test_near_dup_clusters_union_find():
    """Connected components over a pair table: chains merge transitively,
    cluster_id = min doc id per component, singletons absent."""
    import pyarrow as pa

    from fastpasta_ray.functions.dedup import near_dup_clusters

    pairs = pa.table(
        {
            "doc_a": pa.array([10, 20, 30, 50], type=pa.int64()),
            "doc_b": pa.array([20, 30, 40, 60], type=pa.int64()),
        }
    )
    t = near_dup_clusters(pairs)
    got = dict(zip(t["doc_id"].to_pylist(), t["cluster_id"].to_pylist()))
    assert got == {10: 10, 20: 10, 30: 10, 40: 10, 50: 50, 60: 50}
    # empty input → empty int64 table
    e = near_dup_clusters(pairs.slice(0, 0))
    assert e.num_rows == 0 and e["doc_id"].type == pa.int64()


def test_contamination_check():
    from fastpasta_ray.functions.decontam import benchmark_ngram_set, contamination_check

    bench_docs = pa.table(
        {
            "doc_id": pa.array([100, 101], type=pa.int64()),
            "text": ["the quick brown fox jumps", "zeta eta theta"],
        }
    )
    corpus = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [
                "the quick brown fox sleeps",   # shares 'the quick brown', 'quick brown fox'
                "completely different words here",
                "zeta eta theta",               # shares its single 3-gram
            ],
        }
    )
    bds, cds = bench_docs, corpus
    bset = benchmark_ngram_set(bds, ngram_n=3)
    assert len(bset) == 4  # 3 grams from doc 100, 1 from doc 101
    out = collect(contamination_check(cds, bds, ngram_n=3)).to_pylist()
    by_id = {r["doc_id"]: r["n_overlap"] for r in out}
    assert by_id == {1: 2, 3: 1}

    # min_overlap gate drops the single-gram hit
    out2 = collect(contamination_check(cds, bds, ngram_n=3, min_overlap=2)).to_pylist()
    assert [r["doc_id"] for r in out2] == [1]

    # empty benchmark: nothing flagged, no crash
    empty = bench_docs.slice(0, 0)
    assert collect(contamination_check(cds, empty, ngram_n=3)).to_pylist() == []

    # min_overlap < 1 fails loudly (0 used to flag everything / drop all)
    with pytest.raises(ValueError):
        contamination_check(cds, bds, ngram_n=3, min_overlap=0)


def test_mixture_sample_exact_mix_and_determinism():
    from fastpasta_ray.functions.sampling import mixture_sample

    rng = np.random.default_rng(7)
    n = {"a": 6000, "b": 3000, "c": 500}
    ids, srcs = [], []
    base = 0
    for s, k in n.items():
        ids.extend(range(base, base + k))
        srcs.extend([s] * k)
        base += k
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "source": srcs})
    ds = t
    # target 1:1:1 — c is the limiting stratum (500 * 3 = 1500 total)
    sampled, thr = mixture_sample(
        ds, key_col="doc_id", stratum_col="source",
        weights={"a": 1, "b": 1, "c": 1}, denom=1000,
    )
    out = collect(sampled).to_pylist()
    got = {}
    for r in out:
        got[r["source"]] = got.get(r["source"], 0) + 1
    # c keeps everything (thr=1000); a and b hash-sample toward 500
    assert thr["c"] == 1000 and got["c"] == 500
    for s in ("a", "b"):
        assert abs(got[s] - 500) < 100  # hash sampling is approximate per stratum
    # deterministic: a second run returns the identical sample
    sampled2, thr2 = mixture_sample(
        ds, key_col="doc_id", stratum_col="source",
        weights={"a": 1, "b": 1, "c": 1}, denom=1000,
    )
    assert thr2 == thr
    assert sorted(r["doc_id"] for r in collect(sampled2).to_pylist()) == sorted(
        r["doc_id"] for r in out
    )
    # weighted stratum with zero rows fails loudly
    with pytest.raises(ValueError):
        mixture_sample(
            ds, key_col="doc_id", stratum_col="source", weights={"zz": 1}
        )
    # non-positive denom / negative weights fail loudly (code-review r3:
    # denom=0 used to write an empty sample with exit 0)
    with pytest.raises(ValueError):
        mixture_sample(
            ds, key_col="doc_id", stratum_col="source", weights={"a": 1}, denom=0
        )
    with pytest.raises(ValueError):
        mixture_sample(
            ds, key_col="doc_id", stratum_col="source", weights={"a": 1, "b": -1}
        )


def test_kmeans_fit_recovers_blobs():
    from fastpasta_ray.functions.similarity import kmeans_assign, kmeans_fit

    rng = np.random.default_rng(11)
    dim, per = 16, 200
    # three well-separated direction blobs on the sphere
    bases = rng.normal(size=(3, dim))
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    pts = np.concatenate(
        [b + 0.05 * rng.normal(size=(per, dim)) for b in bases]
    )
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(len(pts)), type=pa.int64()),
            "embedding": pa.array(list(pts.astype(np.float32)), type=pa.list_(pa.float32())),
        }
    )
    ds = t
    cent = kmeans_fit(ds, k=3, n_iter=6)
    assert cent.shape == (3, dim)
    out = collect(kmeans_assign(ds, cent)).to_pylist()
    # every blob should land in exactly one cluster
    lab = np.array([r["cluster"] for r in sorted(out, key=lambda r: r["vec_id"])])
    for g in range(3):
        seg = lab[g * per : (g + 1) * per]
        assert (seg == seg[0]).all(), f"blob {g} split across clusters"
    assert len({lab[0], lab[per], lab[2 * per]}) == 3
    # deterministic across runs
    cent2 = kmeans_fit(ds, k=3, n_iter=6)
    assert np.allclose(cent, cent2)
    # explicit init path
    cent3 = kmeans_fit(ds, k=3, n_iter=0, init=bases)
    assert np.allclose(cent3, bases / np.linalg.norm(bases, axis=1, keepdims=True))


def test_kmeans_partial_large_k():
    """The per-batch partial must not allocate O(rows x k) (VERDICT r3 #7):
    one Lloyd's iteration at k=512 over a small batch stays exact — every
    point is its own best centroid, so the update is a fixed point."""
    from fastpasta_ray.functions.similarity import kmeans_fit

    rng = np.random.default_rng(5)
    k, dim = 512, 8
    pts = rng.normal(size=(k, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(k), type=pa.int64()),
            "embedding": pa.array(list(pts.astype(np.float32)), type=pa.list_(pa.float32())),
        }
    )
    ds = t
    cent = kmeans_fit(ds, k=k, n_iter=1, init=pts)
    assert cent.shape == (k, dim)
    # float32 storage round-trip: compare against the float32-cast points
    assert np.allclose(
        cent, pts.astype(np.float32).astype(np.float64)
        / np.linalg.norm(pts.astype(np.float32).astype(np.float64), axis=1, keepdims=True),
        atol=1e-6,
    )


def test_cli_decontam_and_mixture(tmp_path):
    import glob

    import pyarrow.parquet as pq

    from fastpasta_ray.cli import main

    corpus = str(tmp_path / "docs.parquet")
    bench = str(tmp_path / "bench.parquet")
    pq.write_table(
        docs_table(
            [
                "the quick brown fox jumps over the lazy dog",
                "completely unrelated text with no shared grams at all",
                "pack my box with five dozen liquor jugs",
            ]
        ),
        corpus,
    )
    pq.write_table(
        docs_table(["the quick brown fox jumps high", "pack my box with five dozen"]),
        bench,
    )

    flag_out = str(tmp_path / "flags")
    assert main([
        "decontam", corpus, "--benchmark", bench, "-o", flag_out, "--ngram", "3",
    ]) == 0
    fl = pa.concat_tables(
        [t for t in (pq.read_table(f) for f in glob.glob(flag_out + "/*.parquet")) if t.num_rows]
    )
    assert sorted(fl["doc_id"].to_pylist()) == [0, 2]

    drop_out = str(tmp_path / "clean")
    assert main([
        "decontam", corpus, "--benchmark", bench, "-o", drop_out, "--ngram", "3", "--drop",
    ]) == 0
    cl = pa.concat_tables(
        [t for t in (pq.read_table(f) for f in glob.glob(drop_out + "/*.parquet")) if t.num_rows]
    )
    assert cl["doc_id"].to_pylist() == [1]  # only the uncontaminated doc survives
    assert "text" in cl.column_names  # full rows preserved

    # mixture: sources a,a,b → weights a=1,b=1 caps at b's count
    src2 = str(tmp_path / "mix.parquet")
    t = docs_table(["d1 x", "d2 y", "d3 z", "d4 w"]).append_column(
        "source", pa.array(["a", "a", "a", "b"])
    )
    pq.write_table(t, src2)
    mix_out = str(tmp_path / "mixed")
    assert main([
        "mixture", src2, "-o", mix_out, "--weights", "a=1,b=1",
    ]) == 0
    mixed = pa.concat_tables(
        [t for t in (pq.read_table(f) for f in glob.glob(mix_out + "/*.parquet")) if t.num_rows]
    )
    srcs = mixed["source"].to_pylist()
    assert srcs.count("b") == 1  # limiting stratum fully kept
    # bad weights string errors cleanly
    assert main(["mixture", src2, "-o", str(tmp_path / "x"), "--weights", "nope"]) == 2


def _reduce_count(monkeypatch, n: int) -> None:
    """Pin every ``hash_exchange`` to ``n`` reduce tasks (the suite's 4
    CPUs would pick 1 for these inputs)."""
    import fastpasta_ray.exchange as X

    monkeypatch.setattr(X, "_reduce_task_count", lambda cpus, rows: n)


def test_exchange_reduce_count_equivalence(monkeypatch):
    """The minhash and simhash pipelines return the identical pairs at 1, 3
    and 8 reduce tasks: the many-task path that runs at production scale
    must not rot untested (code-review r3)."""
    import fastpasta_ray.functions.dedup as dd

    texts = [
        "alpha beta gamma delta epsilon zeta eta theta iota kappa",
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda",
        "one two three four five six seven eight nine ten eleven twelve",
        "totally different content with unique words only here",
    ]
    t = pa.table(
        {"doc_id": pa.array(list(range(4)), type=pa.int64()), "text": texts}
    )

    def run():
        ds = t
        mh = collect(dd.minhash_lsh_pairs(ds, threshold=0.5)).to_pandas()
        cand = dd.simhash_near_dups(ds, aggregate=False).select_columns(
            ["doc_a", "doc_b"]
        )
        sh = collect(dd.exact_jaccard_verify(
            cand, t, threshold=0.5
        )).to_pandas()
        key = lambda df: sorted(map(tuple, df.values.tolist()))
        return key(mh), key(sh)

    got = {}
    for n in (1, 3, 8):
        _reduce_count(monkeypatch, n)
        got[n] = run()
    assert got[1] == got[3] == got[8]
    assert len(got[1][0]) >= 1  # the near-dup pair 0-1 is found


@pytest.mark.parametrize("n_parts", [1, 3, 8])
def test_exchange_sites_match_reference(monkeypatch, n_parts):
    """Every ported exchange site against the reference its own test
    checks, at 1, 3 and 8 reduce tasks."""
    _reduce_count(monkeypatch, n_parts)
    _exact_dedup_case()
    _embedding_near_dup_case()
    _sessionize_case()
    _asof_string_keys_case()
    _rolling_count_case(0)
    _range_join_count_case(0)
    _contamination_distributed_case()


def test_two_sided_exchange_with_an_empty_side(monkeypatch):
    """asof_join and range_join_count when one side has no rows: the
    reduce still gets a typed table for it, so no purchases give a typed
    empty result and no views give every purchase a NULL match."""
    import pandas as pd

    from fastpasta_ray.functions.joins import asof_join, range_join_count

    _reduce_count(monkeypatch, 3)
    purchases = pa.table(
        {
            "user_id": pa.array([1, 2, 3], type=pa.int64()),
            "ts": pa.array(pd.to_datetime(["2024-01-01 10:00"] * 3)),
            "amount": pa.array([5, 6, 7], type=pa.int64()),
        }
    )
    views = pa.table(
        {
            "user_id": pa.array([], type=pa.int64()),
            "ts": pa.array([], type=pa.timestamp("ns")),
        }
    )
    out = collect(asof_join(purchases, views, on="ts", by="user_id"))
    assert out.num_rows == 3 and out["ts_right"].null_count == 3
    assert out.schema.field("ts_right").type == pa.timestamp("ns")
    none = collect(asof_join(purchases.slice(0, 0), views, on="ts", by="user_id"))
    assert none.num_rows == 0
    assert none.column_names == ["user_id", "ts", "amount", "ts_right"]
    counts = collect(range_join_count(purchases, views, by="user_id")).to_pandas()
    assert list(counts["n_matches"]) == [0, 0, 0]


def test_contamination_distributed_equals_broadcast():
    _contamination_distributed_case()


def _contamination_distributed_case():
    from fastpasta_ray.functions.decontam import (
        contamination_check,
        contamination_check_distributed,
    )

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(80)]
    phrase = "alpha beta gamma delta epsilon"  # 3 shared 3-grams
    texts = [
        " ".join(rng.choice(vocab, size=30)) + (f" {phrase}" if i % 3 == 0 else "")
        for i in range(120)
    ]
    t = pa.table(
        {"doc_id": pa.array(list(range(120)), type=pa.int64()), "text": texts}
    )
    docs = split(t.slice(0, 100), 4)
    bench = split(t.slice(100, 20), 2)

    def rows(ds):
        return sorted((r["doc_id"], r["n_overlap"]) for r in collect(ds).to_pylist())

    for mo in (1, 3):
        a = rows(contamination_check(docs, bench, ngram_n=3, min_overlap=mo))
        b = rows(
            contamination_check_distributed(docs, bench, ngram_n=3, min_overlap=mo)
        )
        assert a == b
        assert len(a) > 0  # shared vocab guarantees some overlap
    with pytest.raises(ValueError):
        contamination_check_distributed(docs, bench, min_overlap=0)


def test_unigram_logprob_oov_and_cap():
    """unigram_logprob_table/score: alpha=0 over the fitted corpus is exact
    (oracled in test_queries_oracle); here: OOV words score at oov_logprob,
    max_vocab keeps top-by-count with dropped words at oov, empty text is
    safe."""
    import math

    import numpy as np
    import pyarrow as pa

    from fastpasta_ray.functions.text import (
        unigram_logprob_score,
        unigram_logprob_table,
    )

    corpus = pa.table({"doc_id": [0, 1], "text": ["a a a b", "a b c"]})
    vocab, logp, oov = unigram_logprob_table(corpus)
    lut = dict(zip(vocab.to_pylist(), logp))
    assert math.isclose(lut["a"], math.log(4 / 7))
    assert math.isclose(lut["c"], math.log(1 / 7))
    assert oov < min(logp)  # OOV scores below every in-vocab word
    # score docs containing an OOV word + an empty doc
    probe = pa.table({"doc_id": [10, 11], "text": ["a zz", ""]})
    got = {r["doc_id"]: r["logprob"] for r in collect(unigram_logprob_score(
        probe, vocab, logp, oov
    )).to_pylist()}
    assert math.isclose(got[10], round((lut["a"] + oov) / 2, 4), abs_tol=1e-4)
    assert np.isfinite(got[11])  # '' splits to one (OOV) empty word
    # vocab cap: keep top-2 by count, dropped word scores at oov
    vocab2, logp2, oov2 = unigram_logprob_table(corpus, max_vocab=2)
    assert len(vocab2) == 2 and "c" not in vocab2.to_pylist()
    got2 = collect(unigram_logprob_score(
        pa.table({"doc_id": [0], "text": ["c"]}),
        vocab2, logp2, oov2,
    )).to_pylist()[0]["logprob"]
    assert math.isclose(got2, round(oov2, 4), abs_tol=1e-4)


def test_semantic_dedup_planted():
    """semantic_dedup: planted within-cluster near-dups drop (keep-first),
    cross-cluster near-dups survive, oversized clusters skip with a warning,
    and the blocked strip kernel equals the naive O(n^2) rule."""
    import numpy as np
    import pyarrow as pa

    from fastpasta_ray.functions.similarity import semantic_dedup

    rng = np.random.default_rng(7)
    # two well-separated centroids
    c0 = np.array([1.0, 0.0, 0.0, 0.0]); c1 = np.array([0.0, 1.0, 0.0, 0.0])
    rows, ids = [], []
    for i in range(20):  # cluster 0: ids 0..19, pairs (2k, 2k+1) near-dup
        base = c0 + 0.3 * rng.normal(size=4)
        rows.append(base if i % 2 == 0 else rows[-1] + 1e-5 * rng.normal(size=4))
        ids.append(i)
    rows.append(c1 + 0.3 * rng.normal(size=4)); ids.append(100)  # lone in cluster 1
    emb = pa.array([list(map(float, r)) for r in rows], type=pa.list_(pa.float32()))
    ds = pa.table({"vec_id": pa.array(ids, pa.int64()), "embedding": emb})
    cents = np.stack([c0, c1])
    out = collect(semantic_dedup(ds, cents, threshold=0.9999, block=3)).to_pylist()
    dropped = sorted(r["vec_id"] for r in out)
    # every odd id is a copy of the preceding even id -> dropped; the lone
    # cluster-1 row survives
    assert dropped == [i for i in range(20) if i % 2 == 1]
    assert all(r["cluster"] == 0 for r in out)
    # oversized cluster: skipped (returns empty), not stalled
    out2 = collect(semantic_dedup(ds, cents, threshold=0.9999, max_cluster_rows=5)).to_pylist()
    assert [r["vec_id"] for r in out2] == []


def test_embedding_stats_planted_defects():
    """q_embedding_stats partial: NaN rows counted and excluded from norm
    bounds; ragged dims take the per-row fallback and min/max dim differ."""
    import numpy as np
    import pyarrow as pa

    from fastpasta_ray.pipelines.queries import q_embedding_stats

    # uniform-dim batch with one NaN row and one unnormalized row
    tbl = pa.table(
        {
            "embedding": pa.array(
                [[1.0, 0.0], [float("nan"), 1.0], [3.0, 4.0], None],
                type=pa.list_(pa.float32()),
            )
        }
    )
    import os, tempfile
    import pyarrow.parquet as pq

    d = tempfile.mkdtemp()
    pq.write_table(tbl, os.path.join(d, "embeddings.parquet"))
    out = q_embedding_stats(d).to_pylist()[0]
    assert out["n_vecs"] == 4 and out["n_nan"] == 1 and out["n_null"] == 1
    assert out["min_norm"] == 1.0 and out["max_norm"] == 5.0
    # ragged dims incl. an empty-list row (dim 0, norm 0)
    tbl2 = pa.table(
        {
            "embedding": pa.array(
                [[1.0, 0.0, 0.0], [0.0, 2.0], []], type=pa.list_(pa.float32())
            )
        }
    )
    d2 = tempfile.mkdtemp()
    pq.write_table(tbl2, os.path.join(d2, "embeddings.parquet"))
    out2 = q_embedding_stats(d2).to_pylist()[0]
    assert (out2["min_dim"], out2["max_dim"]) == (0, 3)
    assert out2["min_norm"] == 0.0 and out2["max_norm"] == 2.0


def test_cli_semdedup_and_logprob(tmp_path):
    """CLI surface for the late-r4 ops: semdedup survivors written + drop
    accounting; text-stats --logprob appends the fitted unigram score."""
    import glob

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastpasta_ray.cli import main

    # embeddings: pairs of identical vectors -> one of each pair dropped
    rng = np.random.default_rng(3)
    base = rng.normal(size=(6, 8))
    emb = np.repeat(base, 2, axis=0)  # 12 rows, 6 dup pairs
    src = str(tmp_path / "emb.parquet")
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(12), type=pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in emb], type=pa.list_(pa.float32())
                ),
            }
        ),
        src,
    )
    out = str(tmp_path / "kept_emb")
    assert main(
        ["semdedup", src, "-o", out, "--k", "3", "--threshold", "0.9999"]
    ) == 0
    kept = pa.concat_tables([pq.read_table(f) for f in glob.glob(out + "/*.parquet")])
    assert kept.num_rows == 6  # one of each identical pair survives
    # every even id (first of each repeat pair) survives
    assert sorted(kept["vec_id"].to_pylist()) == [0, 2, 4, 6, 8, 10]

    docs = str(tmp_path / "docs2.parquet")
    pq.write_table(docs_table(["aa bb aa", "aa", "cc dd"]), docs)
    out2 = str(tmp_path / "stats")
    assert main(["text-stats", docs, "-o", out2, "--logprob"]) == 0
    st = pa.concat_tables([pq.read_table(f) for f in glob.glob(out2 + "/*.parquet")])
    assert "unigram_logprob" in st.column_names
    lp = dict(zip(st["doc_id"].to_pylist(), st["unigram_logprob"].to_pylist()))
    # 'aa' is the most frequent word -> doc 1 (just 'aa') scores highest
    assert lp[1] == max(lp.values())


def test_cli_compare_stats(tmp_path):
    """Offline snapshot diff: identical snapshots exit 0; a doctored
    profile trips exact-field mismatches and exits 1; TOML/JSON mix works;
    runs without any corpus access."""
    import json

    from fastpasta_ray.cli import main
    from fastpasta_ray.synth import SynthSpec, write_fixture

    d = str(tmp_path / "fx")
    write_fixture(d, SynthSpec(n_rows=400, n_parts=2))
    a = str(tmp_path / "a.json")
    t = str(tmp_path / "a.toml")
    assert main(["check", d, "--output-stats", a]) == 0
    assert main(["check", d, "--output-stats", t]) == 0
    # identical content, cross-format
    assert main(["compare-stats", a, t]) == 0
    # doctor one exact field
    snap = json.load(open(a))
    snap["profile"]["row_count"] = snap["profile"]["row_count"] + 1
    b = str(tmp_path / "b.json")
    json.dump(snap, open(b, "w"))
    assert main(["compare-stats", a, b]) == 1


def test_unigram_layout_independence():
    """unigram scores must not depend on block layout: the frequency fit is
    a commutative sum and the lookup table is sorted, so 1-block and
    4-block inputs give identical scores."""
    import pyarrow as pa

    from fastpasta_ray.functions.text import (
        unigram_logprob_score,
        unigram_logprob_table,
    )

    texts = [f"w{i % 7} w{i % 3} common" for i in range(40)]
    t = pa.table({"doc_id": list(range(40)), "text": texts})

    def scores(n_blocks):
        ds = split(t, n_blocks)
        vocab, logp, oov = unigram_logprob_table(ds)
        return {
            r["doc_id"]: r["logprob"]
            for r in collect(unigram_logprob_score(ds, vocab, logp, oov)).to_pylist()
        }

    assert scores(1) == scores(4)
