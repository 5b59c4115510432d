"""Sketch unit tests: merge-associativity, accuracy, serde round-trips —
the analog of the reference's stats serde tests (stats_collector.rs:230-268)."""

import json

import numpy as np
import pyarrow as pa

from fastpasta_ray.checks.drift import ks, psi
from fastpasta_ray.sketches import (
    Counter,
    HyperLogLog,
    IntHistogram,
    MinMax,
    PartStats,
    hash_strings,
    splitmix64,
)


def test_hll_accuracy_and_merge():
    h1, h2 = HyperLogLog(), HyperLogLog()
    a = np.array([f"k{i}" for i in range(60_000)], dtype=object)
    h1.add_strings(a[:40_000])
    h2.add_strings(a[20_000:])  # overlap
    h1.merge(h2)
    est = h1.estimate()
    assert abs(est - 60_000) / 60_000 < 0.03  # p=14 → ~0.8% expected error


def test_hll_serde_roundtrip():
    h = HyperLogLog()
    h.add_strings(np.array(["a", "b", "c"], dtype=object))
    h2 = HyperLogLog.from_json(json.loads(json.dumps(h.to_json())))
    assert np.array_equal(h.registers, h2.registers)
    assert round(h.estimate(), 6) == round(h2.estimate(), 6)


def test_hll_deterministic_across_calls():
    h1, h2 = HyperLogLog(), HyperLogLog()
    h1.add_strings(np.array(["x", "y"], dtype=object))
    h2.add_strings(np.array(["x", "y"], dtype=object))
    assert np.array_equal(h1.registers, h2.registers)


def test_int_histogram_exact_quantiles_match_numpy():
    rng = np.random.default_rng(7)
    vals = rng.integers(1, 500, size=10_000)
    h = IntHistogram()
    h.add(vals[:6000])
    h2 = IntHistogram()
    h2.add(vals[6000:])
    h.merge(h2)
    assert h.n == 10_000
    assert h.min() == int(vals.min()) and h.max() == int(vals.max())
    s = np.sort(vals)
    for q in (0.25, 0.5, 0.75, 0.99):
        # quantile_disc convention: element at ceil(q*n)-1 (0-based)
        import math

        expect = int(s[max(0, math.ceil(q * len(s)) - 1)])
        assert h.quantile(q) == expect, q
    assert abs(h.mean() - vals.mean()) < 1e-9


def test_counter_and_minmax_merge():
    c1, c2 = Counter(), Counter()
    c1.add_arrow(pa.array(["a", "b", "a", None]))
    c2.add_arrow(pa.array(["b", "c"]))
    c1.merge(c2)
    assert c1.to_json() == {"": 1, "a": 2, "b": 2, "c": 1}
    m1, m2 = MinMax(), MinMax()
    m1.add(np.array([5, 10]))
    m2.add(np.array([-3, 7]))
    m1.merge(m2)
    assert (m1.lo, m1.hi) == (-3, 10)


def test_part_stats_serde_roundtrip():
    ps = PartStats()
    ps.row_count = 10
    ps.token_count = 100
    ps.hll.add_strings(np.array(["a", "b"], dtype=object))
    ps.n_tok_hist.add(np.array([3, 5, 5]))
    ps.source_hist.add("web", 7)
    ps.token_mm.add(np.array([0, 999]))
    ps2 = PartStats.from_json(ps.to_json())
    assert ps2.row_count == 10 and ps2.token_count == 100
    assert ps2.n_tok_hist.to_json() == {"3": 1, "5": 2}
    assert ps2.source_hist.counts == {"web": 7}
    assert (ps2.token_mm.lo, ps2.token_mm.hi) == (0, 999)
    assert ps2.to_json() == ps.to_json()


def test_hash_strings_stable():
    # the cross-process determinism contract (fixed-key siphash)
    h = hash_strings(np.array(["web/0000/00000001"], dtype=object))
    assert h.dtype == np.uint64
    h2 = hash_strings(np.array(["web/0000/00000001"], dtype=object))
    assert h[0] == h2[0]


def test_splitmix_determinism():
    x = np.array([1, 2, 3], dtype=np.uint64)
    assert np.array_equal(splitmix64(x), splitmix64(x.copy()))
    assert len(set(splitmix64(np.arange(1000, dtype=np.uint64)).tolist())) == 1000


def test_psi_ks_basics():
    p = np.array([0.25, 0.25, 0.25, 0.25])
    assert psi(p, p) < 1e-9
    q = np.array([0.7, 0.1, 0.1, 0.1])
    assert psi(p, q) > 0.2
    assert ks(p, p) < 1e-12
    assert 0 < ks(p, q) <= 1


def test_tdigest_accuracy_merge_serde():
    import json as _json

    from fastpasta_ray.sketches import TDigest

    rng = np.random.default_rng(1)
    vals = rng.lognormal(3, 1, size=50_000)
    td = TDigest()
    td.add(vals)
    for q in (0.01, 0.5, 0.99):
        est, exact = td.quantile(q), float(np.quantile(vals, q))
        assert abs(est - exact) / exact < 0.02, q
    # merged partials approximate the whole
    parts = [TDigest() for _ in range(8)]
    for i, p in enumerate(parts):
        p.add(vals[i::8])
    m = parts[0]
    for p in parts[1:]:
        m.merge(p)
    assert abs(m.quantile(0.5) - np.quantile(vals, 0.5)) / np.quantile(vals, 0.5) < 0.02
    # serde round-trip
    t2 = TDigest.from_json(_json.loads(_json.dumps(td.to_json())))
    assert abs(t2.quantile(0.5) - td.quantile(0.5)) < 1e-6
    # empty digest
    assert TDigest().quantile(0.5) is None


def test_build_profile_fold():
    """Associativity contract: ``build_profile`` folds the partials in
    memory into the same profile as a serial ``PartStats.merge`` fold, at
    the parts' own vocab size, without touching the parts; one scalar-only
    part makes the profile scalar-only; no parts give the empty profile."""
    from fastpasta_ray.checks.drift import build_profile

    rng = np.random.default_rng(7)
    parts = {}
    serial = PartStats(vocab=5000)
    for i in range(40):
        ps = PartStats(vocab=5000, has_payload=i != 17)
        ps.row_count = int(rng.integers(1, 100))
        ps.token_count = int(rng.integers(1, 10_000))
        vals = rng.integers(0, 5000, size=200)
        ps.token_mm.add(vals)
        ps.vocab_bitmap.add(vals)
        ps.n_tok_hist.add(rng.integers(1, 300, size=50))
        ps.hll.add_hashes(hash_strings([f"d{i}-{j}" for j in range(50)]))
        ps.source_hist.add(f"s{i % 3}", i)
        parts[f"part-{i:04d}"] = ps
        serial.merge(PartStats.from_json(ps.to_json()))
    before = {k: ps.to_json() for k, ps in parts.items()}
    profile = build_profile(parts, {"E80": 2, "E10": 1})
    assert {k: ps.to_json() for k, ps in parts.items()} == before
    assert profile == {
        "row_count": serial.row_count,
        "token_count": serial.token_count,
        "has_payload": False,
        "doc_id_hll_estimate": round(serial.hll.estimate(), 2),
        "n_tok_quantiles": serial.n_tok_hist.quantiles(),
        "n_tok_min": serial.n_tok_hist.min(),
        "n_tok_max": serial.n_tok_hist.max(),
        "token_min": serial.token_mm.lo,
        "token_max": serial.token_mm.hi,
        "vocab_seen_count": serial.vocab_bitmap.count,
        "source_histogram": serial.source_hist.to_json(),
        "n_tok_hist": serial.n_tok_hist.to_json(),
        "violation_count_by_code": {"E10": 1, "E80": 2},
        "parts": sorted(parts),
    }
    del parts["part-0017"]
    assert build_profile(parts)["has_payload"] is True
    assert build_profile({}) == {
        "row_count": 0, "token_count": 0, "has_payload": True,
        "doc_id_hll_estimate": 0.0,
        "n_tok_quantiles": {"p1": None, "p25": None, "p50": None, "p75": None, "p99": None},
        "n_tok_min": None, "n_tok_max": None, "token_min": None, "token_max": None,
        "vocab_seen_count": 0, "source_histogram": {}, "n_tok_hist": {},
        "violation_count_by_code": {}, "parts": [],
    }


def test_scan_token_values_matches_unfused():
    """The fused cache-blocked scan (one DRAM pass) must be bit-identical
    to the separate MinMax.add + VocabBitmap.add path it replaced — across
    in-range, out-of-range (both signs), chunk-boundary and empty inputs."""
    import numpy as np

    from fastpasta_ray.sketches import MinMax, VocabBitmap, scan_token_values

    rng = np.random.default_rng(11)
    vocab = 5000
    cases = [
        rng.integers(0, vocab, size=(1 << 18) + 37, dtype=np.int64),  # spans chunks
        rng.integers(-50, vocab + 50, size=1000, dtype=np.int64),  # both tails
        np.array([vocab - 1, 0, vocab, -1], dtype=np.int64),
        np.array([], dtype=np.int64),
    ]
    mm_f, bm_f = MinMax(), VocabBitmap(vocab)
    mm_u, bm_u = MinMax(), VocabBitmap(vocab)
    for vals in cases:
        r_f = scan_token_values(vals, mm_f, bm_f)
        r_u = mm_u.add(vals)
        bm_u.add(vals, r_u)
        assert r_f == r_u
        assert (mm_f.lo, mm_f.hi) == (mm_u.lo, mm_u.hi)
        assert np.array_equal(bm_f.seen, bm_u.seen)


def test_one_chunk_zero_copy_and_slice_safety():
    """one_chunk must be a zero-copy view for single-chunk columns, and
    downstream buffer readers (utf8_parts, hash_strings) must honor the
    slice offset a view can carry."""
    import numpy as np
    import pyarrow as pa

    from fastpasta_ray.sketches import hash_strings, one_chunk, utf8_parts

    s = pa.array([f"doc-{i}" for i in range(100)])
    ca = pa.chunked_array([s])
    v = one_chunk(ca)
    assert v.buffers()[2].address == s.buffers()[2].address  # shared buffer
    # sliced view: offset != 0 — hashes must match the compacted copy
    sl = pa.chunked_array([s.slice(17, 50)])
    got = hash_strings(one_chunk(sl))
    want = hash_strings(pa.array(s.to_pylist()[17:67]))
    assert np.array_equal(got, want)
    data, lens = utf8_parts(one_chunk(sl))
    assert lens.sum() == sum(len(f"doc-{i}") for i in range(17, 67))
    # multi-chunk still concatenates; empty still yields an empty array
    mc = pa.chunked_array([s.slice(0, 3), s.slice(3, 2)])
    assert one_chunk(mc).to_pylist() == s.to_pylist()[:5]
    assert len(one_chunk(pa.chunked_array([], type=pa.string()))) == 0


def test_group_codes():
    """group_codes: codes index uniques, NULL rows get code -1 (their own
    group, never merged with '' — ADVICE r4: the old assertion indexed
    uniques with -1 and only passed because '' happened to be the last
    dictionary entry), sliced and chunked inputs agree with the compacted
    copy."""
    import numpy as np
    import pyarrow as pa

    from fastpasta_ray.sketches import group_codes

    col = pa.chunked_array([pa.array(["b", "a", None, "b", "a", ""])])
    codes, uniques = group_codes(col)
    assert codes[2] == -1  # null row: its own group, NOT ''
    nn = [i for i in range(len(codes)) if i != 2]
    assert [uniques[codes[i]] for i in nn] == ["b", "a", "b", "a", ""]
    assert "" in uniques  # '' is a real group, distinct from null
    # round-trip through a slice offset
    s = pa.array([f"s{i % 3}" for i in range(30)])
    c1, u1 = group_codes(pa.chunked_array([s.slice(7, 20)]))
    c2, u2 = group_codes(pa.array(s.to_pylist()[7:27]))
    assert [u1[c] for c in c1] == [u2[c] for c in c2]
    assert codes.dtype == np.int64


def test_hash_byte_rows_layout_independent():
    """A row's hash must not depend on batch composition (ADVICE r4 high:
    the reduceat clamp dropped the last word of the final non-empty row
    when trailing empty/null rows followed, and the empty-batch early
    return skipped the splitmix64 finalization). fingerprint() persists
    these hashes as exact-dup keys, so cross-run comparability requires
    strict layout independence — including agreement between the short-row
    (<=64 B) Horner path and the segmented long-row path."""
    import numpy as np
    import pyarrow as pa

    from fastpasta_ray.sketches import _hash_byte_rows, utf8_parts

    def h(layout):
        data, lens = utf8_parts(pa.array(layout, type=pa.string()))
        return _hash_byte_rows(data, lens)

    s = "x" * 100  # > 64 B -> segmented path when alone
    ref = h([s])[0]
    assert h([s, ""])[0] == ref  # trailing empty row
    assert h([s, None])[0] == ref  # trailing null row
    assert h(["", s, ""])[1] == ref  # surrounded
    assert h([s, "q" * 9, ""])[0] == ref  # trailing short + empty

    # empty string: identical in all-empty, all-null, and mixed batches
    e = h([""])[0]
    assert h([None])[0] == e
    assert h(["", ""])[0] == e
    assert h(["a" * 200, ""])[1] == e
    assert h(["zz", ""])[1] == e  # short-row path empty

    # short (<=64 B fixed-width Horner) and segmented paths agree per row
    t = "y" * 40
    assert h([t])[0] == h([t, "z" * 300])[0]
    # non-multiple-of-8 lengths across both paths
    for ln in (1, 7, 8, 9, 63, 64, 65, 127, 128):
        u = "w" * ln
        assert h([u])[0] == h(["pad" * 60, u, None])[1], ln


def test_check_path_imports_no_pandas():
    """Pass 1, the key-check exchange and the pipeline driver import no
    pandas: every Ray worker of a check run imports these modules, so a
    pandas import there costs each worker's start-up. (The query layer
    still gets pandas through Ray Data.)"""
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import fastpasta_ray.stages.validate, fastpasta_ray.checks.key_checks,"
        " fastpasta_ray.pipelines.check\n"
        "print('pandas' in sys.modules)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False", out.stderr
