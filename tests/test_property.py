"""Property-based tests (hypothesis): the vectorized implementations must
agree with naive per-row reference implementations on arbitrary inputs.

Targets the trickiest run-length / offset arithmetic:
- _bucket_candidates (key-check sort-merge join over hash-sorted sides)
- IntHistogram.quantile (quantile_disc convention)
- _shingle_hashes_flat (per-doc shingle windows over a concatenated buffer)
- grammar checks (BOS/EOS/interior-pad rules)
- RunningState (cross-batch monotonic scan)
"""

import re

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# deterministic example generation: the driver's per-round verify must not
# be able to fail on a never-before-seen random example — exploratory
# (randomized) runs can be re-enabled locally with HYPOTHESIS_PROFILE=explore
settings.register_profile("ci", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.register_profile("deep", derandomize=False, max_examples=2000, deadline=None)
import os as _os

settings.load_profile(_os.environ.get("HYPOTHESIS_PROFILE", "ci"))

from fastpasta_ray.checks.grammar import GrammarConfig, run_grammar_checks
from fastpasta_ray.checks.key_checks import CANDIDATE_SCHEMA, MANIFEST_BASE, _bucket_candidates
from fastpasta_ray.checks.running_checks import RunningState
from fastpasta_ray.functions.dedup import _shingle_hashes_flat
from fastpasta_ray.sketches import IntHistogram
from tests.test_row_checks import ids_of, row_checks, toks_of


# ---------------------------------------------------------------------------
# _bucket_candidates vs naive dict-based reference
# ---------------------------------------------------------------------------

seq_strategy = st.lists(
    st.tuples(
        st.integers(0, 7),            # hash (small domain to force runs)
        # loc: a file position, unique per row; a far part index gives
        # locs near the top of int64
        st.one_of(st.integers(0, 50), st.integers(1 << 62, (1 << 62) + 50)),
        st.integers(0, 3),            # n_tok
    ),
    max_size=30,
    unique_by=lambda r: r[1],
)
# manifest rows: (hash, expected_n_tok); a small hash domain repeats keys
# with conflicting expectations, and a negative expectation is a value
# like any other (never "no expectation")
man_strategy = st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=15)


def naive_candidates(seq, man, with_manifest):
    """Per-key reference: the sorted candidate multiset
    ``(h, loc, n_tok, exp_n_tok, cand)``, riders included. Per hash, rows in
    loc order: exp = the MIN manifest expectation (-1 if no row); E80 = every
    sequence row after the first, whose row is the DUPREF rider; E72 =
    sequence rows whose n_tok != exp, with the first manifest row as the
    MANREF rider; E701 = the first manifest row of a hash without sequence
    rows; E71 (only ``with_manifest``) = sequence rows of a hash without
    manifest rows."""
    out = []
    for h in sorted({r[0] for r in seq} | {r[0] for r in man}):
        s = sorted((loc, n) for hh, loc, n in seq if hh == h)
        m = sorted((loc, n) for hh, loc, n in man if hh == h)
        exp = min(n for _, n in m) if m else -1
        out += [(h, loc, n, exp, 1) for loc, n in s[1:]]
        if len(s) > 1:
            out.append((h, *s[0], exp, 5))
        bad = [(h, loc, n, exp, 3) for loc, n in s if m and n != exp]
        out += bad
        if bad:
            out.append((h, *m[0], exp, 6))
        if m and not s:
            out.append((h, *m[0], exp, 4))
        if with_manifest and not m:
            out += [(h, loc, n, -1, 2) for loc, n in s]
    return sorted(out)


def _candidate_rows(t):
    cols = ("h", "loc", "n_tok", "exp_n_tok", "cand")
    return sorted(zip(*(t[c].to_pylist() for c in cols)))


@settings(max_examples=300, deadline=None)
@given(seq_strategy, man_strategy, st.booleans(), st.randoms(use_true_random=False))
def test_bucket_candidates_match_naive(seq, man, with_manifest, rnd):
    # manifest rows carry their own file position, unique like a sequence loc
    man = [(h, int(MANIFEST_BASE) + i, n) for i, (h, n) in enumerate(man)]
    rows = seq + man

    def table(rows):
        return pa.table(
            {
                "h": pa.array([r[0] for r in rows], type=pa.uint64()),
                "loc": pa.array([r[1] for r in rows], type=pa.int64()),
                "n_tok": pa.array([r[2] for r in rows], type=pa.int64()),
            }
        )

    out = _bucket_candidates(table(rows), with_manifest)
    assert out.schema == CANDIDATE_SCHEMA
    assert _candidate_rows(out) == naive_candidates(seq, man, with_manifest)
    # the arrival order of the shards never changes the candidates
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert _bucket_candidates(table(shuffled), with_manifest).equals(out)


# ---------------------------------------------------------------------------
# IntHistogram.quantile == quantile_disc convention on arbitrary multisets
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=200),
       st.sampled_from([0.01, 0.25, 0.5, 0.75, 0.99, 1.0]))
def test_int_histogram_quantile_matches_sorted_index(vals, q):
    import math

    h = IntHistogram()
    h.add(np.array(vals))
    s = sorted(vals)
    expect = s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]
    assert h.quantile(q) == expect


# ---------------------------------------------------------------------------
# _shingle_hashes_flat: per-doc segments equal per-doc computation
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="abcdef ", min_size=0, max_size=30), min_size=1, max_size=8))
def test_shingle_flat_segments_match_per_doc(texts):
    k = 5
    flat, offsets = _shingle_hashes_flat(texts, k)
    assert len(offsets) == len(texts) + 1
    assert offsets[-1] == len(flat)
    for i, t in enumerate(texts):
        seg = flat[offsets[i] : offsets[i + 1]]
        b = t.encode("utf-8")
        if len(b) >= k:
            # n_shingles = len - k + 1 and each shingle hash must equal the
            # single-doc computation
            solo, so = _shingle_hashes_flat([t], k)
            assert len(seg) == len(b) - k + 1
            assert np.array_equal(seg, solo)
        else:
            assert len(seg) == 1  # short-doc sentinel shingle


# ---------------------------------------------------------------------------
# grammar checks vs naive row loop
# ---------------------------------------------------------------------------

tokens_strategy = st.lists(
    st.one_of(st.none(), st.lists(st.integers(0, 9), max_size=6)), min_size=1, max_size=20
)


@settings(max_examples=150, deadline=None)
@given(tokens_strategy)
def test_grammar_matches_naive(token_rows):
    BOS, EOS, PAD = 1, 2, 0
    n = len(token_rows)
    batch = pa.table(
        {
            "part": pa.array(["p"] * n),
            "row_index": pa.array(range(n), type=pa.int64()),
            "doc_id": pa.array([f"d{i}" for i in range(n)]),
            "tokens": pa.array(token_rows, type=pa.list_(pa.int32())),
        }
    )
    out = run_grammar_checks(batch, toks_of(batch), GrammarConfig(BOS, EOS, PAD))
    got = {(r, c) for r, c in zip(out["row_index"].to_pylist(), out["code"].to_pylist())}
    expect = set()
    for i, toks in enumerate(token_rows):
        if toks is None or len(toks) == 0:
            continue
        if toks[0] != BOS:
            expect.add((i, "E30"))
        if toks[-1] != EOS:
            expect.add((i, "E50"))
        # interior pad: a PAD strictly before the last non-pad token
        nonpad = [j for j, t in enumerate(toks) if t != PAD]
        if nonpad:
            last_nonpad = nonpad[-1]
            if any(t == PAD for t in toks[:last_nonpad]):
                expect.add((i, "E60"))
    assert got == expect


def _interior_pad_messages_reduceat(batch: pa.Table, pad: int) -> list:
    """The interior-PAD rule as one reduceat formulation: per row, the max
    index of a non-pad token against the min index of a pad token over the
    flat token array. (row_index, message) per bad row."""
    from fastpasta_ray import schema as S

    tokens = batch["tokens"].combine_chunks()
    valid = tokens.is_valid().to_numpy(zero_copy_only=False)
    lens = tokens.value_lengths().fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = tokens.flatten().to_numpy(zero_copy_only=False)
    starts = np.zeros(len(tokens), dtype=np.int64)
    np.cumsum(np.where(valid, lens, 0)[:-1], out=starts[1:])
    is_pad = flat == pad
    if not is_pad.any():
        return []
    idx = np.arange(len(flat), dtype=np.int64)
    vrows = np.flatnonzero(valid & (lens > 0))
    last_nonpad = np.maximum.reduceat(np.where(~is_pad, idx, -1), starts[vrows])
    first_pad = np.minimum.reduceat(np.where(is_pad, idx, np.iinfo(np.int64).max), starts[vrows])
    bad = np.flatnonzero(first_pad < last_nonpad)
    rows = batch["row_index"].to_pylist()
    return [
        (rows[r], S.format_message(
            S.E_GRAMMAR_PAD,
            f"pad token {pad} at interior index {int(i)}"
            f" ctx [{S.token_excerpt(flat, starts[r], starts[r] + lens[r], starts[r] + i)}]"))
        for r, i in zip(vrows[bad], (first_pad - starts[vrows])[bad])
    ]


# rows rich in pads: null, empty, all-pad, pad-tail and interior-pad rows
pad_rows_strategy = st.lists(
    st.one_of(st.none(), st.just([]), st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]), max_size=8)),
    min_size=1, max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(pad_rows_strategy, st.integers(0, 3))
def test_interior_pad_rule_matches_reduceat(token_rows, skip):
    """The step-based E60 kernel flags the same rows with byte-identical
    messages as the reduceat formulation, also on a sliced batch (offset
    list arrays)."""
    n = len(token_rows)
    batch = pa.table(
        {
            "part": pa.array(["p"] * n),
            "row_index": pa.array(range(n), type=pa.int64()),
            "doc_id": pa.array([f"d{i}" for i in range(n)]),
            "tokens": pa.array(token_rows, type=pa.list_(pa.int32())),
        }
    ).slice(min(skip, n - 1))
    out = run_grammar_checks(batch, toks_of(batch), GrammarConfig(pad_id=0))
    got = list(zip(out["row_index"].to_pylist(), out["message"].to_pylist()))
    assert got == _interior_pad_messages_reduceat(batch, 0)


# ---------------------------------------------------------------------------
# RunningState vs naive scan (across arbitrary batch splits)
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=30), st.integers(1, 5))
def test_running_state_matches_naive(indices, split):
    ids = [f"src/0000/{i:08d}" for i in indices]
    naive = set()
    last = None
    for pos, i in enumerate(indices):
        if last is not None and i <= last:
            naive.add(pos)
        last = i  # immediate-predecessor semantics (batch-split invariant)

    st_ = RunningState()
    got = set()
    for start in range(0, len(ids), split):
        chunk = ids[start : start + split]
        b = pa.table(
            {
                "part": pa.array(["p"] * len(chunk)),
                "row_index": pa.array(range(start, start + len(chunk)), type=pa.int64()),
                "doc_id": pa.array(chunk),
            }
        )
        v = st_.check_batch(b, ids_of(b))
        got.update(v["row_index"].to_pylist())
    assert got == naive


# ---------------------------------------------------------------------------
# doc_id_fields (one byte pass) vs the regexes it replaces
# ---------------------------------------------------------------------------

# near-miss material: ASCII digits, '/' and ':' (the bytes around '0'-'9'),
# plus non-ASCII digits (Arabic-Indic, fullwidth), a multi-byte letter,
# newline and NUL
_TAIL_CHARS = list("0123456789/:a ") + ["\u0661", "\uff10", "\u00e9", "\n", "\x00"]
# prefix material: the class [a-z0-9_-] at its edges, uppercase, '/' and a
# multi-byte letter (an empty prefix is the empty text)
_PREFIX_CHARS = list("abz09_-AZ/") + ["\u00e9"]


def _mutate(s, op, pos, ch):
    """0: ``s`` as is; 1: replace, 2: drop, 3: insert one character at ``pos``."""
    pos %= len(s)
    return (s, s[:pos] + ch + s[pos + 1 :], s[:pos] + s[pos + 1 :], s[:pos] + ch + s[pos:])[op]


_doc_ids = st.one_of(
    st.none(),
    st.text(alphabet=st.sampled_from(_TAIL_CHARS), max_size=20),  # empty, short, random
    st.builds(
        _mutate,
        st.builds(
            lambda pre, o, i, end: f"{pre}/{o:04d}/{i:08d}{end}",
            st.one_of(
                # well formed: [a-z], then the class [a-z0-9_-] at its edges
                st.builds(str.__add__, st.sampled_from("az"),
                          st.text(alphabet=st.sampled_from(list("az09_-")), max_size=5)),
                st.text(alphabet=st.sampled_from(_PREFIX_CHARS), max_size=6),
                st.text(max_size=5),
            ),
            st.integers(0, 9999),
            st.integers(0, 10**8 - 1),
            st.sampled_from(["", "", "\n"]),  # RE2's $ does not match before "\n"
        ),
        st.integers(0, 3),
        st.integers(0, 30),
        st.sampled_from(_TAIL_CHARS),
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(_doc_ids, max_size=12),
    st.lists(_doc_ids, max_size=3),
    st.sampled_from([pa.string(), pa.large_string()]),
    st.lists(st.booleans(), min_size=18, max_size=18),
)
def test_doc_id_fields_match_regex(ids, pad, typ, masked):
    """``missing`` and ``malformed`` are the E13 and E12 verdicts of
    ``match_substring_regex(DOC_ID_RE)`` (RE2), and the tail fields are
    what ``extract_regex`` reads, on sliced arrays whose null slots may
    still span bytes."""
    _assert_doc_id_fields_match_regex(_masked_slice(pad + ids + pad, len(pad), len(ids),
                                                    typ, masked))


def _masked_slice(values, start, n, typ, masked):
    """``values[start:start + n]`` as a slice of a larger array (offsets
    start past zero) whose ``masked`` slots are nulls that still hold their
    string's bytes."""
    full = pa.array(values, type=typ)
    valid = [v is not None and not m for v, m in zip(full.to_pylist(), masked)]
    full = pa.Array.from_buffers(
        typ, len(full), [pa.array(valid, pa.bool_()).buffers()[1], *full.buffers()[1:]]
    )
    return full.slice(start, n)


def _assert_doc_id_fields_match_regex(arr):
    import pyarrow.compute as pc

    from fastpasta_ray import schema as S

    got = S.doc_id_fields(arr)
    values = arr.to_pylist()
    matched = pc.match_substring_regex(arr, S.DOC_ID_RE).to_pylist()
    assert got.missing.tolist() == [i for i, v in enumerate(values) if not v]
    assert got.malformed.tolist() == [
        i for i, (v, ok) in enumerate(zip(values, matched)) if v and not ok
    ]
    groups = pc.extract_regex(arr, r"/(?P<ord>\d{4})/(?P<idx>\d{8})$")
    want = [
        (i, int(g["ord"]), int(g["idx"]))
        for i, g in enumerate(groups.to_pylist())
        if g is not None
    ]
    assert list(zip(got.rows.tolist(), got.ordinal.tolist(), got.index.tolist())) == want


_GOOD = ["web/0000/00000001", "a-b_9/0012/00000002", "z/9999/99999999"]


@pytest.mark.parametrize("values, masked, shortcut", [
    # every row well formed: two outside bytes per tailed row, no count per row
    (_GOOD, [], True),
    # one prefix with a single outside byte: the total is one too many
    (_GOOD + ["we.b/0000/00000004"], [], False),
    # a bad tail among good rows: the 1-D filter, with the total still
    # exact (no slash in it) and without (its slashes count)
    (_GOOD + ["abcdefghijklmnopq"], [], True),
    (_GOOD + ["web/0000/0000000x", "web/0000-00000006"], [], False),
    # null slots that span bytes: in-class bytes, then a slash, then a
    # well-formed id whose slashes are not a tailed row's
    (_GOOD + ["abcdefghijklmnop"], [3], True),
    (_GOOD + ["ab/cd"], [3], False),
    (_GOOD + ["web/0000/00000005"], [3], False),
    # no row is present: nothing to parse
    ([None, ""], [], True),
], ids=["all-good", "one-outside-byte", "bad-tail-in-class", "bad-tails",
        "null-in-class", "null-slash", "null-well-formed", "none-present"])
def test_doc_id_fields_crafted_cases(values, masked, shortcut):
    """``doc_id_fields`` against RE2 on both sides of its shortcut (a batch
    whose bytes outside ``[a-z0-9_-]`` are exactly two per row that ends in
    a tail settles every row without a per-row count), as ``string`` and
    ``large_string``, whole and sliced. ``shortcut`` says which side the
    case is on, by that same count."""
    def outside(v):
        return sum(not (c.isascii() and (c.islower() or c.isdigit() or c in "_-")) for c in v)

    tailed = [v for i, v in enumerate(values)
              if v and i not in masked and re.search(r"/\d{4}/\d{8}\Z", v)]
    assert (sum(outside(v or "") for v in values) == 2 * len(tailed)) == shortcut
    for typ in (pa.string(), pa.large_string()):
        mask = [i in masked for i in range(len(values))]
        _assert_doc_id_fields_match_regex(_masked_slice(values, 0, len(values), typ, mask))
        pad = ["Pad/0000/00000000"]
        _assert_doc_id_fields_match_regex(
            _masked_slice(pad + values + pad, 1, len(values), typ, [False] + mask + [False]))


# ---------------------------------------------------------------------------
# run_row_checks vs naive row loop (the core stateless pass)
# ---------------------------------------------------------------------------

row_strategy = st.tuples(
    st.one_of(st.none(), st.sampled_from(
        ["", "bad", "web/0000/00000007", "zz1/0001/00000002", "web/0000/00000007\n"]
    )),
    st.one_of(st.none(), st.lists(st.integers(-2, 12), max_size=5)),
    st.integers(0, 6),
    st.one_of(st.none(), st.sampled_from(["", "web", "books", "nope"])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(row_strategy, min_size=1, max_size=25))
def test_row_checks_match_naive(rows):
    import re

    from fastpasta_ray import schema as S

    VOCAB = 10
    DOMAIN = ("web", "books")
    batch = pa.table(
        {
            "part": pa.array(["p"] * len(rows)),
            "row_index": pa.array(range(len(rows)), type=pa.int64()),
            "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
            "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
            "source": pa.array([r[3] for r in rows], type=pa.string()),
        }
    )
    v = row_checks(batch, vocab=VOCAB, source_domain=DOMAIN)
    got = {(r, c) for r, c in zip(v["row_index"].to_pylist(), v["code"].to_pylist())}

    expect = set()
    e70 = {}
    pat = re.compile(S.DOC_ID_RE)
    for i, (did, toks, ntok, src) in enumerate(rows):
        if toks is None:
            expect.add((i, "E100"))
        else:
            if len(toks) != ntok:
                expect.add((i, "E10"))
            if any(t < 0 or t >= VOCAB for t in toks):
                expect.add((i, "E70"))
                j = next(j for j, t in enumerate(toks) if t < 0 or t >= VOCAB)
                e70[i] = f"[E70] token id {toks[j]} out of range [0, {VOCAB}) at index {j} "
        if src is None or src == "":
            expect.add((i, "E40"))
        elif src not in DOMAIN:
            expect.add((i, "E41"))
        if did is None or did == "":
            expect.add((i, "E13"))
        elif not pat.fullmatch(did):
            expect.add((i, "E12"))
    assert got == expect
    got_e70 = {
        r: m for r, c, m in zip(v["row_index"].to_pylist(), v["code"].to_pylist(),
                                v["message"].to_pylist()) if c == "E70"
    }
    assert got_e70.keys() == e70.keys()
    assert all(got_e70[r].startswith(m) for r, m in e70.items())


INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 2**31),
    st.lists(
        st.lists(
            st.one_of(
                st.sampled_from(["neg", "vocab-1", "vocab", INT32_MIN, INT32_MAX, -1, 0]),
                st.integers(INT32_MIN, INT32_MAX),
            ),
            max_size=6,
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_e70_int32_mask_matches_two_compares(vocab, rows):
    """The one-compare int32 E70 mask flags exactly the rows the two-compare
    formula ``(v < 0) | (v >= vocab)`` flags, with negative ids, ids at
    ``vocab - 1`` and ``vocab``, and the int32 extremes."""
    named = {"neg": -vocab, "vocab-1": vocab - 1, "vocab": min(vocab, INT32_MAX)}
    toks = [[named.get(t, t) if isinstance(t, str) else t for t in r] for r in rows]
    batch = pa.table(
        {
            "part": pa.array(["p"] * len(toks)),
            "row_index": pa.array(range(len(toks)), type=pa.int64()),
            "doc_id": pa.array(["web/0000/00000001"] * len(toks)),
            "tokens": pa.array(toks, type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r) for r in toks], type=pa.int32()),
            "source": pa.array(["web"] * len(toks)),
        }
    )
    v = row_checks(batch, vocab=vocab, source_domain=("web",))
    got = {r for r, c in zip(v["row_index"].to_pylist(), v["code"].to_pylist()) if c == "E70"}
    want = set()
    for i, r in enumerate(toks):
        vals = np.asarray(r, dtype=np.int32)
        if ((vals < 0) | (vals >= vocab)).any():
            want.add(i)
    assert got == want


# ---------------------------------------------------------------------------
# round-2 machinery: popcount, word-ngram sets, SimHash vectorization,
# combo-key pigeonhole guarantee
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(0, 2**64 - 1), max_size=200))
def test_popcount64_matches_bin(xs):
    from fastpasta_ray.functions.dedup import popcount64

    a = np.array(xs, dtype=np.uint64)
    got = popcount64(a)
    exp = [bin(int(x)).count("1") for x in xs]
    assert got.tolist() == exp


words_st = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=3), min_size=0, max_size=12
)


@given(st.lists(words_st, min_size=1, max_size=8), st.integers(1, 4))
def test_word_ngram_sets_match_naive(docs, n):
    from fastpasta_ray.functions.dedup import word_ngram_hashes_flat

    texts = [" ".join(ws) for ws in docs]
    flat, off = word_ngram_hashes_flat(pa.array(texts, type=pa.string()), n)
    for i, t in enumerate(texts):
        ws = t.split(" ")
        naive = {" ".join(ws[j : j + n]) for j in range(len(ws) - n + 1)}
        got_n = off[i + 1] - off[i]
        assert got_n == len(naive), (t, n)
        # sets are hashes — distinctness must match exactly (no collisions
        # expected at these sizes)
        assert len(np.unique(flat[off[i] : off[i + 1]])) == got_n


@given(st.lists(st.text(alphabet="abcdef ", min_size=0, max_size=40), min_size=1, max_size=6))
def test_simhash_vectorized_matches_naive(texts):
    from fastpasta_ray.functions.dedup import SimHasher

    t = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    got = SimHasher(5)(t)["simhash"].to_numpy(zero_copy_only=False)
    # naive per-doc reference (the round-1 implementation)
    bits = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :]
    flat, off = _shingle_hashes_flat(texts, 5)
    for i in range(len(texts)):
        sh = np.unique(flat[off[i] : off[i + 1]])
        votes = ((sh[:, None] & bits) != 0).sum(axis=0) * 2 - len(sh)
        exp = np.sum((votes > 0) * bits[0], dtype=np.uint64)
        assert got[i] == exp, texts[i]


@given(st.integers(0, 2**64 - 1), st.sets(st.integers(0, 63), min_size=0, max_size=7))
def test_simhash_combo_guarantee(h, flip_bits):
    """Pigeonhole: any pair within Hamming 7 shares at least one of the 36
    two-block combo keys (the candidate-generation guarantee)."""
    from fastpasta_ray.functions.dedup import (
        _SIMHASH_BLOCK_STARTS,
        _SIMHASH_BLOCK_WIDTHS,
        _SIMHASH_COMBOS,
    )

    a = np.uint64(h)
    b = a
    for bit in flip_bits:
        b = np.uint64(int(b) ^ (1 << bit))

    def blocks(x):
        return [
            (int(x) >> s) & ((1 << w) - 1)
            for s, w in zip(_SIMHASH_BLOCK_STARTS, _SIMHASH_BLOCK_WIDTHS)
        ]

    ba, bb = blocks(a), blocks(b)
    assert any(ba[i] == bb[i] and ba[j] == bb[j] for i, j in _SIMHASH_COMBOS)


# ---------------------------------------------------------------------------
# unigram logprob vs naive per-doc Python
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="ab ", min_size=0, max_size=20), min_size=1, max_size=6))
def test_unigram_logprob_matches_naive(texts):
    import math
    from collections import Counter

    import pyarrow as pa

    from fastpasta_ray.exchange import collect
    from fastpasta_ray.functions.text import (
        unigram_logprob_score,
        unigram_logprob_table,
    )

    ds = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    vocab, logp, oov = unigram_logprob_table(ds)
    got = {r["doc_id"]: r["logprob"] for r in
           collect(unigram_logprob_score(ds, vocab, logp, oov)).to_pylist()}
    # naive: single-space split (including empty words), corpus frequency
    words = [t.split(" ") for t in texts]
    freq = Counter(w for ws in words for w in ws)
    total = sum(freq.values())
    for i, ws in enumerate(words):
        want = sum(math.log(freq[w] / total) for w in ws) / max(len(ws), 1)
        assert abs(got[i] - round(want, 4)) <= 1e-9, (i, got[i], want)


# ---------------------------------------------------------------------------
# semantic_dedup blocked strip kernel vs naive O(n^2) keep-first rule
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 7),
    st.integers(0, 10**6),
)
def test_semantic_dedup_blocked_kernel_matches_naive(n, block, seed):
    import pyarrow as pa

    from fastpasta_ray.exchange import collect
    from fastpasta_ray.functions.similarity import _normalize, semantic_dedup

    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, 6))
    ids = rng.permutation(n) * 3 + 1  # non-contiguous, shuffled ids
    thr = 0.6
    ds = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array(
                [list(map(float, r)) for r in m], type=pa.list_(pa.float32())
            ),
        }
    )
    # one centroid -> everything in one cluster, kernel fully exercised
    got = sorted(
        r["vec_id"]
        for r in collect(semantic_dedup(
            ds, m[:1], threshold=thr, block=block
        )).to_pylist()
    )
    # naive: float32-roundtripped vectors, any lower-id neighbor >= thr
    mf = _normalize(m.astype(np.float32).astype(np.float64))
    order = np.argsort(ids)
    ms, ids_s = mf[order], ids[order]
    sims = ms @ ms.T
    want = sorted(
        int(ids_s[i])
        for i in range(n)
        if (sims[i, :i] >= thr).any()
    )
    assert got == want


# ---------------------------------------------------------------------------
# Segment checks (E73-E78) and the APE fatal carry vs a naive per-row model;
# the fatal set is row-exact, so the (violations, fatal set) must also not
# depend on where batch boundaries fall — the same invariant the
# RunningState test pins for E11
# ---------------------------------------------------------------------------

SEG_DELIM, SEG_WARN, SEG_FATAL = 99, 901, 902


def naive_segment_checks(rows, fatal_heads, min_segments, max_segments, allowed_orders):
    """Row by row: ``(row, code, message)`` triples and the new fatal
    headers in onset order. A row's fatal headers join the running set
    before that row is checked."""
    fatal, new_fatal, out = set(fatal_heads), [], []
    for r, toks in enumerate(rows):
        pieces, cur = [], []
        for t in toks:
            if t == SEG_DELIM:
                pieces.append(cur)
                cur = []
            else:
                cur.append(t)
        pieces.append(cur)
        segs = [p for p in pieces if p]
        # each delimiter at the row's start, at its end, or right after
        # another delimiter counts once
        n_empty = sum(
            t == SEG_DELIM and (i == 0 or i == len(toks) - 1 or toks[i - 1] == SEG_DELIM)
            for i, t in enumerate(toks)
        )
        fatal_segs = [p for p in segs if SEG_FATAL in p]
        n_warn = sum(SEG_WARN in p and SEG_FATAL not in p for p in segs)
        fresh = sorted({p[0] for p in fatal_segs} - fatal)
        new_fatal += fresh
        fatal |= set(fresh)
        if n_warn:
            out.append((r, "E77", f"[E77] {n_warn} segment(s) in WARNING status "
                                  "(warning sentinel seen)"))
        if fatal_segs:
            out.append((r, "E78", f"[E78] {len(fatal_segs)} segment(s) in FATAL status; "
                                  f"headers {sorted({p[0] for p in fatal_segs})} "
                                  "excluded from lane checks from this row on"))
        nf = len(fatal)
        if toks and (
            (min_segments is not None and len(segs) < min_segments - nf)
            or (max_segments is not None and len(segs) > max_segments - nf)
        ):
            less = f" less {nf} fatal segment(s)" if nf else ""
            out.append((r, "E73", f"[E73] segment count {len(segs)} outside "
                                  f"[{min_segments}, {max_segments}]{less}"))
        if n_empty:
            out.append((r, "E75", f"[E75] {n_empty} empty segment(s)"))
        live = [p[0] for p in segs if p[0] not in fatal]
        if len(set(live)) > 1:
            out.append((r, "E74", f"[E74] segment headers differ: min {min(live)} "
                                  f"!= max {max(live)}"))
        if allowed_orders and live and not any(
            live == [h for h in o if h not in fatal] for o in allowed_orders
        ):
            out.append((r, "E76", f"[E76] segment header order {live} not in allowed "
                                  "orderings"))
    return sorted(out), new_fatal


# a segment: header 5..11 and a status; "empty" is a segment with no token
seg_spec = st.tuples(st.integers(5, 11), st.sampled_from(["ok", "warn", "fatal", "both", "empty"]))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(seg_spec, max_size=6), min_size=1, max_size=12),
    st.integers(1, 4),
    st.frozensets(st.integers(5, 11), max_size=2),
    st.one_of(st.none(), st.integers(0, 4)),
    st.one_of(st.none(), st.integers(0, 5)),
    st.lists(st.lists(st.integers(5, 11), max_size=4).map(tuple), max_size=4).map(tuple),
)
def test_segment_fatal_carry_batch_split_invariant(
    seg_specs_rows, split, prior, min_segments, max_segments, allowed_orders
):
    """Rows are built from per-segment specs: a header, a filler token, and
    a WARNING and/or FATAL sentinel; an "empty" spec gives two adjacent
    delimiters, or one at the row's start or end. The allowed orders may
    hold fatal and repeated headers, and some headers may be fatal before
    the batch. The violations and the new fatal headers equal the naive
    model's, whether the rows are checked in one batch or split at
    arbitrary boundaries with the fatal set carried between calls."""
    from fastpasta_ray.checks.segments import run_segment_checks

    status = {"ok": [], "warn": [SEG_WARN], "fatal": [SEG_FATAL], "both": [SEG_WARN, SEG_FATAL]}

    def build_row(specs):
        toks = []
        for k, (head, st_) in enumerate(specs):
            if k:
                toks.append(SEG_DELIM)
            if st_ != "empty":
                toks += [head, 1] + status[st_]
        return toks

    rows = [build_row(sp) for sp in seg_specs_rows]

    def batch_of(chunk, start):
        return pa.table(
            {
                "part": pa.array(["p"] * len(chunk)),
                "row_index": pa.array(
                    range(start, start + len(chunk)), type=pa.int64()
                ),
                "doc_id": pa.array([f"d{i}" for i in range(start, start + len(chunk))]),
                "tokens": pa.array(chunk, type=pa.list_(pa.int32())),
            }
        )

    kw = dict(
        delim_id=SEG_DELIM,
        min_segments=min_segments,
        max_segments=max_segments,
        warning_sentinels=(SEG_WARN,),
        fatal_sentinels=(SEG_FATAL,),
        allowed_orders=allowed_orders,
    )

    def triples(v):
        return zip(v["row_index"].to_pylist(), v["code"].to_pylist(), v["message"].to_pylist())

    want, want_fatal = naive_segment_checks(rows, prior, min_segments, max_segments,
                                            allowed_orders)
    b = batch_of(rows, 0)
    v_one, nf_one = run_segment_checks(b, toks_of(b), fatal_heads=prior, **kw)
    assert sorted(triples(v_one)) == want
    assert nf_one == want_fatal

    got = []
    heads = set(prior)
    nf_all: list = []
    for start in range(0, len(rows), split):
        chunk = rows[start : start + split]
        b = batch_of(chunk, start)
        v, nf = run_segment_checks(b, toks_of(b), fatal_heads=heads, **kw)
        # row_index column already carries the global position
        got.extend(triples(v))
        heads |= set(nf)
        nf_all.extend(nf)
    assert sorted(got) == want
    assert nf_all == want_fatal


# ---------------------------------------------------------------------------
# _seed_centroids: block-layout independence (it replaced a deterministic
# ds.sort().limit(k) — the min-k partial reduce must return the SAME
# centroids for any partitioning of the same rows)
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 10_000), min_size=9, max_size=40, unique=True),
    st.integers(1, 5),
)
def test_seed_centroids_layout_independent(vec_ids, n_blocks):
    import ray

    from fastpasta_ray.exchange import Blocks
    from fastpasta_ray.pipelines.queries import _seed_centroids

    rng = np.random.default_rng(7)
    emb = rng.normal(size=(len(vec_ids), 4)).round(3)
    t = pa.table(
        {
            "vec_id": pa.array(vec_ids, type=pa.int64()),
            "embedding": pa.array(emb.tolist(), type=pa.list_(pa.float64())),
        }
    )
    step = max(1, len(vec_ids) // n_blocks)
    blocks = [t.slice(i, step) for i in range(0, len(vec_ids), step)]
    got = _seed_centroids(Blocks([ray.put(b) for b in blocks], t.schema, t.num_rows), 8)
    order = np.argsort(np.asarray(vec_ids))[:8]
    expected = emb[order]
    assert np.array_equal(got, expected)
