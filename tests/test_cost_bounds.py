"""Bounded cost under adversarial input.

Each case runs one operator in process, without Ray, on a benign input and
on a crafted input of the same size, and bounds the ratio of their wall
times. A ratio holds up under CPU steal on a shared host where an absolute
time would not; each side is the best of a few runs, interleaved.
"""

import time

import numpy as np
import pyarrow as pa
import pytest

from fastpasta_ray import schema as S
from fastpasta_ray.checks.key_checks import _C_DUP, _C_DUPREF, _bucket_candidates
from fastpasta_ray.checks.segments import run_segment_checks

N = 200_000
RATIO_BOUND = 3.0
REPEATS = 5


def _best_wall_ratio(fn, crafted, benign) -> float:
    """Best crafted wall over best benign wall, the runs interleaved so a
    burst of load on the host lands on both sides alike."""
    walls = ([], [])
    for _ in range(REPEATS):
        for w, arg in zip(walls, (crafted, benign)):
            t0 = time.perf_counter()
            fn(arg)
            w.append(time.perf_counter() - t0)
    return min(walls[0]) / min(walls[1])


@pytest.mark.parametrize("with_manifest", [False, True])
def test_key_check_reduce_all_doc_ids_equal(with_manifest):
    """Key checks, all doc_ids equal: one hash run of N sequence rows (every
    row but the first is an E80 candidate) against N distinct hashes. The
    rows arrive out of ``loc`` order, so the crafted run must be re-sorted
    by ``loc`` in full."""
    rng = np.random.default_rng(0)
    loc = rng.permutation(N).astype(np.int64)
    ntok = rng.integers(1, 64, N).astype(np.int64)

    def table(h):
        return pa.table({"h": h, "loc": loc, "n_tok": ntok})

    distinct = table(rng.integers(0, 2**63, N, dtype=np.uint64))
    assert len(np.unique(distinct["h"].to_numpy())) == N
    equal = table(np.full(N, 0x9E3779B97F4A7C15, dtype=np.uint64))

    out = _bucket_candidates(equal, with_manifest)
    cand = out["cand"].to_numpy()
    assert (cand == _C_DUP).sum() == N - 1 and (cand == _C_DUPREF).sum() == 1
    # the kept row is the run's first in file order
    assert out["loc"].to_numpy()[cand == _C_DUPREF].tolist() == [0]
    ratio = _best_wall_ratio(lambda t: _bucket_candidates(t, with_manifest), equal, distinct)
    assert ratio <= RATIO_BOUND, f"all-equal / distinct wall ratio {ratio:.2f}"


@pytest.mark.parametrize("shape", ["last_prefix_byte_bad", "all_slashes"])
def test_doc_id_parse_crafted_ids(shape):
    """The doc_id parse behind E12, E13 and the running checks
    (``schema.doc_id_fields``), on N crafted ids against N benign ids of the
    same byte count: a long prefix whose only bad byte is its last one, or
    a string of nothing but ``/``. Only the parse is timed, not the E12
    messages."""
    width = 64
    pre = "a" * (width - 15)
    benign = pa.array([f"{pre}a/0000/{i:08d}" for i in range(N)])
    crafted = pa.array(
        [f"{pre}A/0000/{i:08d}" for i in range(N)] if shape == "last_prefix_byte_bad"
        else ["/" * width] * N
    )
    assert benign.nbytes == crafted.nbytes

    ok, bad = S.doc_id_fields(benign), S.doc_id_fields(crafted)
    assert len(ok.malformed) == 0 and len(ok.rows) == N
    assert len(bad.malformed) == N and len(bad.missing) == 0
    assert len(bad.rows) == (N if shape == "last_prefix_byte_bad" else 0)
    ratio = _best_wall_ratio(S.doc_id_fields, crafted, benign)
    assert ratio <= RATIO_BOUND, f"crafted / benign wall ratio {ratio:.2f}"


def test_segment_fatal_onset_every_row():
    """Segment checks, a new fatal header on every row: 4,000 rows of
    ``[H, 1, FATAL, D, 5, 1, D, 6, 1]`` with a fresh H per row, against the
    same rows with one H. Both sides emit E73, E74 and E78 on every row,
    and each side's one allowed order starts with its first fatal header,
    so E76 needs the per-row keep-mask on both."""
    n, D, FATAL = 4_000, 3, 9_999

    def batch(heads):
        t = pa.table({
            "part": ["p"] * n,
            "row_index": pa.array(range(n), pa.int64()),
            "doc_id": [f"d{i}" for i in range(n)],
            "tokens": pa.array([[h, 1, FATAL, D, 5, 1, D, 6, 1] for h in heads],
                               pa.list_(pa.int32())),
        })
        return t, S.token_rows(t["tokens"].combine_chunks()), (int(heads[0]), 5, 6)

    def run(side):
        t, toks, order = side
        return run_segment_checks(t, toks, delim_id=D, max_segments=2,
                                  allowed_orders=(order,), fatal_sentinels=(FATAL,))

    crafted, benign = batch(range(1_000, 1_000 + n)), batch([7] * n)
    for side, n_new in ((crafted, n), (benign, 1)):
        v, new_fatal = run(side)
        assert len(new_fatal) == n_new
        codes = v["code"].to_numpy(zero_copy_only=False)
        assert sorted(set(codes)) == ["E73", "E74", "E78"]
        assert all((codes == c).sum() == n for c in ("E73", "E74", "E78"))
    ratio = _best_wall_ratio(run, crafted, benign)
    assert ratio <= RATIO_BOUND, f"onset-every-row / one-onset wall ratio {ratio:.2f}"
