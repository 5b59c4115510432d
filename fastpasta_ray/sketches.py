"""Mergeable sketch states: counters, HyperLogLog, int histogram, t-digest-lite.

The reference pre-aggregates counters locally and flushes partials
(alice_protocol_reader/src/stats.rs:42-119); the single StatsCollector merges
them (fastpasta/src/stats/stats_collector.rs:34-56). Here every state is
*mergeable*: the driver folds the per-partition partials it holds into one
profile (checks/drift.py ``build_profile``).

All hashing is deterministic across processes: polars' seeded xxhash for
in-job string keys, a segmented FNV-polynomial + splitmix64 finisher over
raw Arrow string buffers for persisted string keys (fixed constants),
splitmix64 for ints.
"""

from __future__ import annotations

import base64
import json
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Cap polars' rayon pool before its first import: inside Ray map tasks the
# parallelism unit is the task (Ray sets OMP_NUM_THREADS=1 per worker);
# an uncapped polars would spawn num_cpus threads in EVERY worker.
os.environ.setdefault("POLARS_MAX_THREADS", os.environ.get("OMP_NUM_THREADS", "8"))
import polars as pl  # noqa: E402 - after the thread cap above


def one_chunk(col) -> pa.Array:
    """Contiguous Array view of a column — ZERO-COPY in the common case.

    Scanner batches and map_batches inputs are single-chunk, and
    ``ChunkedArray.combine_chunks()`` deep-copies even then (measured
    ~50 ms per 12 MB token batch — 21% of the validate UDF's wall at bench
    scale before round 4 replaced every hot-path combine_chunks call with
    this). ``chunk(0)`` shares buffers; only genuinely multi-chunk columns
    pay the one required concatenation."""
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 1:
            return col.chunk(0)
        if col.num_chunks == 0:
            return pa.array([], type=col.type)
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):  # combine of >1 chunk can
            col = col.chunk(0)  # still return a ChunkedArray for lists
    return col


def utf8_parts(texts) -> tuple[np.ndarray, np.ndarray]:
    """(concatenated utf-8 bytes, per-row byte lengths) of a string column.

    Arrow arrays are read zero-copy from the string column's data buffer +
    offsets (no to_pylist / per-row encode); nulls read as empty strings.
    Plain Python lists / numpy object arrays take the encode path."""
    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        a = one_chunk(texts)
        a = one_chunk(pc.fill_null(a, ""))
        # large_binary: 64-bit offsets regardless of input string width
        a = one_chunk(a.cast(pa.large_binary()))
        off_buf, data_buf = a.buffers()[1], a.buffers()[2]
        off = np.frombuffer(off_buf, dtype=np.int64)[a.offset : a.offset + len(a) + 1]
        lens = np.diff(off)
        if data_buf is None:
            return np.zeros(0, dtype=np.uint8), lens
        data = np.frombuffer(data_buf, dtype=np.uint8)[off[0] : off[-1]]
        return data, lens
    enc = [("" if t is None else t).encode("utf-8") for t in texts]
    lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=len(enc))
    return np.frombuffer(b"".join(enc), dtype=np.uint8), lens


def group_codes(col, include_null: bool = False) -> tuple[np.ndarray, list]:
    """(int64 group codes per row, distinct values) of a string column.

    Dictionary-encode once, then group masks are numeric ``codes == k``
    comparisons — no per-row Python objects and no O(rows × groups)
    object-array equality (the ``np.asarray(to_pylist, dtype=object)``
    pattern this replaces). NULL rows get code -1 (their own group, never
    merged with '' — code-review r4); callers iterating ``enumerate(
    uniques)`` therefore skip null rows unless they handle -1 explicitly
    OR pass ``include_null=True``, which appends ``None`` as a final
    group so NULL rows participate like SQL GROUP BY (ADVICE r4: the
    grouped-query partials silently dropped the NULL group the DuckDB
    oracles keep)."""
    a = one_chunk(col)
    enc = a.dictionary_encode()
    codes = pc.fill_null(enc.indices, -1).to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    uniques: list = [str(u) for u in enc.dictionary.to_pylist()]
    if include_null and (codes == -1).any():
        codes = codes.copy()
        codes[codes == -1] = len(uniques)
        uniques.append(None)
    return codes, uniques


_FNV = np.uint64(1099511628211)  # 64-bit FNV prime (odd → invertible mod 2^64)


def _inv_odd_u64(a: np.uint64) -> np.uint64:
    """Modular inverse of an odd 64-bit int mod 2^64 (Newton iteration)."""
    x = a
    with np.errstate(over="ignore"):
        for _ in range(6):  # 3 → 96 correct bits; 5 iters suffice, 6 is margin
            x = x * (np.uint64(2) - a * x)
    return x


_FNV_INV = _inv_odd_u64(_FNV)


_HASH_SEED = 0xF57A  # fixed → stable across processes within one polars build


def hash_strings(arr) -> np.ndarray:
    """Deterministic 64-bit hashes of a string array with zero per-row Python
    objects (VERDICT r3 item 3; replaces the object-array pd.util.hash_array
    path — 7-12× measured on text/id columns).

    polars' SIMD xxhash over the Arrow buffer (fixed seed → stable across
    processes for one polars build; hash values, never persisted
    semantics, may change across polars upgrades — all consumers compare
    hashes computed within one job). Values that must persist use
    :func:`_hash_byte_rows` instead. Accepts pyarrow Array / ChunkedArray,
    numpy object arrays, pandas Series, or Python lists. Nulls hash like
    empty strings."""
    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(["" if t is None else str(t) for t in arr], type=pa.string())
    arr = pc.fill_null(arr, "")
    out = pl.from_arrow(arr, rechunk=True)
    if isinstance(out, pl.DataFrame):  # multi-chunk from_arrow edge
        out = out.to_series()
    return out.hash(seed=_HASH_SEED).to_numpy()


def _pows_u64(base: np.uint64, n: int) -> np.ndarray:
    """[base^0, base^1, ..., base^(n-1)] mod 2^64 by doubling — log2(n)
    vectorized multiplies (2.5× numpy's sequential cumprod on this kernel)."""
    p = np.empty(n, dtype=np.uint64)
    if n == 0:
        return p
    p[0] = 1
    k, bk = 1, np.uint64(base)
    with np.errstate(over="ignore"):
        while k < n:
            m = min(k, n - k)
            np.multiply(p[:m], bk, out=p[k : k + m])  # base^(k..k+m) = base^(0..m) * base^k
            bk = bk * bk
            k *= 2
    return p


def _pow_u64(base: np.uint64, exp: np.ndarray) -> np.ndarray:
    """Per-element base^exp mod 2^64 (vectorized binary exponentiation)."""
    e = exp.astype(np.uint64, copy=True)
    out = np.ones(len(e), dtype=np.uint64)
    b = np.uint64(base)
    with np.errstate(over="ignore"):
        while e.any():
            odd = (e & np.uint64(1)).astype(bool)
            out[odd] *= b
            b = b * b
            e >>= np.uint64(1)
    return out


def _hash_byte_rows(data: np.ndarray, lens: np.ndarray) -> np.ndarray:
    n = len(lens)
    len_mix = splitmix64(lens.astype(np.uint64, copy=False) + np.uint64(0xA5A5))
    if n == 0 or len(data) == 0:
        # must match the main path's h=0 result for empty rows so a row's
        # hash never depends on batch composition (ADVICE r4: "" hashed
        # differently in an all-empty batch vs a mixed batch)
        return splitmix64(len_mix)
    nwords = (lens + 7) >> 3
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    max_len = int(lens.max())
    if max_len <= 64:
        # short rows (doc_ids / labels — the hot exchange path): gather into a
        # fixed-width (n, W·8) matrix and run a horizontal Horner over W words.
        # Identical to the segmented path: Horner yields Σ w_m·P^(W−1−m)
        # = P^(W−w_i)·H_i, corrected by one tiny per-row inverse power.
        w_max = (max_len + 7) >> 3
        dpad = np.zeros(len(data) + w_max * 8, dtype=np.uint8)
        dpad[: len(data)] = data
        cols = np.arange(w_max * 8, dtype=np.int32)
        mat = dpad[(starts[:, None] + cols).astype(np.int64, copy=False)]
        mat[cols >= lens[:, None]] = 0
        wmat = mat.view(np.uint64)
        h = np.zeros(n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for m in range(w_max):
                h = h * _FNV + wmat[:, m]
            h *= _pow_u64(_FNV_INV, (w_max - nwords).astype(np.uint64))
        return splitmix64(h ^ len_mix)
    woff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nwords, out=woff[1:])
    total_words = int(woff[-1])
    # +1 sentinel zero word: trailing empty rows have woff[i] == total_words,
    # and clamping those reduceat indices truncated the LAST non-empty row's
    # segment (ADVICE r4 high: hash depended on batch layout). With the
    # sentinel every boundary index is valid and the zero word adds nothing.
    padded = np.zeros((total_words + 1) * 8, dtype=np.uint8)
    pad_shift = woff[:-1] * 8 - starts  # dst − src offset; constant per row
    if len(data) >= 64 * n:
        # long rows: runs of equal shift copied with one slice each
        # (memcpy-bound; 5-6× the per-byte fancy-index scatter on text batches)
        chg = np.flatnonzero(np.diff(pad_shift)) + 1
        run_rows = np.r_[0, chg]
        src_a = starts[run_rows]
        src_b = np.r_[starts[chg], len(data)]
        for a, b, s in zip(src_a.tolist(), src_b.tolist(), pad_shift[run_rows].tolist()):
            padded[a + s : b + s] = data[a:b]
    else:
        # short rows (doc_ids): vectorized scatter; dst = src + shift
        padded[np.arange(len(data), dtype=np.int64) + np.repeat(pad_shift, lens)] = data
    words = padded.view(np.uint64)
    with np.errstate(over="ignore"):
        pinv = _pows_u64(_FNV_INV, total_words + 1)  # pinv[k] = P^-k mod 2^64
        terms = words * pinv
        # segmented sums at row boundaries (np.add.reduceat: no prefix array)
        seg = np.add.reduceat(terms, woff[:-1])
        seg[nwords == 0] = 0  # reduceat yields terms[i] for empty segments
        h = seg * _pow_u64(_FNV, np.maximum(woff[1:] - 1, 0))
    return splitmix64(h ^ len_mix)


def splitmix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


class HyperLogLog:
    """Classic HLL (Flajolet et al. 2007) with linear-counting small-range
    correction. p=14 → 16 KiB registers, ~0.8% relative error — the scale
    path for doc_id uniqueness at 10^12 rows (exact distinct-sets like the
    reference's G2 only work for small domains)."""

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 14, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (
            registers if registers is not None else np.zeros(self.m, dtype=np.uint8)
        )

    def add_hashes(self, h: np.ndarray) -> None:
        if len(h) == 0:
            return
        h = h.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h << np.uint64(self.p)
        # rank = leading zeros of the remaining 64-p bits, +1 (capped)
        # count leading zeros via bit_length on the 64-bit value
        nz = rest != 0
        lz = np.full(len(h), 64 - self.p, dtype=np.uint8)
        if nz.any():
            r = rest[nz]
            # floor(log2) via float conversion is exact for top bit position
            top = 63 - np.floor(np.log2(r.astype(np.float64))).astype(np.int64)
            # correct float rounding edge: ensure (r >> (63-top)) has top bit set
            shift = (np.uint64(63) - top.astype(np.uint64))
            wrong = (r >> shift) > np.uint64(1)
            top[wrong] -= 1
            lz_nz = np.minimum(top, 64 - self.p)
            lz[nz] = lz_nz.astype(np.uint8)
        rank = (lz + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def add_strings(self, arr) -> None:
        self.add_hashes(hash_strings(arr))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        inv = np.ldexp(1.0, -self.registers.astype(np.int64))
        e = (0.7213 / (1.0 + 1.079 / m)) * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                return m * math.log(m / zeros)
        return float(e)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "registers": base64.b64encode(self.registers.tobytes()).decode(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "HyperLogLog":
        return cls(d["p"], np.frombuffer(base64.b64decode(d["registers"]), dtype=np.uint8).copy())


class IntHistogram:
    """Exact histogram over a bounded non-negative int domain (n_tok).

    Mergeable by addition; yields EXACT quantiles/min/max/mean — the analog
    of the reference's trigger-type histogram (trigger_stats.rs:52-73) and
    our replacement for a t-digest where the domain is small ints."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[int, int] | None = None):
        self.counts: dict[int, int] = dict(counts or {})

    def add(self, values: np.ndarray) -> None:
        if len(values) == 0:
            return
        v, c = np.unique(np.asarray(values), return_counts=True)
        for vi, ci in zip(v.tolist(), c.tolist()):
            self.counts[int(vi)] = self.counts.get(int(vi), 0) + int(ci)

    def merge(self, other: "IntHistogram") -> "IntHistogram":
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v
        return self

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def min(self):
        return min(self.counts) if self.counts else None

    def max(self):
        return max(self.counts) if self.counts else None

    def mean(self):
        n = self.n
        if not n:
            return None
        return sum(k * v for k, v in self.counts.items()) / n

    def quantile(self, q: float):
        """Exact lower-interpolation quantile."""
        n = self.n
        if not n:
            return None
        target = max(0, min(n - 1, int(math.ceil(q * n)) - 1 if q > 0 else 0))
        acc = 0
        for k in sorted(self.counts):
            acc += self.counts[k]
            if acc > target:
                return k
        return max(self.counts)

    def quantiles(self, qs=(0.01, 0.25, 0.5, 0.75, 0.99)) -> dict[str, int]:
        return {f"p{int(q*100)}": self.quantile(q) for q in qs}

    def to_json(self) -> dict:
        return {str(k): v for k, v in self.counts.items()}

    @classmethod
    def from_json(cls, d: dict) -> "IntHistogram":
        return cls({int(k): int(v) for k, v in d.items()})

    def normalized(self, edges: np.ndarray) -> np.ndarray:
        """Probability mass per bucket for PSI/KS (edges = bucket boundaries)."""
        keys = np.fromiter(self.counts.keys(), dtype=np.int64, count=len(self.counts))
        vals = np.fromiter(self.counts.values(), dtype=np.int64, count=len(self.counts))
        if len(keys) == 0:
            return np.zeros(len(edges) - 1)
        idx = np.clip(np.searchsorted(edges, keys, side="right") - 1, 0, len(edges) - 2)
        out = np.zeros(len(edges) - 1)
        np.add.at(out, idx, vals)
        s = out.sum()
        return out / s if s else out


class TDigest:
    """Mergeable t-digest (Dunning & Ertl) for FLOAT quantiles — the scale
    path where the domain isn't bounded ints (IntHistogram stays the exact
    choice for n_tok). Simplified merging variant: buffered points are
    sorted and clustered under the scale-function size bound k1(q).
    Accuracy concentrates at the tails, ~0.5–2% mid-quantile error at
    delta=100."""

    __slots__ = ("delta", "means", "weights", "_buf")

    def __init__(self, delta: int = 100, means=None, weights=None):
        self.delta = delta
        self.means = np.asarray(means if means is not None else [], dtype=np.float64)
        self.weights = np.asarray(weights if weights is not None else [], dtype=np.float64)
        self._buf: list[np.ndarray] = []

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v):
            self._buf.append((v, np.ones(len(v))))
        if sum(len(b) for b, _ in self._buf) > 32 * self.delta:
            self._compress()

    def _compress(self) -> None:
        parts_p = ([self.means] if len(self.means) else []) + [b for b, _ in self._buf]
        parts_w = ([self.weights] if len(self.weights) else []) + [w for _, w in self._buf]
        self._buf = []
        if not parts_p:
            return
        pts = np.concatenate(parts_p)
        wts = np.concatenate(parts_w)
        if len(pts) == 0:
            return
        order = np.argsort(pts, kind="mergesort")
        pts, wts = pts[order], wts[order]
        total = wts.sum()
        means, weights = [], []
        cm, cw, q0 = pts[0] * wts[0], wts[0], 0.0
        for x, w in zip(pts[1:], wts[1:]):
            q = q0 + (cw + w / 2) / total
            limit = 4 * total * self.delta ** -1 * q * (1 - q) + 1
            if cw + w <= limit:
                cm += x * w
                cw += w
            else:
                means.append(cm / cw)
                weights.append(cw)
                q0 += cw / total
                cm, cw = x * w, w
        means.append(cm / cw)
        weights.append(cw)
        self.means = np.asarray(means)
        self.weights = np.asarray(weights)

    def merge(self, other: "TDigest") -> "TDigest":
        other._compress()
        if len(other.means):
            self._buf.append((other.means.copy(), other.weights.copy()))
        self._compress()
        return self

    def quantile(self, q: float) -> float | None:
        self._compress()
        if len(self.means) == 0:
            return None
        cum = np.cumsum(self.weights) - self.weights / 2
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means))

    def to_json(self) -> dict:
        self._compress()
        return {
            "delta": self.delta,
            "means": [round(float(m), 9) for m in self.means],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_json(cls, d: dict) -> "TDigest":
        return cls(d["delta"], d["means"], d["weights"])


class Counter:
    """String-keyed counter (source histogram, violation-by-code counts)."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[str, int] | None = None):
        self.counts: dict[str, int] = dict(counts or {})

    def add_arrow(self, arr) -> None:
        """Arrow fast path: pc.value_counts (C kernel, ~40× np.unique on
        pylists). Nulls count under ""."""
        import pyarrow.compute as pc

        if len(arr) == 0:
            return
        for item in pc.value_counts(arr).to_pylist():
            k = "" if item["values"] is None else str(item["values"])
            self.counts[k] = self.counts.get(k, 0) + int(item["counts"])

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def merge(self, other: "Counter") -> "Counter":
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v
        return self

    def to_json(self) -> dict:
        return dict(sorted(self.counts.items()))

    @classmethod
    def from_json(cls, d: dict) -> "Counter":
        return cls(d)


class MinMax:
    __slots__ = ("lo", "hi")

    def __init__(self, lo=None, hi=None):
        self.lo, self.hi = lo, hi

    def add(self, values: np.ndarray) -> tuple[int, int] | None:
        """Accumulate; returns this call's own (min, max) so callers can
        reuse the scan result instead of re-walking the array."""
        if len(values) == 0:
            return None
        lo, hi = int(values.min()), int(values.max())
        self.lo = lo if self.lo is None else min(self.lo, lo)
        self.hi = hi if self.hi is None else max(self.hi, hi)
        return lo, hi

    def merge(self, other: "MinMax") -> "MinMax":
        if other.lo is not None:
            self.add(np.array([other.lo, other.hi]))
        return self

    def to_json(self):
        return {"min": self.lo, "max": self.hi}

    @classmethod
    def from_json(cls, d):
        return cls(d.get("min"), d.get("max"))


class VocabBitmap:
    """Exact distinct-token-id set over the bounded vocab domain — a plain
    bit array (vocab/8 bytes) is cheaper AND exact where HLL would
    approximate. Mergeable by OR; the 'vocab coverage' training-data metric."""

    __slots__ = ("vocab", "seen")

    def __init__(self, vocab: int, seen: np.ndarray | None = None):
        self.vocab = vocab
        self.seen = seen if seen is not None else np.zeros(vocab, dtype=bool)

    def add(self, token_ids: np.ndarray, minmax: tuple | None = None) -> None:
        """``minmax``: the batch's (min, max) when the caller already knows
        it (the validate stage computes it anyway) — an all-in-range batch
        skips the three filtering passes (2× bool masks + fancy-index copy
        over every token; was 53% of pass-1 compute at bench scale)."""
        if len(token_ids) == 0:
            return
        if minmax is not None and minmax[0] >= 0 and minmax[1] < self.vocab:
            self.seen[token_ids] = True
            return
        v = token_ids[(token_ids >= 0) & (token_ids < self.vocab)]
        self.seen[v] = True

    def merge(self, other: "VocabBitmap") -> "VocabBitmap":
        np.logical_or(self.seen, other.seen, out=self.seen)
        return self

    @property
    def count(self) -> int:
        return int(self.seen.sum())

    def to_json(self) -> dict:
        return {
            "vocab": self.vocab,
            "bits": base64.b64encode(np.packbits(self.seen).tobytes()).decode(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "VocabBitmap":
        bits = np.unpackbits(
            np.frombuffer(base64.b64decode(d["bits"]), dtype=np.uint8)
        )[: d["vocab"]].astype(bool)
        return cls(d["vocab"], bits)


def scan_token_values(
    vals: np.ndarray, mm: "MinMax", bitmap: "VocabBitmap"
) -> tuple[int, int] | None:
    """Fused, cache-blocked single pass over a flat token array: batch
    min/max AND the vocab-bitmap scatter per ~1 MiB chunk while the chunk
    is cache-resident. The separate np.min + np.max + scatter calls each
    re-streamed the whole (GB-sized) array from DRAM; on this
    bandwidth-bound stage the fusion cuts token-value DRAM traffic 3×
    (the bitmap itself is vocab/8 bytes — L2-resident). Returns the
    batch's (min, max) for the E70 gate, like MinMax.add did."""
    n = len(vals)
    if n == 0:
        return None
    vocab = bitmap.vocab
    seen = bitmap.seen
    chunk = 1 << 18  # 1 MiB of int32 — L2-sized
    gmin = None
    gmax = None
    for s in range(0, n, chunk):
        c = vals[s : s + chunk]
        lo = int(c.min())
        hi = int(c.max())
        if gmin is None or lo < gmin:
            gmin = lo
        if gmax is None or hi > gmax:
            gmax = hi
        if lo >= 0 and hi < vocab:
            seen[c] = True
        else:
            seen[c[(c >= 0) & (c < vocab)]] = True
    mm.lo = gmin if mm.lo is None else min(mm.lo, gmin)
    mm.hi = gmax if mm.hi is None else max(mm.hi, gmax)
    return gmin, gmax


class PartStats:
    """Per-partition mergeable stats bundle — the unit that flows from the
    validate stage to the final merge (analog of the reference's per-link
    stats flushed to the Controller)."""

    __slots__ = ("row_count", "token_count", "hll", "n_tok_hist", "source_hist", "token_mm", "vocab_bitmap", "has_payload", "fatal_segments")

    def __init__(self, vocab: int = 50304, has_payload: bool = True):
        self.row_count = 0
        self.token_count = 0
        # explicit payload flag (ADVICE r2): inferring payload presence
        # from token_count != 0 silently skipped token-field drift checks
        # on corpora whose token lists are genuinely all empty
        self.has_payload = has_payload
        self.hll = HyperLogLog()
        self.n_tok_hist = IntHistogram()
        self.source_hist = Counter()
        self.token_mm = MinMax()
        self.vocab_bitmap = VocabBitmap(vocab)
        # segment headers that went FATAL in this partition (APE ladder
        # analog — the reference's per-run fatal_lanes list)
        self.fatal_segments: set[int] = set()

    def merge(self, other: "PartStats") -> "PartStats":
        self.row_count += other.row_count
        self.token_count += other.token_count
        self.has_payload = self.has_payload and other.has_payload
        self.hll.merge(other.hll)
        self.n_tok_hist.merge(other.n_tok_hist)
        self.source_hist.merge(other.source_hist)
        self.token_mm.merge(other.token_mm)
        self.vocab_bitmap.merge(other.vocab_bitmap)
        self.fatal_segments |= other.fatal_segments
        return self

    def to_json(self) -> str:
        return json.dumps(
            {
                "row_count": self.row_count,
                "token_count": self.token_count,
                "has_payload": self.has_payload,
                "hll": self.hll.to_json(),
                "n_tok_hist": self.n_tok_hist.to_json(),
                "source_hist": self.source_hist.to_json(),
                "token_mm": self.token_mm.to_json(),
                "vocab_bitmap": self.vocab_bitmap.to_json(),
                "fatal_segments": sorted(self.fatal_segments),
            }
        )

    @classmethod
    def from_json(cls, s: str) -> "PartStats":
        d = json.loads(s)
        ps = cls()
        ps.row_count = d["row_count"]
        ps.token_count = d["token_count"]
        # blobs from before the explicit flag fall back to inference
        ps.has_payload = d.get("has_payload", d["token_count"] > 0)
        ps.hll = HyperLogLog.from_json(d["hll"])
        ps.n_tok_hist = IntHistogram.from_json(d["n_tok_hist"])
        ps.source_hist = Counter.from_json(d["source_hist"])
        ps.token_mm = MinMax.from_json(d["token_mm"])
        if "vocab_bitmap" in d:
            ps.vocab_bitmap = VocabBitmap.from_json(d["vocab_bitmap"])
        ps.fatal_segments = set(d.get("fatal_segments", ()))
        return ps
