"""Custom joins Ray Data lacks: as-of join (and the broadcast patterns
used in queries.py).

As-of join semantics: for each left row, the single right row with the
largest right timestamp ≤ the left timestamp, within the same key group —
the standard event-attribution / market-data join.

Implementation (per SURVEY.md custom-operator guidance): one two-sided
``hash_exchange`` on ``by`` co-partitions the sides, and reduce task
``p`` joins left shard ``p`` with right shard ``p`` — no union, no
null-padded columns (the UNION ALL pushdown of PAPERS.md's Teradata
paper). Inside a task: Arrow C-kernel sort + per-key-segment numpy
searchsorted (the same kernel as the interval join below — VERDICT r3
item 5 removed the pd.merge_asof conversion). Correctness requires only
key co-location, which hash partitioning provides regardless of key
skew. One reduce task holds about (left + right rows) ÷ ``n_parts``
rows; a single hot key stays on one task.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fastpasta_ray.exchange import Blocks, blocks, hash_exchange


def asof_join(
    left: "Blocks | pa.Table",
    right: "Blocks | pa.Table",
    *,
    on: str,
    by: str,
    right_cols: list[str] | None = None,
    direction: str = "backward",
) -> Blocks:
    """As-of join of two sides on time column ``on`` within key ``by``:
    every left column, then ``{on}_right`` and the right side's other
    columns (NULL where no right row matches)."""

    if direction not in ("backward", "forward"):
        raise ValueError(f"asof_join: unsupported direction {direction!r}")
    left, right = blocks(left), blocks(right)
    if right_cols:
        right = right.select_columns([by, on] + right_cols)
    fields = {f.name: f for f in left.schema}
    fields[f"{on}_right"] = right.schema.field(on).with_name(f"{on}_right")
    fields.update({f.name: f for f in right.schema if f.name not in (on, by)})

    def _sortable(col: pa.ChunkedArray) -> np.ndarray:
        v = col.to_numpy(zero_copy_only=False)
        if v.dtype.kind == "M":  # timestamps → int64 for searchsorted
            return v.astype("datetime64[us]").astype(np.int64)
        return v

    def merge(l: pa.Table, r: pa.Table) -> pa.Table:
        # Arrow C-kernel sort; per-key right segments + one vectorized
        # searchsorted per distinct left key (no pandas)
        r = r.sort_by([(by, "ascending"), (on, "ascending")])
        l = l.sort_by([(on, "ascending")])
        rts = _sortable(r[on])
        rkeys = r[by].to_numpy(zero_copy_only=False)
        seg_new = np.r_[True, rkeys[1:] != rkeys[:-1]] if len(rkeys) else np.zeros(0, bool)
        seg_starts = np.flatnonzero(seg_new)
        seg_ends = np.r_[seg_starts[1:], len(rkeys)]
        seg_index = {
            k: (int(s), int(e))
            for k, s, e in zip(rkeys[seg_starts] if len(seg_starts) else rkeys[:0], seg_starts, seg_ends)
        }
        lts = _sortable(l[on])
        lkeys = l[by].to_numpy(zero_copy_only=False)
        match = np.full(l.num_rows, -1, dtype=np.int64)
        order = np.argsort(lkeys, kind="stable")
        lk_s = lkeys[order]
        starts = np.flatnonzero(np.r_[True, lk_s[1:] != lk_s[:-1]]) if len(lk_s) else np.zeros(0, np.int64)
        for si, s in enumerate(starts):
            e = starts[si + 1] if si + 1 < len(starts) else len(lk_s)
            seg = seg_index.get(lk_s[s])
            if seg is None:
                continue
            rs, re = seg
            sub = order[s:e]
            t = lts[sub]
            if direction == "backward":  # largest right ts <= left ts
                idx = np.searchsorted(rts[rs:re], t, side="right") - 1
            else:  # forward: smallest right ts >= left ts
                idx = np.searchsorted(rts[rs:re], t, side="left")
                idx[idx >= re - rs] = -1
            match[sub] = np.where(idx >= 0, idx + rs, -1)
        take = pa.array(match, mask=match < 0)  # null index → null output
        cols = {c: l[c] for c in l.column_names}
        cols[f"{on}_right"] = pc.take(r[on], take)
        for c in r.column_names:
            if c not in (on, by):
                cols[c] = pc.take(r[c], take)
        return pa.table(cols)

    return Blocks(hash_exchange((left, right), by, merge), pa.schema(list(fields.values())),
                  left.rows)


def range_join_count(
    left: "Blocks | pa.Table",
    right: "Blocks | pa.Table",
    *,
    by: str,
    left_ts: str = "ts",
    right_ts: str = "ts",
    before_seconds: float = 0.0,
    after_seconds: float = 300.0,
    count_col: str = "n_matches",
) -> Blocks:
    """Range (interval) join Ray Data lacks natively, in COUNT form: for
    each left row, the number of right rows of the same key with
    ``right_ts ∈ [left_ts − before, left_ts + after]`` (inclusive).

    Composition: the asof_join plan — one two-sided ``hash_exchange`` on
    ``by`` → per-task sort + two vectorized searchsorteds. Equivalent SQL:
    a correlated COUNT over ``r.ts BETWEEN l.ts - before AND l.ts +
    after``. Output rows: (``by``, ``__ts``, ``count_col``) per left row."""
    lo_us = np.int64(round(before_seconds * 1_000_000))
    hi_us = np.int64(round(after_seconds * 1_000_000))

    def us(col) -> pa.ChunkedArray:
        return pc.cast(col, pa.timestamp("us"))

    def count(l: pa.Table, r: pa.Table) -> pa.Table:
        # Arrow C-kernel sort, numpy from there (no pandas — VERDICT r2 #6
        # family)
        r = r.sort_by([(by, "ascending"), (right_ts, "ascending")])
        rts = us(r[right_ts]).to_numpy(zero_copy_only=False).astype(np.int64)
        rkeys = r[by].to_numpy(zero_copy_only=False)
        seg_new = np.r_[True, rkeys[1:] != rkeys[:-1]] if len(rkeys) else np.zeros(0, bool)
        seg_starts = np.flatnonzero(seg_new)
        seg_keys = rkeys[seg_starts] if len(seg_starts) else rkeys[:0]
        seg_ends = np.r_[seg_starts[1:], len(rkeys)]
        seg_index = {k: (int(s), int(e)) for k, s, e in zip(seg_keys, seg_starts, seg_ends)}
        l_us = us(l[left_ts])
        lts = l_us.to_numpy(zero_copy_only=False).astype(np.int64)
        lkeys = l[by].to_numpy(zero_copy_only=False)
        cnt = np.zeros(len(lts), dtype=np.int64)
        # group left rows by key, vectorized searchsorted per key segment
        order = np.argsort(lkeys, kind="stable")
        lk_s = lkeys[order]
        starts = np.flatnonzero(np.r_[True, lk_s[1:] != lk_s[:-1]]) if len(lk_s) else np.zeros(0, np.int64)
        for si, s in enumerate(starts):
            e = starts[si + 1] if si + 1 < len(starts) else len(lk_s)
            seg = seg_index.get(lk_s[s])
            if seg is None:
                continue
            rs, re = seg
            sub = order[s:e]
            t = lts[sub]
            cnt[sub] = np.searchsorted(rts[rs:re], t + hi_us, side="right") - np.searchsorted(
                rts[rs:re], t - lo_us, side="left"
            )
        return pa.table({by: l[by], "__ts": l_us, count_col: pa.array(cnt)})

    left = blocks(left).select_columns([by, left_ts])
    schema = pa.schema([left.schema.field(by), ("__ts", pa.timestamp("us")), (count_col, pa.int64())])
    sides = (left, blocks(right).select_columns([by, right_ts]))
    return Blocks(hash_exchange(sides, by, count), schema, left.rows)
