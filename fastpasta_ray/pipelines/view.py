"""View pipelines — formatted sample rows (the `view rdh` /
`view its-readout-frames` analogs, fastpasta/src/analyze/view/).

The reference streams every record through a row formatter to stdout; at
100 TB that is only ever useful for a bounded sample, so these take
``limit`` rows and format them on the driver: presentation, not a
distributed concern. The driver streams the partition files in order
(``iter_file_batches``) and stops reading at ``limit`` rows, so no Ray
task runs and rows always come out in ``(part, row_index)`` order.
"""

from __future__ import annotations

from fastpasta_ray import schema as S
from fastpasta_ray.sources.parquet import iter_file_batches, sequence_files

HEADER = f"{'PART':<12} {'ROW':>8} {'DOC_ID':<28} {'SOURCE':<10} {'N_TOK':>6}  TOKENS[:8]"


def _scoped(input_dir: str, limit: int, sources: tuple | None) -> list[dict]:
    """The first ``limit`` sequence rows, optionally scoped to sources (the
    global --filter-link analog, config.rs:75-103 — the reference's views
    honour the same filter group as checks, through ``S.source_mask``)."""
    src_set = S.source_set(sources) if sources is not None else None
    rows: list[dict] = []
    for path in sequence_files(input_dir):
        for b in iter_file_batches(path):
            if src_set is not None:
                b = b.filter(S.source_mask(b["source"], src_set))
            rows += b.slice(0, limit - len(rows)).to_pylist()
            if len(rows) >= limit:
                return rows
    return rows


def view_sequences(
    input_dir: str, limit: int = 20, *, sources: tuple | None = None
) -> list[str]:
    """Per-record pretty rows (rdh_view.rs:4-31 analog)."""
    lines = [HEADER]
    for row in _scoped(input_dir, limit, sources):
        toks = row["tokens"]
        head = ",".join(str(t) for t in (toks[:8] if toks is not None else []))
        tail = "…" if toks is not None and len(toks) > 8 else ""
        lines.append(
            f"{row['part']:<12} {row['row_index']:>8} {row['doc_id'] or '∅':<28} "
            f"{row['source'] or '∅':<10} {row['n_tok']:>6}  [{head}{tail}]"
        )
    return lines


def view_doc_frames(
    input_dir: str, limit: int = 10, *, sources: tuple | None = None
) -> list[str]:
    """Frame-level view (its_readout_frame_view.rs analog): one line per
    document with its token span summary."""
    lines = [f"{'DOC_ID':<28} {'SOURCE':<10} {'N_TOK':>6} {'TOK_MIN':>8} {'TOK_MAX':>8}"]
    for row in _scoped(input_dir, limit, sources):
        toks = row["tokens"] or []
        lines.append(
            f"{row['doc_id'] or '∅':<28} {row['source'] or '∅':<10} {row['n_tok']:>6} "
            f"{min(toks) if toks else '-':>8} {max(toks) if toks else '-':>8}"
        )
    return lines

TOKEN_CLASS_LEGEND = "classes: B=BOS E=EOS P=PAD D=delim .=data"


def view_doc_data(
    input_dir: str,
    limit: int = 5,
    *,
    bos_id: int | None = None,
    eos_id: int | None = None,
    pad_id: int | None = None,
    delim_id: int | None = None,
    words_per_line: int = 8,
    sources: tuple | None = None,
) -> list[str]:
    """Per-token data view (its_readout_frame_data_view.rs:3-35 analog):
    one frame-header line per document, then one line per group of
    ``words_per_line`` tokens with its token offset and a per-token
    classification lane — the analog of the reference's per-GBT-word
    formatted view with memory positions."""
    classes = {bos_id: "B", eos_id: "E", pad_id: "P", delim_id: "D"}
    classes.pop(None, None)
    lines = [TOKEN_CLASS_LEGEND]
    for row in _scoped(input_dir, limit, sources):
        toks = row["tokens"] if row["tokens"] is not None else []
        lines.append(
            f"=== {row['part']}:{row['row_index']} {row['doc_id'] or '∅'} "
            f"source={row['source'] or '∅'} n_tok={row['n_tok']}"
        )
        for off in range(0, len(toks), words_per_line):
            chunk = toks[off : off + words_per_line]
            vals = " ".join(f"{t:>6}" for t in chunk)
            lane = "".join(classes.get(t, ".") for t in chunk)
            lines.append(f"{off:>8}  {vals:<{7 * words_per_line}}  {lane}")
    return lines
