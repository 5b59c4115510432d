"""Arrow schemas, error-code taxonomy and frozen message formats.

The error-code taxonomy mirrors the reference's ``[Exx]`` codes
(/root/reference/README.md:211-222) and its frozen message format
``MEM_OFFSET: [Exx] message`` (fastpasta/src/analyze/validators/its/util.rs:9-30).
Our position analog is ``(part, row_index)`` — partition id (one input file,
the analog of a GBT link) plus row index within the file.

Message strings are FROZEN: tests assert them byte-exactly, mirroring the
reference's exact-string asserts (fastpasta/src/analyze/validators/its/
cdp_running.rs:520-531). Pass 1's checks return hit rows (:class:`Hits`);
:func:`materialize` is the one place they become violation rows, and it
formats only the rows it keeps.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# --- vocabulary / domain defaults (FIXTURES.md) ---------------------------
VOCAB_SIZE = 50304
SOURCES = ("web", "books", "code", "wiki", "news", "forums", "academic", "legal")
# skew: ~70% of mass in the top source (FIXTURES.md: "skewed (~70% mass in top source)")
SOURCE_WEIGHTS = (0.70, 0.12, 0.06, 0.04, 0.03, 0.02, 0.01, 0.02)

DOC_ID_RE = r"^[a-z][a-z0-9_-]*/\d{4}/\d{8}$"

# --- schemas --------------------------------------------------------------
SEQUENCES_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)

# sequences as read by the engine: position columns attached by the source
SEQUENCES_POS_SCHEMA = pa.schema(
    [
        ("part", pa.string()),
        ("row_index", pa.int64()),
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)

VIOLATIONS_SCHEMA = pa.schema(
    [
        ("part", pa.string()),
        ("row_index", pa.int64()),
        ("doc_id", pa.string()),
        ("code", pa.string()),
        ("column", pa.string()),
        ("message", pa.string()),
    ]
)

MANIFEST_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("source", pa.string()),
        ("expected_n_tok", pa.int32()),
    ]
)

# --- error codes (reference analogs noted per code) -----------------------
# stateless sanity (analog of RDH sanity [E10..E16], rdh.rs:254-376)
E_NTOK_MISMATCH = "E10"      # n_tok != len(tokens)        ~ [E10] RDH sanity field
E_DOCID_FORMAT = "E12"       # doc_id malformed            ~ [E12] RDH CRU sanity
E_DOCID_NULL = "E13"         # doc_id null/empty
E_SCHEMA = "E14"             # partition file schema deviates from the run schema
                             # ~ set-once run attributes (rdh_stats.rs:41-73, G7)
E_SOURCE_NULL = "E40"        # source null/empty           ~ [E40] TDH sanity
E_SOURCE_DOMAIN = "E41"      # source not in domain        ~ [E41] TDH running
E_TOKEN_RANGE = "E70"        # token id out of vocab range ~ [E70] invalid data-word ID
E_TOKENS_NULL = "E100"       # tokens list null/truncated  ~ [E100] partial payload at EOF
# sequence-grammar (FSM) checks — analog of the ITS payload word-sequence
# grammar (its_payload_fsm_cont.rs:24-81) and status-word sanity [E30]/[E50]/[E60]
E_GRAMMAR_BOS = "E30"        # first token != BOS           ~ IHW sanity [E30]
E_GRAMMAR_EOS = "E50"        # last token != EOS            ~ TDT sanity [E50]
E_GRAMMAR_PAD = "E60"        # pad token before sequence end ~ DDW0 sanity [E60]
# running checks (analog of RdhCruRunningChecker [E11], rdh_running.rs:38-184)
E_ORDER = "E11"              # non-monotonic doc index within a partition
# exact-stride (trigger-period analog) sub-taxonomy, mirroring the
# reference's E44x family (tdh.rs:60-206, cdp_running.rs:342): E44 remains
# the family PREFIX (an enabled_codes entry "E44" matches all of these)
E_PERIOD = "E440"            # stride != expected, fresh      ~ [E440] bc not increasing
E_PERIOD_CONT = "E441"       # stride mismatch continuation   ~ [E441] continuation bc differs
E_INDEX_REPEAT = "E442"      # doc index repeated (stride 0)  ~ [E442] continuation orbit differs
E_INDEX_DECREASE = "E443"    # doc index went backwards       ~ [E443] continuation type differs
E_PART_ORDINAL = "E444"      # doc_id partition ordinal changed mid-partition ~ [E444] TDH orbit != RDH orbit
E_INDEX_ROW_DESYNC = "E445"  # doc-index advance != row_index advance x stride ~ [E445] TDH trigger_bc != RDH bc (tdh.rs:157)
# shuffle checks
E_DUP_DOCID = "E80"          # duplicate doc_id            ~ orbit-must-change (rdh_running.rs:125-133)
E_ORPHAN = "E71"             # doc_id missing from manifest ~ lane-not-active [E71] (ib.rs:14-22)
E_MANIFEST_NTOK = "E72"      # n_tok != manifest expected   ~ [E72] lane grouping
E_SEG_COUNT = "E73"          # segment count out of band    ~ [E73] lane count (alpide_readout_frame.rs:53-129)
E_SEG_HEADER = "E74"         # segment headers unequal      ~ [E74] cross-lane BC equality (alpide.rs:19-122)
E_SEG_EMPTY = "E75"          # empty segment                ~ [E75] empty-lane wrapper
E_SEG_ORDER = "E76"          # segment header order not in allowed orderings ~ chip_orders_ob (custom_checks_cfg.rs:16-24, lane_alpide_frame_analyzer.rs:180-320)
# APE lane-status ladder analog (lane_alpide_frame_analyzer.rs:73-177,
# alpide_word.rs:36-49): reserved sentinel tokens inside a segment set the
# segment's status. WARNING sentinels only report; FATAL sentinels mark the
# segment's HEADER fatal for the rest of the partition — fatal segments are
# excluded from E74/E76 and the E73 expected band drops by the running
# fatal count (alpide_readout_frame.rs:65-68 expect_lane_count -= fatal)
E_SEG_WARN = "E77"           # segment in WARNING status     ~ APE_STRIP_START/PE/OOT_DATA_MISSING
E_SEG_FATAL = "E78"          # segment in FATAL status       ~ APE_DET_TIMEOUT..APE_RATE_MISSING_TRG
E_EMPTY_DOC = "E701"         # manifest doc with no sequence row ~ [E701] empty readout frame
# stats / profile comparison (analog of validate_other_stats + custom checks
# [E9001]/[E9002], stats_validation.rs:4-38)
E_CUSTOM_COUNT = "E9001"     # user-expected counter mismatch
E_PROFILE_FIELD = "E9002"    # exact profile field mismatch
E_DRIFT_PSI = "E9440"        # PSI drift gate breached (per partition)
E_DRIFT_KS = "E9441"         # KS drift gate breached (per partition)

ALL_CODES = (
    E_NTOK_MISMATCH, E_DOCID_FORMAT, E_DOCID_NULL, E_SCHEMA, E_SOURCE_NULL,
    E_SOURCE_DOMAIN, E_TOKEN_RANGE, E_TOKENS_NULL, E_GRAMMAR_BOS,
    E_GRAMMAR_EOS, E_GRAMMAR_PAD, E_ORDER, E_PERIOD, E_PERIOD_CONT,
    E_INDEX_REPEAT, E_INDEX_DECREASE, E_PART_ORDINAL, E_INDEX_ROW_DESYNC,
    E_DUP_DOCID,
    E_ORPHAN, E_MANIFEST_NTOK, E_SEG_COUNT, E_SEG_HEADER, E_SEG_EMPTY,
    E_SEG_ORDER, E_SEG_WARN, E_SEG_FATAL,
    E_EMPTY_DOC, E_CUSTOM_COUNT, E_PROFILE_FIELD,
    E_DRIFT_PSI, E_DRIFT_KS,
)


def source_set(sources) -> pa.Array:
    """Value set for :func:`source_mask` — build once per file/stage."""
    return pa.array(list(sources), type=pa.string())


def source_mask(column, src_set: pa.Array) -> pa.Array:
    """Boolean keep-mask for the --filter-sources scope (the reference's
    global --filter-link group, config.rs:75-103): True where ``column``
    is a member of ``src_set``; nulls never match. ONE definition shared
    by the validation pass, the key-check exchange (both sides) and the
    views, so the membership semantics cannot drift between passes."""
    import pyarrow.compute as pc

    return pc.fill_null(pc.is_in(column, value_set=src_set), False)


def format_message(code: str, detail: str) -> str:
    """Frozen violation message body: ``[Exx] detail``.

    The full display line (analog of the reference's
    ``MEM_OFFSET: [Exx] message``) is ``{part}:{row_index}: [Exx] detail``,
    assembled by :func:`display_line`.
    """
    return f"[{code}] {detail}"


def violations(part, row_index, doc_id, code, column, detail) -> pa.Table:
    """The one violation-record builder: a VIOLATIONS_SCHEMA table, one row
    per detail. Each argument is an array (or list) with one value per row,
    or a scalar broadcast to every row; with only scalars it is one row.
    ``message`` is :func:`format_message` of each row's code and detail, so
    a caller hands it only the rows it keeps. No row gives the typed empty
    table."""
    cols = (part, row_index, doc_id, code, column, detail)
    n = next((len(c) for c in cols if not _is_scalar(c)), 1)
    if n == 0:
        return VIOLATIONS_SCHEMA.empty_table()
    code, detail = ([c] * n if _is_scalar(c) else c for c in (code, detail))
    message = [format_message(c, d) for c, d in zip(code, detail)]
    return pa.Table.from_arrays(
        [
            _column(v, f.type, n)
            for v, f in zip((part, row_index, doc_id, code, column, message), VIOLATIONS_SCHEMA)
        ],
        schema=VIOLATIONS_SCHEMA,
    )


def batch_violations(batch: pa.Table, rows, code, column, detail) -> pa.Table:
    """:func:`violations` at positions ``rows`` of a SEQUENCES_POS batch:
    ``part``, ``row_index`` and ``doc_id`` are gathered with one ``take``
    per column. Pass 1's own checks reach it through :func:`materialize`."""
    if not len(rows):
        return VIOLATIONS_SCHEMA.empty_table()
    idx = pa.array(rows, type=pa.int64())
    part, row_index, doc_id = (batch[c].take(idx) for c in ("part", "row_index", "doc_id"))
    return violations(part, row_index, doc_id, code, column, detail)


class Hits(list):
    """One pass-1 check's hits on one batch, rule by rule, each
    ``(rows, code, column, detail)``: ``rows`` are batch positions, and
    ``detail`` is the rule's message detail, one string for every row or a
    function from positions into ``rows`` to their details. Nothing is
    formatted until :func:`materialize` keeps a row."""

    # fpbench/tracing.py reads this name on every benchmark run and may not change with the engine
    @property
    def num_rows(self) -> int:
        """The hit count over every rule, before any filter or cap."""
        return sum(len(rule[0]) for rule in self)


def code_enabled(code: str, enabled: tuple | None) -> bool:
    """The error-code filter with PREFIX semantics (err_printer.rs:52-90):
    None enables every code; otherwise an entry enables the codes it is a
    prefix of ("E9" enables every E9xxx; an exact code is its own prefix).
    An empty entry (a trailing comma in --codes) enables nothing, and so
    does ``()``."""
    return enabled is None or any(p and code.startswith(p) for p in map(str, enabled))


def materialize(batch: pa.Table, checks: list, enabled: tuple | None = None,
                room: int | None = None) -> pa.Table:
    """The one place pass-1 hits become violation rows. ``checks`` holds,
    in order, each check's :class:`Hits` on ``batch``, or a table a
    registered custom check built (code-filtered already). The rules whose
    code ``enabled`` does not enable (:func:`code_enabled`) are dropped;
    the rest are stably sorted by ``row_index``, ties in ``checks`` order,
    then rule order; the first ``room`` (None: all) are kept, and only
    those are formatted, through :func:`batch_violations`."""
    if room is not None and room <= 0:
        return VIOLATIONS_SCHEMA.empty_table()
    srcs = []  # the enabled rules, and the custom tables
    for c in checks:
        srcs += [c] if isinstance(c, pa.Table) else [r for r in c if code_enabled(r[1], enabled)]
    row_index = batch["row_index"].to_numpy()
    keys = [s["row_index"].to_numpy() if isinstance(s, pa.Table) else row_index[s[0]]
            for s in srcs]
    lens = [len(k) for k in keys]
    if not sum(lens):
        return VIOLATIONS_SCHEMA.empty_table()
    ends = np.cumsum(lens)
    order = np.argsort(np.concatenate(keys), kind="stable")[:room]
    src = np.searchsorted(ends, order, side="right")  # each kept hit's source
    at = order - (ends - lens)[src]  # and its position there
    tables, placed = [], []
    for s in np.unique(src):
        placed.append(np.flatnonzero(src == s))
        k = at[placed[-1]]
        if isinstance(srcs[s], pa.Table):
            tables.append(srcs[s].take(pa.array(k)))
        else:
            rows, code, column, detail = srcs[s]
            tables.append(batch_violations(
                batch, rows[k], code, column, detail(k) if callable(detail) else detail
            ))
    # one table per source; put their rows back in sorted order
    out = pa.concat_tables(tables)
    return out if len(tables) == 1 else out.take(pa.array(np.argsort(np.concatenate(placed))))


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (str, int))


def _column(v, type_: pa.DataType, n: int):
    if _is_scalar(v):
        return pa.nulls(n, type_) if v is None else pa.array([v] * n, type=type_)
    return v if isinstance(v, (pa.Array, pa.ChunkedArray)) else pa.array(v, type=type_)


def display_line(part: str, row_index: int, code: str, detail: str) -> str:
    return f"{part}:{row_index}: [{code}] {detail}"


def token_excerpt(flat, row_start: int, row_end: int, center: int, radius: int = 3) -> str:
    """Space-separated window of the offending row's tokens around the flat
    position ``center``, clipped to the row's [row_start, row_end) span —
    the analog of the reference ErrPrinter's raw-word hex dump in error
    messages ("[E445] ... [03 3A 01 00 ...]", asserted cdp_running.rs:620-625;
    a GBT-word byte excerpt becomes a token-window excerpt here). Appended
    to payload-check messages as ``ctx [a b c ...]``."""
    lo = max(int(row_start), int(center) - radius)
    hi = min(int(row_end), int(center) + radius + 1)
    return " ".join(str(int(x)) for x in flat[lo:hi])


# --- the per-batch parse: pass 1 decides these once per batch --------------
class DocIds(NamedTuple):
    """One batch's doc_id column, parsed by :func:`doc_id_fields`. Each
    field is an array of row positions or of values at ``rows``."""

    missing: np.ndarray    # null or "" (E13)
    malformed: np.ndarray  # present, but not matching DOC_ID_RE (E12)
    rows: np.ndarray       # rows ending in /dddd/dddddddd
    ordinal: np.ndarray    # their 4-digit partition ordinal
    index: np.ndarray      # their 8-digit doc index


# "/dddd/dddddddd": the fixed-width tail every well-formed doc_id ends with
_TAIL = 14
_SLASHES = np.array([0, 5])
_DIGITS = np.r_[1:5, 6:14]


def _decimal(digit: np.ndarray) -> np.ndarray:
    """The numbers whose decimal digits are the rows of ``digit`` (at most
    8 columns, most significant first), built column by column in int32:
    no copy of the digit block."""
    v = digit[:, 0].astype(np.int32)
    for k in range(1, digit.shape[1]):
        v *= 10
        v += digit[:, k]
    return v.astype(np.int64)


def doc_id_fields(doc_id: pa.Array) -> DocIds:
    r"""The one doc_id parse: E13's ``missing``, E12's ``malformed`` and the
    running checks' ``(rows, ordinal, index)``, read from the Arrow offsets
    and data buffers (no regex, no per-row Python); ``string`` and
    ``large_string``, sliced or not.

    ``malformed`` is exactly RE2's verdict on :data:`DOC_ID_RE`: ``\d`` and
    ``[a-z]`` are ASCII and ``$`` is the end of the text, so a string
    matches iff its last 14 bytes are the tail and the bytes before them
    are one ASCII lowercase letter, then ``[a-z0-9_-]`` (no byte of a
    multi-byte UTF-8 sequence is ASCII). ``rows`` are the present strings
    that end in the tail, whatever their prefix; null rows never do."""
    if pa.types.is_large_string(doc_id.type):
        off_type = np.int64
    elif pa.types.is_string(doc_id.type):
        off_type = np.int32
    else:
        raise TypeError(f"doc_id must be string or large_string, got {doc_id.type}")
    n = len(doc_id)
    none = np.empty(0, np.int64)
    if n == 0:
        return DocIds(none, none, none, none, none)
    _, offsets, data = doc_id.buffers()
    offs = np.frombuffer(offsets, dtype=off_type, count=n + 1,
                         offset=doc_id.offset * np.dtype(off_type).itemsize).astype(np.int64)
    starts, ends = offs[:-1], offs[1:]
    present = ends > starts
    if doc_id.null_count:
        present &= doc_id.is_valid().to_numpy(zero_copy_only=False)
    rows = np.flatnonzero(present & (ends - starts >= _TAIL))
    if not len(rows):
        return DocIds(np.flatnonzero(~present), np.flatnonzero(present), none, none, none)
    buf = np.frombuffer(data, np.uint8)
    # row r's tail is the window of _TAIL bytes that starts at ends[r] - _TAIL
    tail = np.lib.stride_tricks.sliding_window_view(buf, _TAIL)[ends[rows] - _TAIL]
    digit = tail[:, _DIGITS] - np.uint8(ord("0"))  # a non-digit wraps to >= 10
    good = (tail[:, _SLASHES] == ord("/")).all(axis=1) & (digit < 10).all(axis=1)
    ordinal, index = _decimal(digit[:, :4]), _decimal(digit[:, 4:])
    if not good.all():
        rows, ordinal, index = rows[good], ordinal[good], index[good]
    # the prefix is one [a-z] byte, then [a-z0-9_-] bytes; a tail holds two
    # bytes outside that class, its slashes, so a row with a tail is well
    # formed iff its first byte is [a-z] and its string holds two such bytes.
    # The bytes of all rows (null rows included) tile the data, and each
    # row with a tail holds at least two, so a total of exactly two per such
    # row settles every row at once; otherwise count them per row
    data = buf[offs[0] : offs[-1]]
    outside = ~(
        (data - np.uint8(ord("a")) < 26) | (data - np.uint8(ord("0")) < 10)
        | (data == ord("_")) | (data == ord("-"))
    )
    ok = buf[starts[rows]] - np.uint8(ord("a")) < 26
    if np.count_nonzero(outside) != 2 * len(rows):
        spans = np.flatnonzero(ends > starts)
        n_out = np.zeros(n, dtype=off_type)  # a count never exceeds its string's length
        n_out[spans] = np.add.reduceat(outside, starts[spans] - offs[0], dtype=off_type)
        ok &= n_out[rows] == 2
    well_formed = np.zeros(n, dtype=bool)
    well_formed[rows[ok]] = True
    return DocIds(
        np.flatnonzero(~present),
        np.flatnonzero(present & ~well_formed),
        rows,
        ordinal,
        index,
    )


class TokenRows(NamedTuple):
    """One batch's ``tokens`` list layout, built by :func:`token_rows`."""

    flat: np.ndarray    # the values of the valid rows (``flatten()``)
    starts: np.ndarray  # each row's first position in ``flat``
    lens: np.ndarray    # each row's length; 0 for a null row
    valid: np.ndarray   # False for a null row (E100)


def token_rows(tokens: pa.Array) -> TokenRows:
    """The one derivation of the ``tokens`` layout that every payload check
    reads. ``flatten()`` skips the values a null row may still span, so
    null rows have length 0 and ``starts`` index into it."""
    lens = pc.list_value_length(tokens).fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.zeros(len(tokens), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    flat = tokens.flatten().to_numpy(zero_copy_only=False)
    return TokenRows(flat, starts, lens, tokens.is_valid().to_numpy(zero_copy_only=False))
