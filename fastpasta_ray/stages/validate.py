"""The per-partition validator stage — the LinkValidator analog.

The reference spawns one validator thread per link that consumes that
link's records in order and runs sanity + running checks, sending error
strings and stat increments to a central collector
(fastpasta/src/analyze/validators/link_validator.rs:110-161,
validator_dispatcher.rs:68-163). Ray equivalent: each partition FILE is
validated by exactly one raw Ray task (``validate_task``; a task takes a
group of files), which streams the file's row batches in order, runs

  - vectorized stateless row checks (row_checks.py, C-analogs),
  - the running monotonicity check carrying state across batches (R1 analog),
  - mergeable stats accumulation (PartStats: counters, HLL, histograms),
  - the key-check exchange's map side: the ``(h, loc, n_tok)`` rows of the
    duplicate / referential checks, hashed once for both the HLL and the
    exchange (checks/key_checks.py),

and yields violation tables as it goes (capped per partition, so bounded
memory). At file end it hands back one typed ``(part, PartStats,
drift_metrics)`` record — so a single read of each partition produces the
violations table, the stats partials (the reference's separate stats
channel, but data-parallel and mergeable instead of a single consumer)
and the key-check shards, each as its own task return.

Violations per partition are capped (``max_errors_per_part``) — the
documented divergence from the reference's global ``max_tolerate_errors``
early-stop (SURVEY.md G8: no clean global counter in a streaming dataset).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from fastpasta_ray import schema as S
from fastpasta_ray.checks import key_checks as kc
from fastpasta_ray.checks.row_checks import run_row_checks
from fastpasta_ray.checks.running_checks import RunningState
from fastpasta_ray.sketches import PartStats, hash_strings, one_chunk
from fastpasta_ray.sources.parquet import iter_file_batches, part_of


@dataclass
class CheckConfig:
    vocab: int = S.VOCAB_SIZE
    source_domain: tuple = S.SOURCES
    batch_rows: int | str = "auto"   # "auto" = ~32 MiB per batch from file metadata
    max_errors_per_part: int = 10_000
    # global error budget (max_tolerate_errors analog, controller.rs:229-246):
    # a counter actor is incremented per finished partition and polled at
    # partition granularity — partitions already in flight still complete,
    # the documented divergence from the reference's per-record stop flag
    max_errors_global: int | None = None
    running_checks: bool = True          # `check all` vs `check sanity` analog
    # False = never read the tokens payload (M7 skip_payload analog /
    # `check all` RDH-only mode, config.rs:249-261): scalar-only column-
    # pruned read; token-dependent checks (E10 len, E70 range, grammar) and
    # token stats are skipped, everything else runs
    read_payload: bool = True
    # analysis-scope filter (the reference's GLOBAL --filter-link /
    # --filter-fee group, config.rs:75-103): when set, every pass — row
    # checks, running checks, stats, key checks — sees only rows whose
    # `source` is in the tuple, exactly as the reference's input scanner
    # drops non-matching links before any validator runs. Violation
    # row_index still names the ORIGINAL file position.
    filter_sources: tuple | None = None
    enabled_codes: tuple | None = None   # exact codes OR prefixes ("E9" → E9xxx)
    expected_row_count: int | None = None  # custom-checks `cdps` analog (E9001)
    # exact doc-index stride per partition (R4 trigger-period analog,
    # tdh.rs:60-206 [E440..E445]); None = monotonicity only
    expected_index_stride: int | None = None
    drift_psi_threshold: float = 0.2
    drift_ks_threshold: float = 0.15
    # sequence-grammar (FSM analog) rules; None disables each — the
    # custom-checks TOML analog (custom_checks_cfg.rs:7-28)
    bos_id: int | None = None
    eos_id: int | None = None
    pad_id: int | None = None
    # nested segment decode (ALPIDE deep-decode analog, checks/segments.py);
    # None disables — E73 count band / E74 header equality / E75 empty /
    # E76 allowed header orderings (chip_orders_ob analog,
    # custom_checks_cfg.rs:16-24): tuple of allowed header sequences
    segment_delim_id: int | None = None
    min_segments: int | None = None
    max_segments: int | None = None
    allowed_segment_orders: tuple | None = None
    # APE lane-status ladder analog (lane_alpide_frame_analyzer.rs:73-177,
    # alpide_word.rs:36-49): reserved token ids that set a segment's
    # status. WARNING → E77 report only; FATAL → E78 + the segment's
    # header joins the partition's running fatal set (fatal segments drop
    # out of E74/E76 and lower the E73 band — see checks/segments.py)
    warning_sentinel_ids: tuple | None = None
    fatal_sentinel_ids: tuple | None = None
    extra: dict = field(default_factory=dict)

    @property
    def grammar(self):
        from fastpasta_ray.checks.grammar import GrammarConfig

        return GrammarConfig(self.bos_id, self.eos_id, self.pad_id)


def _filter_codes(v: pa.Table, enabled: tuple | None) -> pa.Table:
    """Error-code filter with PREFIX semantics (err_printer.rs:52-90):
    an entry matches codes it is a prefix of — "E9" enables every E9xxx;
    an exact code is trivially its own prefix."""
    if enabled is None or v.num_rows == 0:
        return v
    # empty-string prefixes (e.g. a trailing comma in --codes) would match
    # EVERYTHING — drop them; an empty prefix set matches nothing, like
    # the exact is_in semantics this replaced
    prefixes = [str(p) for p in enabled if str(p)]
    if not prefixes:
        return v.slice(0, 0)
    mask = None
    for p in prefixes:
        m = pc.starts_with(v["code"], pattern=p)
        mask = m if mask is None else pc.or_(mask, m)
    return v.filter(mask)


@ray.remote(num_cpus=0)
class ErrorBudget:
    """Global error counter (the reference's AtomicBool stop flag analog,
    controller.rs:229-246). Tasks add their partition's violation count and
    learn whether the budget is blown; polling is at partition granularity
    so in-flight partitions still finish — the documented divergence."""

    def __init__(self, budget: int):
        self.budget = budget
        self.count = 0

    def add(self, n: int) -> bool:
        self.count += n
        return self.count > self.budget

    def exceeded(self) -> bool:
        return self.count > self.budget

    def total(self) -> int:
        return self.count


class ValidateFiles:
    """Pass-1 validator: constant setup (domain sets, config) happens once
    in ``__init__``; the driver ships one instance to every
    ``validate_task``, and each task validates whole files."""

    def __init__(
        self,
        cfg: CheckConfig | None = None,
        reference_profile: dict | None = None,
        checkpoint_dir: str | None = None,
        error_budget=None,
    ):
        # handle of the global ErrorBudget actor (None = no global cap)
        self.error_budget = error_budget
        # the reference profile is broadcast ONCE with the stage (task/actor
        # init), so each partition judges its own drift locally — at 10^6
        # partitions the driver never has to hold every partition's sketches
        # just to run the drift gate
        self.cfg = cfg or CheckConfig()
        self.profile = reference_profile
        # with a checkpoint_dir, each task commits its partition the moment
        # the partition finishes (violations are capped → bounded in-task
        # accumulation); a killed run keeps every finished partition
        self.checkpoint_dir = checkpoint_dir

    def _spend(self, n: int) -> None:
        """Partition-granular increment of the global budget by a finished
        partition's violations: row/running AND drift-gate ones (ADVICE r2;
        E14 and key-check violations are added by run_check after pass 1).
        SYNCHRONOUS: a fire-and-forget add could still be in the actor's
        mailbox when the driver reads totals after pass 1 finishes,
        undercounting and misreporting stopped_early; one blocking RPC per
        partition is noise."""
        if self.error_budget is not None and n:
            ray.get(self.error_budget.add.remote(n))

    def validate_files(self, paths: list[str], part_idxs: list[int], n_parts: int):
        """One pass-1 task: validate ``paths`` in order and return
        ``(violations, records, *shards)``: their violations table, one
        ``(part, PartStats, drift_metrics)`` record per validated file,
        and, with ``n_parts`` > 0 (key checks on), one ``(h, loc, n_tok)``
        key-check shard per reduce task, built from the batches
        ``validate_file`` already decoded — so the exchange needs no second
        read of these files."""
        tables, records, tagged = [], [], []
        for path, part_idx in zip(paths, part_idxs):
            if self.error_budget is not None and ray.get(
                self.error_budget.exceeded.remote()
            ):
                # global budget blown: stop validating further partitions
                # (in-flight ones elsewhere still finish — divergence window
                # is one partition per worker, documented in CheckConfig);
                # the exchange reads the skipped ones itself
                break
            keys = [] if n_parts else None
            tables.extend(self.validate_file(path, keys, records))
            tagged.extend((h, kc._loc(part_idx, row), ntok) for h, row, ntok in keys or ())
        out = pa.concat_tables(tables) if tables else S.VIOLATIONS_SCHEMA.empty_table()
        if not n_parts:
            return out, records
        shards = kc._shards_of(tagged, n_parts)  # a bare table when n_parts == 1
        return (out, records, shards) if n_parts == 1 else (out, records, *shards)

    def validate_file(
        self, path: str, keys: list | None = None, records: list | None = None
    ) -> Iterator[pa.Table]:
        """Validate one partition file, yielding its violation tables.
        ``keys``, when a list, receives each batch's key-check rows
        (``key_checks._key_rows``) after the source filter; ``records``,
        when a list, receives the file's ``(part, PartStats,
        drift_metrics)`` once the file is done. The driver has already
        tested the file's schema (``pipelines.check.schema_violation``)."""
        cfg = self.cfg
        # stats.fatal_segments is also the partition's running fatal set of
        # the segment checks (APE ladder analog; grows batch to batch like
        # the reference's fatal_lanes)
        stats = PartStats(vocab=cfg.vocab, has_payload=cfg.read_payload)
        running = (
            RunningState(
                cfg.expected_index_stride,
                # filtered view of a partition-global stride-k stream:
                # surviving intervals are exact multiples of k (see
                # RunningState.stride_multiples)
                stride_multiples=cfg.filter_sources is not None,
            )
            if cfg.running_checks
            else None
        )
        emitted = 0
        own_violations: list[pa.Table] = []  # for the in-task commit
        # the partition name comes from the path, never from a batch: a
        # zero-row file has none, and a "?" fallback would collide commit
        # records across empty files and rerun them on every resume (ADVICE r1)
        part = part_of(path)
        columns = None if cfg.read_payload else ["doc_id", "n_tok", "source"]
        src_set = (
            S.source_set(cfg.filter_sources) if cfg.filter_sources is not None else None
        )
        for batch in iter_file_batches(path, columns, cfg.batch_rows):
            if src_set is not None:
                # scope the whole analysis to the filtered sources; the
                # row_index column (attached pre-filter) keeps naming the
                # original file positions in any violation
                batch = batch.filter(S.source_mask(batch["source"], src_set))
            if batch.num_rows == 0:
                continue
            # --- the batch's one parse, read by every check below --------
            doc_id = one_chunk(batch["doc_id"])
            ids = S.doc_id_fields(doc_id)
            toks = S.token_rows(one_chunk(batch["tokens"])) if cfg.read_payload else None
            # --- stats accumulation (vectorized, one pass) -----------------
            stats.row_count += batch.num_rows
            minmax = None
            if toks is not None:
                stats.token_count += len(toks.flat)
                # fused cache-blocked min/max + bitmap scatter: one DRAM
                # pass over the token values instead of three
                from fastpasta_ray.sketches import scan_token_values

                minmax = scan_token_values(toks.flat, stats.token_mm, stats.vocab_bitmap)
            ntok = one_chunk(batch["n_tok"])
            stats.n_tok_hist.add(ntok.drop_null().to_numpy(zero_copy_only=False))  # E10 flags a null
            stats.source_hist.add_arrow(one_chunk(batch["source"]))
            h = hash_strings(doc_id)
            stats.hll.add_hashes(h)
            if keys is not None:
                keys.append(kc._key_rows(doc_id, one_chunk(batch["row_index"]).to_numpy(), ntok, h))
            # --- checks: every check's table, concatenated once ------------
            # past the per-partition cap only the carried state advances:
            # the running checks and the segment checks' fatal set
            room = cfg.max_errors_per_part - emitted
            checks = []
            if room > 0:
                checks.append(run_row_checks(
                    batch, ids, toks, minmax,
                    vocab=cfg.vocab, source_domain=cfg.source_domain,
                ))
                if cfg.read_payload and (
                    cfg.bos_id is not None or cfg.eos_id is not None or cfg.pad_id is not None
                ):
                    from fastpasta_ray.checks.grammar import run_grammar_checks

                    checks.append(run_grammar_checks(batch, toks, cfg.grammar))
            if cfg.read_payload and cfg.segment_delim_id is not None:
                from fastpasta_ray.checks.segments import run_segment_checks

                sv, new_fatal = run_segment_checks(
                    batch, toks,
                    delim_id=cfg.segment_delim_id,
                    min_segments=cfg.min_segments,
                    max_segments=cfg.max_segments,
                    allowed_orders=cfg.allowed_segment_orders,
                    warning_sentinels=cfg.warning_sentinel_ids,
                    fatal_sentinels=cfg.fatal_sentinel_ids,
                    fatal_heads=stats.fatal_segments,
                )
                # the reference's add_fatal_lanes (readout_frame.rs:40-50);
                # surfaced in the report via PartStats
                stats.fatal_segments.update(new_fatal)
                checks.append(sv)
            if room > 0 and cfg.extra.get("custom_checks"):
                from fastpasta_ray.checks.registry import run_custom_checks

                checks.append(run_custom_checks(batch, cfg))
            if running is not None:
                checks.append(running.check_batch(batch, ids))
            if room <= 0:
                continue
            v = _filter_codes(pa.concat_tables(checks), cfg.enabled_codes)
            if v.num_rows > room:
                # the cap keeps the partition's first violations in row
                # order, however the rows are cut into batches
                order = np.argsort(v["row_index"].to_numpy(), kind="stable")
                v = v.take(pa.array(order[:room]))
            if v.num_rows:
                emitted += v.num_rows
                if self.checkpoint_dir is not None:
                    own_violations.append(v)
                yield v
        # --- in-task drift gate vs the broadcast reference profile ---------
        drift_metrics = None
        n_drift = 0
        if self.profile is not None:
            from fastpasta_ray.checks.drift import drift_check

            dv, dm = drift_check(
                {part: stats},
                self.profile,
                psi_threshold=cfg.drift_psi_threshold,
                ks_threshold=cfg.drift_ks_threshold,
            )
            dv = _filter_codes(dv, cfg.enabled_codes)
            if dv.num_rows:
                yield dv
            n_drift = dv.num_rows
            drift_metrics = dm.get(part)
            if dv.num_rows and self.checkpoint_dir is not None:
                own_violations.append(dv)
        self._spend(emitted + n_drift)
        # --- commit this partition NOW (task-local, atomic) ----------------
        if self.checkpoint_dir is not None:
            from fastpasta_ray.state.checkpoint import CheckpointStore

            # test hook (dunder-prefixed: NOT part of the public extra
            # surface): stagger commits by the part ordinal so a
            # kill-and-resume test has a DETERMINISTIC mid-run window
            # (concurrent partitions otherwise commit within milliseconds
            # of each other and a SIGKILL can land after all of them —
            # the r2 flake). No-op unless explicitly configured; lives
            # here because the config is the only channel that reaches
            # the worker-side task (driver monkeypatches don't).
            stagger = self.cfg.extra.get("__test_commit_stagger_s")
            if stagger:
                import re as _re
                import time as _time

                m = _re.search(r"(\d+)$", part)
                _time.sleep(float(stagger) * (int(m.group(1)) if m else 0))

            store = CheckpointStore(self.checkpoint_dir)
            pv = (
                pa.concat_tables(own_violations)
                if own_violations
                else S.VIOLATIONS_SCHEMA.empty_table()
            )
            store.commit_part(part, path, pv, stats, drift_metrics)
        if records is not None:
            records.append((part, stats, drift_metrics))


@ray.remote
def validate_task(validator: ValidateFiles, paths: list[str], part_idxs: list[int],
                  n_parts: int):
    """Pass 1 as a raw Ray task (``num_returns=2 + n_parts``, ``n_parts``
    = 0 when key checks are off): see ``ValidateFiles.validate_files``."""
    return validator.validate_files(paths, part_idxs, n_parts)
