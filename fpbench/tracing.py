"""Outside-in layer tracing: spans and counters recorded by wrapping the
engine's module attributes from the benchmark side. Nothing in
``fastpasta_ray`` changes; every wrapper is removed again on exit.

Names are patched where the engine looks them up at call time:

- ``pipelines.check``: ``collect_table`` (pass 1), ``key_checks`` (pass 2),
  ``_split_sentinel`` and ``make_report`` (finalize);
- ``checks.key_checks``: the ``.remote`` launches of the map and reduce
  tasks, ``_recover_violations``;
- ``stages.validate``: ``iter_file_batches``, ``hash_strings``,
  ``run_row_checks``; ``sketches.scan_token_values`` and
  ``checks.grammar.run_grammar_checks`` (imported inside the function at
  call time); ``RunningState.check_batch`` and
  ``CheckpointStore.commit_part`` on their classes;
- ``pipelines.queries``: each board entry of ``QUERIES`` and ``_to_table``.

Modules are never reloaded (that would break class identity).

Pass-1 and map-side work runs inside Ray tasks, out of reach of
wrappers in this process, so the layer numbers come from a replay of the
same files in-process (``ValidateFiles(cfg).validate_file`` and
``key_checks._iter_tagged_seq``) with the wrappers installed.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """In-memory spans ``(name, start, end, parent, job)`` and per-job
    counters. ``job`` groups the spans of one job."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = 0
        self._stack: list[int] = []
        self.map_refs: list = []   # map-task outputs of the current job

    def new_job(self) -> int:
        self.job += 1
        self.map_refs = []
        return self.job

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        # reserve the slot now so children can name this span as parent
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.job))
        self._stack.append(idx)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.job][name] += n

    # -- per-job views ------------------------------------------------------
    def total(self, job: int, name: str) -> float:
        return sum(e - s for n, s, e, _, j in self.spans if j == job and n == name)

    def self_time(self, job: int, name: str) -> float:
        """Duration of the ``name`` spans minus that of their direct
        children (spans are recorded on one thread, so children never
        overlap each other)."""
        out = 0.0
        for i, (n, s, e, _, j) in enumerate(self.spans):
            if j == job and n == name:
                out += (e - s) - sum(ce - cs for _, cs, ce, p, _ in self.spans if p == i)
        return out


class Patches:
    """Install attribute (or dict entry) wrappers; ``restore()`` puts the
    originals back, last in first out."""

    def __init__(self):
        self._undo: list = []

    def set(self, obj, attr: str, value) -> None:
        orig = getattr(obj, attr)
        self._undo.append(lambda: setattr(obj, attr, orig))
        setattr(obj, attr, value)

    def set_item(self, d: dict, key, value) -> None:
        orig = d[key]
        self._undo.append(lambda: d.__setitem__(key, orig))
        d[key] = value

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _timed(tr: Tracer, name: str, fn, rows_out: str | None = None):
    """Span around ``fn``; also usable as a method (``self`` is passed on)."""

    def wrapper(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
        if rows_out is not None:
            tr.count(rows_out, out.num_rows)
        return out

    return wrapper


class _LaunchSpy:
    """Stands in for a Ray remote function: counts ``.remote`` launches
    (through ``.options(...)`` too) and keeps map-output refs so the
    exchanged rows and bytes can be read after the job."""

    def __init__(self, tr: Tracer, fn, counter: str, keep_refs: bool):
        self._tr, self._fn, self._counter, self._keep = tr, fn, counter, keep_refs

    def options(self, **kwargs):
        return _LaunchSpy(self._tr, self._fn.options(**kwargs), self._counter, self._keep)

    def remote(self, *args, **kwargs):
        out = self._fn.remote(*args, **kwargs)
        self._tr.count(self._counter)
        if self._keep:
            self._tr.map_refs.extend(out if isinstance(out, list) else [out])
        return out


def install_pass_wrappers(tr: Tracer, p: Patches) -> None:
    """Pass-level spans and exchange counters for a normal ``run_check``."""
    from fastpasta_ray.checks import key_checks as kc
    from fastpasta_ray.pipelines import check

    p.set(check, "collect_table", _timed(tr, "check.pass1", check.collect_table))
    p.set(check, "key_checks", _timed(tr, "check.pass2", check.key_checks))
    p.set(check, "_split_sentinel", _timed(tr, "check.finalize", check._split_sentinel))
    p.set(check, "make_report", _timed(tr, "check.finalize", check.make_report))
    for attr, counter, keep in (
        ("_map_seq_shard", "map_tasks", True),
        ("_map_manifest_shard", "map_tasks", True),
        ("_reduce_bucket", "reduce_tasks", False),
        ("_reduce_buckets_packed", "packed_reduce_tasks", False),
    ):
        p.set(kc, attr, _LaunchSpy(tr, getattr(kc, attr), counter, keep))

    orig_recover = kc._recover_violations

    def recover(cands, *args, **kwargs):
        tr.count("candidates", cands.num_rows)
        with tr.span("key_checks.recover"):
            out = orig_recover(cands, *args, **kwargs)
        tr.count("recovered", out.num_rows)
        return out

    p.set(kc, "_recover_violations", recover)


def exchange_size(tr: Tracer) -> tuple[int, int]:
    """Rows and bytes of the current job's map outputs (packed: one
    ``(bounds, table)`` per map task; slim: one table per bucket)."""
    import ray

    rows = nbytes = 0
    for value in ray.get(tr.map_refs):
        table = value[1] if isinstance(value, tuple) else value
        rows += table.num_rows
        nbytes += table.nbytes
    tr.map_refs = []
    return rows, nbytes


def install_layer_wrappers(tr: Tracer, p: Patches) -> None:
    """Per-layer spans for the in-process pass-1 replay."""
    from fastpasta_ray import sketches
    from fastpasta_ray.checks import grammar, running_checks
    from fastpasta_ray.stages import validate
    from fastpasta_ray.state import checkpoint

    orig_iter = validate.iter_file_batches

    def iter_file_batches(*args, **kwargs):
        it = orig_iter(*args, **kwargs)
        while True:
            with tr.span("parquet.decode"):
                batch = next(it, None)
            if batch is None:
                return
            tr.count("parquet.rows", batch.num_rows)
            tr.count("parquet.batches")
            tr.count("parquet.bytes", batch.nbytes)
            yield batch

    p.set(validate, "iter_file_batches", iter_file_batches)
    p.set(validate, "hash_strings", _timed(tr, "sketches.hash", validate.hash_strings))
    p.set(sketches, "scan_token_values",
          _timed(tr, "sketches.token_scan", sketches.scan_token_values))
    p.set(validate, "run_row_checks",
          _timed(tr, "checks.row_checks", validate.run_row_checks, "violations"))
    p.set(grammar, "run_grammar_checks",
          _timed(tr, "checks.grammar", grammar.run_grammar_checks, "violations"))
    RS = running_checks.RunningState
    p.set(RS, "check_batch",
          _timed(tr, "checks.running_checks", RS.check_batch, "violations"))

    CS = checkpoint.CheckpointStore
    orig_commit = CS.commit_part

    def commit_part(self, part, *args, **kwargs):
        with tr.span("checkpoint.commit"):
            orig_commit(self, part, *args, **kwargs)
        tr.count("checkpoint.commits")
        tr.count("checkpoint.bytes_written",
                 os.path.getsize(os.path.join(self.violations_dir, f"{part}.parquet"))
                 + os.path.getsize(os.path.join(self.commits_dir, f"{part}.json")))

    p.set(CS, "commit_part", commit_part)


def replay_check(tr: Tracer, files: list[str], cfg, checkpoint_dir: str | None) -> None:
    """Pass 1 and the sequence side of the pass-2 map read, in-process,
    with the layer wrappers installed (one tracer job)."""
    from fastpasta_ray.checks import key_checks as kc
    from fastpasta_ray.stages.validate import ValidateFiles

    v = ValidateFiles(cfg, checkpoint_dir=checkpoint_dir)
    with tr.span("validate.replay"):
        for path in files:
            for _ in v.validate_file(path):
                pass
    with tr.span("key_checks.map_read"):
        for i, path in enumerate(files):
            for _ in kc._iter_tagged_seq(path, i, cfg.batch_rows, cfg.filter_sources):
                pass


def install_query_wrappers(tr: Tracer, p: Patches, board: list[str]) -> None:
    """A span per board query call and per ``_to_table`` collect."""
    from fastpasta_ray.pipelines import queries

    for q in board:
        p.set_item(queries.QUERIES, q, _timed(tr, f"queries.{q}", queries.QUERIES[q]))
    orig = queries._to_table

    def to_table(ds):
        tr.count("queries.collect_calls")
        with tr.span("queries.collect"):
            return orig(ds)

    p.set(queries, "_to_table", to_table)

