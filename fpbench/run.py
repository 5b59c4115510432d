#!/usr/bin/env python3
"""fastpasta_ray repository benchmark.

    python3 fpbench/run.py --workload <payload_scan|key_exchange|query_folds>
                           --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. One closed-loop client runs jobs back to back
against a local Ray instance with a fixed CPU count, checks every job's
output against answers computed without the engine, and prints one line
per metric followed by a final JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics: one Ray session in this
process (set-up, then the timed window), then two more cold set-ups, each
in a fresh process of this script (``--setup-probe``); ``setup_s`` is the
median of the three. ``--trace 1`` runs one session, alternating untraced
and traced jobs, then replays the inputs in this process with layer
wrappers installed, and reports the per-layer metrics (see ``tracing.py``).

Every job has a deadline: a hang is reported as a failed job with a
message, and the run still ends with a result line.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from fpbench import session  # noqa: E402

# process age (from /proc, 10 ms ticks) at perf_counter() == 0
_AGE0 = session.process_age_s() - time.perf_counter()

WORKLOADS = ("payload_scan", "key_exchange", "query_folds")
NUM_CPUS = 1             # fixed Ray CPU count (never above nproc)
SETUPS = 3               # cold set-ups per untraced run (this process + 2 probes)
JOB_DEADLINE_S = 45.0    # a job still running after this counts as failed
STEP_DEADLINE_S = 60.0   # Ray start / stop and the first (cold) job
WINDOW_BUDGET_S = 100.0  # no timed job starts later than this after start
PROBE_TIMEOUT_S = 40.0   # one set-up probe process, start to exit
RUN_LIMIT_S = 170.0      # no probe starts that could end later than this


def _age() -> float:
    """Seconds since this process started."""
    return _AGE0 + time.perf_counter()


def _percentile_tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it. With fewer
    than 11 samples no percentile qualifies and the maximum is reported."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], f"max (n={n} < 11, no percentile has 10 samples beyond it)"
    k = n - 11  # exactly 10 samples above s[k]
    return s[k], f"p{100.0 * (k + 1) / n:.0f} (n={n}, 10 samples beyond)"


class Run:
    """Counts, samples and the one-time result emission of a run."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.walls: list[float] = []
        self.setups: list[float] = []
        self.rss_peak = 0.0
        self.telemetry: dict = {}
        # printed as metric lines but not part of the result's metrics:
        # too few jobs per run for a gated tail (see predictions.json)
        self.reported: dict = {}
        self.rows_per_job = 0
        self._emit_lock = threading.Lock()
        self._emitted = False

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.messages.append(error)
            print(f"job failed: {error}", file=sys.stderr, flush=True)

    def end_to_end(self) -> dict:
        walls = self.walls or [JOB_DEADLINE_S]
        wall = statistics.median(walls)
        tail, tail_note = _percentile_tail(walls)
        self.reported["wall_s.tail"] = (tail, "s", tail_note + "; reported, not gated")
        setups = self.setups or [_age()]
        return {
            "setup_s": (statistics.median(setups), "s",
                        f"median of {len(self.setups)} cold set-ups: process start to the "
                        "end of the first job, input generation excluded"),
            "wall_s": (wall, "s", f"median of {len(self.walls)} jobs"),
            "rows_per_s": (self.rows_per_job / wall, "rows/s",
                           f"{self.rows_per_job} input rows per job / wall_s"),
            "rss_peak_mb": (self.rss_peak, "MB",
                            "peak summed PSS (this process + Ray processes)"),
        }

    def emit(self, metrics: dict) -> None:
        """Print the metric lines and the final JSON line, once."""
        with self._emit_lock:
            if self._emitted:
                return
            self._emitted = True
            a = self.args
            print(f"# fpbench workload={a.workload} seed={a.seed} seconds={a.seconds} "
                  f"trace={a.trace}")
            ratio = self.failed / max(self.attempted, 1)
            self.reported["fail_ratio"] = (
                ratio, "ratio", f"{self.failed} failed / {self.attempted} attempted jobs")
            for name, (value, unit, note) in {**metrics, **self.reported}.items():
                print(f"{name} = {value:.6g} {unit}  [{note}]")
            for msg in self.messages[:5]:
                print(f"failure: {msg}")
            print("telemetry " + json.dumps(self.telemetry, sort_keys=True))
            result = {
                "correct": self.failed == 0 and self.attempted > 0,
                "attempted": max(self.attempted, 1),
                "failed": self.failed if self.attempted else 1,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
            print(json.dumps(result), flush=True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-test")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="alter one expected answer; the run must report failures")
    # one cold set-up over the inputs an untraced run already wrote, in a
    # fresh process: prints {"setup_s", "error"} and exits
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Bench:
    """One benchmark run: the workload, the Ray session, the watchdog and
    the closed loop of checked jobs."""

    def __init__(self, args, run: Run):
        from fpbench import workloads

        self.args, self.run = args, run
        self.work = os.path.join(ROOT, ".fpb", args.workload)
        if not args.setup_probe:
            shutil.rmtree(self.work, ignore_errors=True)
            os.makedirs(self.work)
        self.sess = session.RaySession(ROOT, os.path.join(ROOT, ".fpb"), NUM_CPUS)
        self.wd = session.Watchdog(self._on_expiry)
        t = time.perf_counter()
        self.wl = workloads.make(args.workload, self.work, args.seed, args.size,
                                 generate=not args.setup_probe)
        # the benchmark's own input work, kept out of setup_s
        self.inputs_s = time.perf_counter() - t
        run.telemetry["inputs_s"] = self.inputs_s
        if args.corrupt_expected:
            self.wl.corrupt_expected()
        run.rows_per_job = self.wl.rows
        self.job_end = 0.0  # perf_counter() when the last job's run returned

    def _on_expiry(self, label: str) -> None:
        from fpbench.layers import zero_metrics

        msg = f"deadline missed: {label}"
        if self.args.setup_probe:
            print(json.dumps({"setup_s": None, "error": msg}), flush=True)
        else:
            self.run.record(msg)
            self.run.emit(zero_metrics("run ended by a missed deadline") if self.args.trace
                          else self.run.end_to_end())
        self.sess.kill_all()
        os._exit(0)

    def job(self, label: str, deadline: float = JOB_DEADLINE_S) -> float:
        """One checked job; returns its wall time."""
        self.wd.arm(label, deadline)
        t = time.perf_counter()
        try:
            out = self.wl.run()
            self.job_end = time.perf_counter()
            self.wd.disarm()
            error = self.wl.check(out)
        except Exception as exc:  # a failed job is counted, the run goes on
            self.job_end = time.perf_counter()
            self.wd.disarm()
            traceback.print_exc(file=sys.stderr)
            error = f"{label}: {type(exc).__name__}: {exc}"
        self.run.record(error)
        return self.job_end - t

    def set_up(self, spy=None) -> float:
        """Ray start plus the untimed first job; returns ``setup_s``: the
        process age at the end of that job, input generation excluded.
        ``spy`` (a Tracer) observes which exchange the first job ran."""
        from fpbench import tracing

        t = time.perf_counter()
        self.wd.arm("ray start", STEP_DEADLINE_S)
        self.sess.start()
        self.wd.disarm()
        self.run.telemetry["ray_start_s"] = time.perf_counter() - t
        patches = tracing.Patches()
        if spy is not None and self.args.workload != "query_folds":
            tracing.install_pass_wrappers(spy, patches)
        try:
            self.job("first job", STEP_DEADLINE_S)
        finally:
            patches.restore()
        setup = _AGE0 + self.job_end - self.inputs_s
        if spy is not None:
            c = spy.counts[spy.job]
            self.run.telemetry["exchange_mode"] = (
                "packed" if c.get("packed_reduce_tasks") else
                "slim" if c.get("reduce_tasks") else "none")
            spy.map_refs = []
        self.run.telemetry["ray_cpus"] = self.sess.cluster_cpus()
        return setup

    def tear_down(self) -> None:
        self.wd.arm("ray stop", STEP_DEADLINE_S)
        t = time.perf_counter()
        left = self.sess.stop()
        self.run.telemetry["ray_stop_s"] = time.perf_counter() - t
        self.wd.disarm()
        if left:
            self.run.record(f"processes still alive after Ray stop: {left}")

    def _window_open(self, end: float) -> bool:
        now = time.perf_counter()
        return now < end and now - _T0 < WINDOW_BUDGET_S

    def probe(self) -> None:
        """``--setup-probe``: one cold set-up, reported on stdout."""
        error = None
        try:
            setup = self.set_up()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            setup, error = None, f"{type(exc).__name__}: {exc}"
        self.tear_down()
        if self.run.messages:
            setup, error = None, "; ".join(self.run.messages)
        print(json.dumps({"setup_s": setup, "error": error}), flush=True)

    def probe_setups(self) -> None:
        """The other ``SETUPS - 1`` cold set-ups, one fresh process each,
        after this process's session is stopped. A probe's first job is a
        checked job like any other."""
        a = self.args
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", "0", "--trace", "0",
               "--size", a.size, "--setup-probe"]
        if a.corrupt_expected:
            cmd.append("--corrupt-expected")
        for i in range(1, SETUPS):
            if time.perf_counter() - _T0 + PROBE_TIMEOUT_S > RUN_LIMIT_S:
                self.run.telemetry["setup_probes_skipped"] = SETUPS - i
                return
            p = None
            try:
                p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                   timeout=PROBE_TIMEOUT_S)
                res = json.loads(p.stdout.strip().splitlines()[-1])
                if p.returncode != 0:
                    res["error"] = f"exit code {p.returncode}"
            except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                res = {"setup_s": None, "error": f"{type(exc).__name__}: {exc}"}
            left = self.sess.kill_all()
            if left:
                res["error"] = f"probe processes still alive: {left}"
            if res.get("error"):
                if p is not None:
                    sys.stderr.write(p.stderr[-2000:])
                self.run.record(f"set-up probe {i}: {res['error']}")
            else:
                self.run.record(None)
                self.run.setups.append(res["setup_s"])

    def untraced(self, sampler) -> dict:
        """Set-up, the timed window, then the probe set-ups."""
        from fpbench import tracing

        run = self.run
        sampler.take_peak()
        run.setups.append(self.set_up(tracing.Tracer()))
        run.telemetry["canary_ms_before"] = session.canary_ms()
        end = time.perf_counter() + self.args.seconds
        while self._window_open(end):
            run.walls.append(self.job(f"job {len(run.walls)}"))
        run.rss_peak = sampler.take_peak()
        sampler.stop()
        self.tear_down()
        self.probe_setups()
        run.telemetry["setup_samples_s"] = run.setups
        return run.end_to_end()

    def traced(self, sampler) -> dict:
        """One session with untraced and traced jobs alternating, then the
        in-process layer replays (Ray stopped)."""
        from fpbench import inputs, tracing
        from fpbench.layers import layer_metrics

        run, board = self.run, self.args.workload == "query_folds"
        self.set_up(tracing.Tracer())
        run.telemetry["canary_ms_before"] = session.canary_ms()
        tr = tracing.Tracer()
        plain, traced, traced_jobs, replay_jobs = [], [], [], []
        end = time.perf_counter() + self.args.seconds
        while self._window_open(end):
            n = len(plain) + len(traced)
            if len(plain) <= len(traced):
                plain.append(self.job(f"job {n}"))
                continue
            traced_jobs.append(tr.new_job())
            patches = tracing.Patches()
            if board:
                tracing.install_query_wrappers(tr, patches, list(inputs.BOARD))
            else:
                tracing.install_pass_wrappers(tr, patches)
            try:
                traced.append(self.job(f"traced job {n}"))
            finally:
                patches.restore()
            if tr.map_refs:
                rows, nbytes = tracing.exchange_size(tr)
                tr.count("exchange_rows", rows)
                tr.count("exchange_bytes", nbytes)
        run.rss_peak = sampler.take_peak()
        sampler.stop()
        self.tear_down()
        if not board:
            for _ in range(3):
                replay_jobs.append(tr.new_job())
                if self.wl.replay_out_dir:
                    shutil.rmtree(self.wl.replay_out_dir, ignore_errors=True)
                patches = tracing.Patches()
                tracing.install_layer_wrappers(tr, patches)
                try:
                    tracing.replay_check(tr, self.wl.files, self.wl.cfg, self.wl.replay_out_dir)
                finally:
                    patches.restore()
        run.walls = plain + traced
        return layer_metrics(tr, [] if board else traced_jobs, replay_jobs,
                             traced_jobs if board else [], plain, traced)

    def close(self) -> None:
        self.wd.stop()
        if not self.args.setup_probe:
            shutil.rmtree(self.work, ignore_errors=True)
            if self.sess.temp_dir:
                shutil.rmtree(self.sess.temp_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        t = time.perf_counter()
        import ray  # noqa: F401

        import fastpasta_ray.checks.key_checks  # noqa: F401
        import fastpasta_ray.pipelines.check  # noqa: F401
        import fastpasta_ray.pipelines.queries  # noqa: F401
        import_s = time.perf_counter() - t
    except ImportError as exc:
        print(f"fpbench: cannot import the engine or its dependencies: {exc}",
              file=sys.stderr)
        return 2

    run = Run(args)
    bench = Bench(args, run)
    if args.setup_probe:
        bench.probe()
        bench.close()
        return 0
    steal0, total0 = session.cpu_ticks()
    run.telemetry.update({
        "nproc": session.nproc(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": session.loadavg_1m(),
        "foreign_ray_processes": session.foreign_ray_processes(),
        "import_s": import_s,
        "size": args.size,
    })
    sampler = session.MemorySampler()
    sampler.start()
    try:
        metrics = bench.traced(sampler) if args.trace else bench.untraced(sampler)
    finally:
        sampler.stop()
    steal1, total1 = session.cpu_ticks()
    run.telemetry.update({
        "canary_ms_after": session.canary_ms(),
        "loadavg_1m_after": session.loadavg_1m(),
        "cpu_steal_share": (steal1 - steal0) / max(total1 - total0, 1),
        "stale_ray_processes_killed": bench.sess.stale_killed,
        "ray_temp_dir_in_checkout": bench.sess.temp_dir is not None,
        "run_s": time.perf_counter() - _T0,
    })
    bench.close()
    run.emit(metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
