"""Ray session lifecycle and run telemetry, all read from ``/proc``
outside the engine.

- ``RaySession``: a local Ray instance with a fixed CPU count, its temp
  directory inside the benchmark's work directory, and the repository root
  on the workers' ``PYTHONPATH``. Stale processes of an earlier run in the
  same work directory are killed before start; every descendant process
  is gone after ``stop()``.
- ``MemorySampler``: peak proportional set size (PSS) summed over this
  process and all its descendants (GCS, raylet, Ray workers).
- ``Watchdog``: a deadline per job; on expiry it calls a callback that
  reports the failure and ends the run.
- telemetry: a single-thread canary, the 1-minute load average, CPU steal
  from ``/proc/stat`` and what ``nproc`` reports.
"""

from __future__ import annotations

import os
import signal
import threading
import time

# Ray's unix socket paths, <temp dir>/session_<date>_<time>_<usec>_<pid>/
# sockets/plasma_store, must stay under 108 bytes: 64 bytes after the temp
# dir for a 7-digit pid. Beyond this temp-dir length Ray's default location
# is used instead (reported in the telemetry).
_MAX_TEMP_DIR = 43


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        stat = _read(f"/proc/{name}/stat")
        if stat is None:
            continue
        # the command name may contain spaces: fields resume after ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            out[int(name)] = int(fields[1])
    return out


def descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], list(children.get(root, []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def _pss_kb(pid: int) -> int:
    text = _read(f"/proc/{pid}/smaps_rollup")
    if text:
        for line in text.splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1])
    return 0


def _wait_gone(pids: list[int], timeout: float) -> list[int]:
    end = time.monotonic() + timeout
    left = list(pids)
    while left and time.monotonic() < end:
        for pid in list(left):
            try:  # reap direct children; others are gone once /proc says so
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
            stat = _read(f"/proc/{pid}/stat")
            if stat is None or stat[stat.rfind(")") + 2] == "Z":
                left.remove(pid)
        if left:
            time.sleep(0.05)
    return left


def kill_and_wait(pids: list[int], timeout: float = 10.0) -> list[int]:
    """SIGTERM, then SIGKILL what is left; return pids still alive."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        pids = _wait_gone(pids, timeout / 2)
        if not pids:
            break
    return pids


def _uses_dir(pid: int, marker: str) -> bool:
    """Whether ``pid`` is a Ray process of the session directory
    ``marker``: its stdout or stderr is a file there (Ray redirects every
    daemon and worker into its session logs), or it was started with a
    ``--flag=<marker>...`` argument."""
    for fd in (1, 2):
        try:
            if os.readlink(f"/proc/{pid}/fd/{fd}").startswith(marker + os.sep):
                return True
        except OSError:
            pass
    cmd = _read(f"/proc/{pid}/cmdline") or ""
    return any(a.startswith("--") and "=" + marker in a for a in cmd.split("\0"))


def stale_processes(marker: str) -> list[int]:
    """Ray processes of the temp dir ``marker`` (a directory only this
    benchmark's Ray sessions use) outside this process tree."""
    mine = set(descendants()) | {os.getpid()}
    return [int(n) for n in os.listdir("/proc")
            if n.isdigit() and int(n) not in mine and _uses_dir(int(n), marker)]


def foreign_ray_processes() -> int:
    """Count of Ray daemons on this host that are not ours."""
    mine = set(descendants()) | {os.getpid()}
    return sum(
        1 for name in os.listdir("/proc")
        if name.isdigit() and int(name) not in mine
        and (_read(f"/proc/{name}/comm") or "").strip() in ("raylet", "gcs_server")
    )


class MemorySampler:
    """Background thread: summed PSS of this process tree every
    ``interval`` s; ``take_peak()`` returns and resets the peak in MB."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self._peak_kb = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="pss-sampler", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def sample(self) -> None:
        kb = sum(_pss_kb(p) for p in [os.getpid(), *descendants()])
        with self._lock:
            self._peak_kb = max(self._peak_kb, kb)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def take_peak(self) -> float:
        self.sample()
        with self._lock:
            peak, self._peak_kb = self._peak_kb, 0
        return peak / 1024.0

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class Watchdog:
    """One armed deadline at a time; ``on_expiry(label)`` runs in the
    watchdog thread and is expected to end the process."""

    def __init__(self, on_expiry):
        self._on_expiry = on_expiry
        self._deadline: float | None = None
        self._label = ""
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="watchdog", daemon=True)
        self._thread.start()

    def arm(self, label: str, seconds: float) -> None:
        with self._lock:
            self._label, self._deadline = label, time.monotonic() + seconds

    def disarm(self) -> None:
        with self._lock:
            self._deadline = None

    def _loop(self) -> None:
        while not self._stop.wait(0.2):
            with self._lock:
                expired = self._deadline is not None and time.monotonic() > self._deadline
                label = self._label
            if expired:
                self._on_expiry(label)
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class RaySession:
    """A fresh local Ray instance with ``num_cpus`` CPUs."""

    def __init__(self, repo_root: str, work_dir: str, num_cpus: int):
        self.repo_root = repo_root
        self.num_cpus = num_cpus
        temp = os.path.join(work_dir, "ray")
        self.temp_dir = temp if len(temp) <= _MAX_TEMP_DIR else None
        self.stale_killed = 0

    def start(self) -> None:
        import ray

        if self.temp_dir is not None:
            stale = stale_processes(self.temp_dir)
            self.stale_killed += len(stale)
            kill_and_wait(stale)
        # workers inherit this process's environment: put the repository
        # root on their import path (without it, unpickling engine
        # callables inside Ray tasks fails with ModuleNotFoundError)
        paths = [self.repo_root] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=400 * 1024 * 1024,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            **kwargs,
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def cluster_cpus(self) -> float:
        import ray

        return float(ray.cluster_resources().get("CPU", 0))

    def stop(self) -> list[int]:
        """Shut Ray down; kill and wait for any process left behind.
        Returns the pids that could not be stopped (expected empty)."""
        import ray

        if ray.is_initialized():
            ray.shutdown()
        return self.kill_all()

    def kill_all(self, timeout: float = 10.0) -> list[int]:
        """Kill this process's descendants and any process naming this
        session's temp dir, listing again until none is left: a dying
        raylet can fork a worker after the first listing, and a worker
        whose raylet is gone is no longer a descendant."""
        end = time.monotonic() + timeout
        while True:
            pids = descendants()
            if self.temp_dir is not None:
                pids += stale_processes(self.temp_dir)
            if not pids or time.monotonic() > end:
                return pids
            kill_and_wait(pids, max(end - time.monotonic(), 1.0))


def canary_ms(reps: int = 5) -> float:
    """Best-of-``reps`` time of a fixed single-thread Python loop."""
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def loadavg_1m() -> float:
    text = _read("/proc/loadavg")
    return float(text.split()[0]) if text else -1.0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the aggregate ``cpu`` line of /proc/stat."""
    text = _read("/proc/stat") or ""
    for line in text.splitlines():
        if line.startswith("cpu "):
            vals = [int(x) for x in line.split()[1:]]
            # user nice system idle iowait irq softirq steal [guest...]
            steal = vals[7] if len(vals) > 7 else 0
            return steal, sum(vals[:8])
    return 0, 0


def process_age_s() -> float:
    """Seconds since this process started (from /proc, 10 ms resolution)."""
    stat = _read("/proc/self/stat")
    uptime = _read("/proc/uptime")
    if not stat or not uptime:
        return 0.0
    start_ticks = int(stat[stat.rfind(")") + 2:].split()[19])
    return max(0.0, float(uptime.split()[0]) - start_ticks / os.sysconf("SC_CLK_TCK"))


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS when set, else the CPUs this
    process may run on."""
    cpus = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(int(omp), cpus) if omp.isdigit() and int(omp) > 0 else cpus
