"""True kill-and-resume: a separate driver process running the checkpointed
pipeline is SIGKILLed mid-run; the resumed run must skip the committed
partitions and produce output identical to an uninterrupted run
(FIXTURES.md test protocol #5 — the north-rule resumability requirement)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from fastpasta_ray.pipelines.check import run_check
from fastpasta_ray.synth import SynthSpec, write_fixture

DRIVER = """
import sys
sys.path.insert(0, {repo!r})
import ray
# join the already-running (pytest session) cluster: SIGKILLing this driver
# then orphans nothing and doesn't disturb other tests
ray.init(address="auto", logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from fastpasta_ray.pipelines.check import run_check
from fastpasta_ray.stages.validate import CheckConfig
d, out = sys.argv[1], sys.argv[2]
print("STARTED", flush=True)
# staggered commits (test hook): part k commits ~0.12*k s after its work
# finishes, so the parent's SIGKILL deterministically lands after the
# first commits but before the last — the r2 flake was all 12 partitions
# committing within one poll interval on a fast box
run_check(
    d,
    cfg=CheckConfig(extra={{"__test_commit_stagger_s": 0.12}}),
    out_dir=out,
    with_key_checks=False,
)
print("DONE", flush=True)
"""


@pytest.mark.slow
def test_sigkill_mid_run_then_resume(tmp_path):
    d = str(tmp_path / "fix")
    out = str(tmp_path / "ck")
    # enough partitions that a kill lands mid-run in a slow (2-cpu) child
    write_fixture(d, SynthSpec(n_rows=4000, n_parts=12, mean_n_tok=128),
                  defect="bad_len", defect_k=5)

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = str(tmp_path / "driver.py")
    with open(script, "w") as f:
        f.write(DRIVER.format(repo=repo))
    p = subprocess.Popen(
        [sys.executable, script, d, out],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    # wait until at least one partition committed, then SIGKILL the driver
    commits = os.path.join(out, "commits")
    deadline = time.time() + 120
    killed = False
    while time.time() < deadline:
        if p.poll() is not None:
            break  # finished before we could kill — still a valid (weaker) run
        if os.path.isdir(commits) and any(f.endswith(".json") for f in os.listdir(commits)):
            p.send_signal(signal.SIGKILL)
            killed = True
            break
        time.sleep(0.05)
    p.wait(timeout=60)
    n_committed = len([f for f in os.listdir(commits) if f.endswith(".json")]) if os.path.isdir(commits) else 0
    assert n_committed >= 1, "child never committed a partition"

    # resumed run (in this pytest session's Ray) — must skip committed parts
    resumed = run_check(d, out_dir=out, resume=True, with_key_checks=False)
    # ground truth: uninterrupted run without checkpointing
    clean = run_check(d, with_key_checks=False)
    assert resumed.report == clean.report
    assert resumed.violations.num_rows == clean.violations.num_rows
    assert resumed.violations.sort_by([("part", "ascending"), ("row_index", "ascending")]).equals(
        clean.violations.sort_by([("part", "ascending"), ("row_index", "ascending")])
    )
    # commit records are intact lineage (every part committed exactly once)
    recs = [json.load(open(os.path.join(commits, f)))  # records, not temp files
            for f in sorted(os.listdir(commits)) if f.endswith(".json")]
    assert len(recs) == 12
    assert all(r["status"] == "committed" and r["row_count"] == 4000 for r in recs)
    if killed:
        assert n_committed < 12, "kill landed after completion; timing too slow to observe mid-run state"
