"""Dedup benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload flagship_dedup --seed 1 \
        --seconds 16 --trace 0

Run from the root of a checkout. The workload's inputs and truth are
generated once per seed under ``.perfbench/`` (outside any timing); the
run itself happens in a child process (perfbench/session.py) in its own
process group, so a hung Ray session is killed with everything it started
and reported as a failed operation. Prints one JSON line of run facts
(seed, CPU counts, Ray version, turns, input MB), then, as the last line,
the result: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. Exits with code 2, printing no result, when
the program's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170
# AF_UNIX path limit, less the socket path Ray appends to its temp dir
_RAY_TMP_MAX = 107 - len("/session_2026-01-01_00-00-00_000000_0000000"
                         "/sockets/plasma_store")


def _pgid_members(pgid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                st = fh.read()
        except OSError:
            continue
        if int(st[st.rindex(")") + 2:].split()[2]) == pgid:
            out.append(int(d))
    return out


def _kill_group(pgid: int, wait_s: float = 20.0) -> None:
    """SIGKILL every process left in the child's process group and wait
    until all have ended."""
    end = time.monotonic() + wait_s
    while True:
        members = _pgid_members(pgid)
        if not members or time.monotonic() > end:
            return
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(prog="perfbench")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    needed = ["BENCHMARK.json", "raydedup/__init__.py",
              "jobs/submit_dedup.py", "testing/oracle.py"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a checkout of the program, missing {missing}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {a.workload!r}", file=sys.stderr)
        return 2
    names = [m["name"] for m in
             spec["per_layer" if a.trace else "end_to_end"]]

    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    import gen

    cache = os.path.join(ROOT, ".perfbench")
    data = gen.materialize(a.workload, a.seed, os.path.join(cache, "data"))
    work = os.path.join(cache, f"work-{os.getpid()}")
    ray_tmp = os.path.join(cache, "r")
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(ray_tmp, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    trace_dir = os.path.join(cache, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--data", data, "--work", work,
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", out, "--trace-out",
           os.path.join(trace_dir, f"{a.workload}-s{a.seed}.json")]
    if len(ray_tmp) <= _RAY_TMP_MAX:
        cmd += ["--ray-tmp", ray_tmp]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    hung = False
    with open(os.path.join(cache, "session.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(10.0, RUN_LIMIT_S
                                  - (time.monotonic() - t_start)))
        except subprocess.TimeoutExpired:
            hung = True
        _kill_group(proc.pid)
        proc.wait()

    res = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
           "info": {}}
    if os.path.exists(out):
        with open(out) as fh:
            res = json.load(fh)
    if hung or (proc.returncode not in (0, 3)):
        # the unit in flight when the session hung or died
        res["attempted"] += 1
        res["failed"] += 1
        res["correct"] = False
    metrics = {}
    for n in names:
        m = res["metrics"].get(n)
        if m is None:
            res["correct"] = False
            m = {"value": 0.0, "unit": ""}
        metrics[n] = m
    info = dict(res["info"], workload=a.workload, seed=a.seed,
                session_exit=proc.returncode, hung=hung)
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(ray_tmp, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bool(res["correct"]) and res["failed"] == 0,
                      "attempted": max(1, int(res["attempted"])),
                      "failed": int(res["failed"]) or int(not res["correct"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
