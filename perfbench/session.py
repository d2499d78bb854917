"""One benchmark run inside its own Ray session (started by run.py).

Set-up — ``ray.init`` plus one untimed warm-up pass of the job — is
timed and reported as ``setup_s``. The timed loop then repeats whole job
passes until ``--seconds`` elapse. Each pass
has a timeout and its outputs are checked against the generator's truth;
an error, a timeout or a wrong output counts as a failed operation. The
result is written to ``--out`` after every pass, so run.py can still
report a run whose session hung.

With ``--trace 1`` the run times passes untraced for half the seconds and
traced for the other half, then measures the incremental-ingest layer
once on the same data (``measure_incremental``), and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

NUM_CPUS = 2          # logical Ray CPUs; one slot hangs the ingest joins
UNIT_TIMEOUT_S = 60
KEY_COLS = ["conv_id", "turn_idx"]
LAYERS = ["sources", "signatures", "exact", "lsh", "cluster", "checkpoint",
          "output", "incremental"]


class UnitFailed(Exception):
    pass


class UnitTimeout(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except Exception:  # reported as a failed unit
            box["error"] = traceback.format_exc()

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise UnitTimeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise UnitFailed(box["error"])
    return box["value"]


# ------------------------------------------------------------- memory --

class RssSampler:
    """Peak summed RSS of this process and all its descendants (the Ray
    head processes and workers), sampled from /proc."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak = 0
        self._on = False
        self._stop = threading.Event()
        self._th = threading.Thread(target=self._loop, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _tree_rss(self) -> int:
        children: dict[int, list[int]] = {}
        for d in os.listdir("/proc"):
            if not d.isdigit():
                continue
            try:
                with open(f"/proc/{d}/stat") as fh:
                    st = fh.read()
            except OSError:
                continue
            ppid = int(st[st.rindex(")") + 2:].split()[1])
            children.setdefault(ppid, []).append(int(d))
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, []))
            try:
                with open(f"/proc/{pid}/statm") as fh:
                    total += int(fh.read().split()[1]) * self._page
            except OSError:
                pass
        return total

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if self._on:
                self.peak = max(self.peak, self._tree_rss())

    def start(self) -> None:
        self._th.start()

    def measure(self, on: bool) -> None:
        self._on = on

    def close(self) -> None:
        self._stop.set()
        self._th.join(5)


def host_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of all CPUs since boot; a hypervisor
    counts as stolen the time it ran another guest on our CPUs."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:9]]
    return f[7], sum(f)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of all CPU time the host stole between two ``host_ticks``
    readings. Timings are reported net of it: on a shared VM, steal comes
    and goes over minutes and would otherwise dominate run-to-run spread."""
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def dir_mb(path: str) -> float:
    """Size of a file, or of all files under a directory, in MB."""
    if os.path.isfile(path):
        return os.path.getsize(path) / 1e6
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total / 1e6


def parquet_rows(path: str) -> int:
    """Row count of a Parquet file, or of a directory of them."""
    files = ([path] if os.path.isfile(path) else
             [os.path.join(path, f) for f in os.listdir(path)])
    return sum(pq.read_metadata(f).num_rows for f in files)


# ------------------------------------------------------------ sessions --

def start_ray(ray_tmp: str | None) -> None:
    import ray

    kw = {"_temp_dir": ray_tmp} if ray_tmp else {}
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, **kw)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


# ------------------------------------------------------- dedup workload --

class DedupJob:
    """The checkpointed path of jobs/submit_dedup.py: read the transcript
    Parquet, run the signatures → pairs → clusters stages through
    CheckpointedRun, write clusters/ and pairs/."""

    def __init__(self, input_dir: str, work: str, cfg,
                 truth_path: str | None = None) -> None:
        self.input = input_dir
        self.work = work
        self.cfg = cfg
        self.turns = parquet_rows(input_dir)
        self.rows: dict = {}
        self.pairs: dict = {}
        if truth_path:
            truth = gen.load_truth(truth_path)
            self.rows = {k: (rep, c) for k, rep, c in truth["rows"]}
            self.pairs = {(a, b): j for a, b, j in truth["pairs"]}
        self._texts = None

    def _dirs(self) -> tuple[str, str]:
        run_dir = os.path.join(self.work, "run")
        out = os.path.join(self.work, "out")
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        return run_dir, out

    def run(self) -> float:
        import ray.data
        from raydedup.pipelines.neardup import (
            cluster_assignments, near_dup_pairs, signatures_with_rep)
        from raydedup.state.checkpoint import CheckpointedRun

        cfg = self.cfg
        run_dir, out = self._dirs()
        t0 = time.perf_counter()
        ts = ray.data.read_parquet(self.input)
        run = CheckpointedRun(run_dir, cfg)
        sigs = run.stage("signatures", lambda: signatures_with_rep(ts, cfg))
        pairs = run.stage("pairs", lambda: near_dup_pairs(sigs, cfg))
        clusters = run.stage(
            "clusters", lambda: cluster_assignments(sigs, pairs, cfg))
        clusters.write_parquet(os.path.join(out, "clusters"),
                               mode="overwrite")
        pairs.write_parquet(os.path.join(out, "pairs"), mode="overwrite")
        return time.perf_counter() - t0

    def run_traced(self, tr: Tracer) -> tuple[float, dict]:
        """The same stages with a span around each layer call and a
        ``.materialize()`` at each layer boundary."""
        import numpy as np
        import ray.data
        from raydedup.pipelines.neardup import (
            cluster_assignments, near_dup_pairs, transcript_key_cols)
        from raydedup.stages.exact import add_row_key, exact_dedup
        from raydedup.stages.signatures import compute_signatures
        from raydedup.state.checkpoint import CheckpointedRun

        cfg = self.cfg
        run_dir, out = self._dirs()
        c: dict = {}
        t0 = time.perf_counter()
        with tr.span("job") as root:
            with tr.span("sources"):
                ts = ray.data.read_parquet(self.input).materialize()
            run = CheckpointedRun(run_dir, cfg)

            def sig_stage():
                keys = transcript_key_cols()
                keyed = add_row_key(ts.select_columns(keys + ["text"]), keys)
                with tr.span("signatures"):
                    sigs = compute_signatures(keyed, cfg).materialize()
                with tr.span("exact"):
                    assigned = exact_dedup(sigs).materialize()
                c["sig_blocks"] = [m.num_rows
                                   for b in sigs.iter_internal_ref_bundles()
                                   for m in b.metadata]
                return assigned

            def lsh_stage():
                with tr.span("lsh"):
                    return near_dup_pairs(sigs, cfg).materialize()

            def cluster_stage():
                with tr.span("cluster"):
                    return cluster_assignments(sigs, pairs, cfg).materialize()

            with tr.span("checkpoint"):
                sigs = run.stage("signatures", sig_stage)
            with tr.span("checkpoint"):
                pairs = run.stage("pairs", lsh_stage)
            with tr.span("checkpoint"):
                clusters = run.stage("clusters", cluster_stage)
            with tr.span("output"):
                clusters.write_parquet(os.path.join(out, "clusters"),
                                       mode="overwrite")
                pairs.write_parquet(os.path.join(out, "pairs"),
                                    mode="overwrite")
        wall = time.perf_counter() - t0
        c["root"] = root["id"]
        t = time.perf_counter()
        rerun = CheckpointedRun(run_dir, cfg)
        for st in ("signatures", "pairs", "clusters"):
            rerun.stage(st, lambda: None)  # complete → skip to its output
        c["resume_s"] = time.perf_counter() - t
        c["checkpoint_mb"] = dir_mb(run_dir)
        c["output_mb"] = dir_mb(out)
        c["input_mb"] = dir_mb(self.input)
        sig_tbl = pq.read_table(os.path.join(run_dir, "signatures", "data"),
                                columns=["row_key", "is_rep", "n_shingles",
                                         "band_hashes"])
        c["rows"] = sig_tbl.num_rows
        c["reps"] = int(np.asarray(sig_tbl["is_rep"]).sum())
        c["shingles_per_turn"] = float(np.asarray(
            sig_tbl["n_shingles"]).mean())
        c.update(self._bucket_stats(sig_tbl.filter(sig_tbl["is_rep"])))
        c["verified_pairs"] = pq.read_table(
            os.path.join(out, "pairs"), columns=["a_key"]).num_rows
        cl = pq.read_table(os.path.join(out, "clusters"),
                           columns=["cluster_id"])
        sizes = np.unique(cl["cluster_id"].to_numpy(zero_copy_only=False),
                          return_counts=True)[1]
        c["components"] = int((sizes >= 2).sum())
        c["max_component"] = int(sizes.max())
        c["distinct_ratio"] = self._batch_distinct_ratio()
        return wall, c

    def _bucket_stats(self, reps: pa.Table) -> dict:
        import numpy as np
        from raydedup.stages.lsh import light_explode

        le = light_explode(reps, self.cfg)
        n = np.unique(le["bucket"].to_numpy(), return_counts=True)[1]
        return {"candidate_mass": int((n * (n - 1) // 2).sum()),
                "max_bucket": int(n.max()) if n.size else 0,
                "hot_buckets": int((n > self.cfg.lsh_bucket_salt_above)
                                   .sum())}

    def _batch_distinct_ratio(self) -> float:
        """Distinct texts per signature batch over rows: the share of rows
        the signature kernel hashes (it runs once per distinct text of a
        batch of ``cfg.batch_size`` rows within one input file)."""
        distinct = rows = 0
        bs = self.cfg.batch_size
        for f in sorted(os.listdir(self.input)):
            texts = pq.read_table(os.path.join(self.input, f),
                                  columns=["text"])["text"].to_pylist()
            for i in range(0, len(texts), bs):
                distinct += len(set(texts[i:i + bs]))
            rows += len(texts)
        return distinct / rows

    def check(self) -> dict:
        """Compare the published outputs with the truth."""
        from raydedup.config import DEFAULT_CONFIG
        from testing.oracle import shingle_hash_set

        out = os.path.join(self.work, "out")
        pt = pq.read_table(os.path.join(out, "pairs"),
                           columns=["a_key", "b_key"])
        got = set(zip(pt["a_key"].to_pylist(), pt["b_key"].to_pylist()))
        correct = len(got & self.pairs.keys())
        for a, b in got - self.pairs.keys():
            # outside the family truth: recompute the exact Jaccard
            if self._texts is None:
                self._texts = self._load_texts()
            sa = shingle_hash_set(self._texts[a], DEFAULT_CONFIG)
            sb = shingle_hash_set(self._texts[b], DEFAULT_CONFIG)
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            if union and inter / union >= gen.THRESHOLD:
                correct += 1
        ct = pq.read_table(os.path.join(out, "clusters"),
                           columns=["row_key", "rep_key", "cluster_id",
                                    "is_duplicate"])
        out_rows = {k: (rep, cid, dup) for k, rep, cid, dup in zip(
            *(ct[n].to_pylist() for n in ct.column_names))}
        cmatch = lmatch = 0
        for k, (rep, cluster) in self.rows.items():
            o = out_rows.get(k)
            if o is not None:
                cmatch += o[1] == cluster
                lmatch += (o[0], o[2]) == (rep, k != cluster)
        # rows the truth does not hold, or holds once, count as wrong
        n = len(self.rows) + ct.num_rows - len(
            out_rows.keys() & self.rows.keys())
        return {"pair_recall": (len(got & self.pairs.keys())
                                / len(self.pairs) if self.pairs else 1.0),
                "pair_precision": correct / len(got) if got else 1.0,
                "cluster_match": cmatch / n,
                "label_match": lmatch / n}

    def _load_texts(self) -> dict[str, str]:
        t = pq.read_table(self.input, columns=["conv_id", "turn_idx",
                                               "text"])
        return {f"{c}:{i}": x for c, i, x in zip(
            t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(),
            t["text"].to_pylist())}


# ------------------------------------------- incremental side measurement --

def measure_incremental(job: DedupJob, tr: Tracer, shard_rows: int = 300
                        ) -> dict:
    """The ingest path of jobs/ingest_shards.py on the workload's own
    data, for the traced run: index every input file but the last, then
    probe a ``shard_rows``-row shard cut from the last file, publish its
    labels atomically through CheckpointedRun, extend the index with its
    'new' rows and compact. → counters and the shard's root span id."""
    import ray.data
    from raydedup.stages.incremental import (
        build_dedup_index, compact_dedup_index, dedup_against_index,
        extend_dedup_index)
    from raydedup.state.checkpoint import CheckpointedRun

    cfg = job.cfg
    work = os.path.join(job.work, "side")
    index = os.path.join(work, "index")
    labels_dir = os.path.join(work, "labels")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    files = sorted(os.listdir(job.input))
    shard_path = os.path.join(work, "shard.parquet")
    pq.write_table(pq.read_table(os.path.join(job.input, files[-1]))
                   .slice(0, shard_rows), shard_path)
    build_dedup_index(
        ray.data.read_parquet([os.path.join(job.input, f)
                               for f in files[:-1]]),
        index, cfg, key_cols=KEY_COLS)
    with open(os.path.join(index, "meta.json")) as fh:
        c = {"generations": len(json.load(fh)["generations"]),
             "index_mb": dir_mb(index)}
    with tr.span("unit") as root:
        with tr.span("sources"):
            shard = ray.data.read_parquet(
                shard_path, columns=KEY_COLS + ["text"]).materialize()

        def probe():
            with tr.span("incremental.probe"):
                return dedup_against_index(shard, index, cfg,
                                           key_cols=KEY_COLS).materialize()

        with tr.span("checkpoint"):
            labels = CheckpointedRun(labels_dir, cfg).stage("shard", probe)
        with tr.span("incremental.extend"):
            extend_dedup_index(shard, index, labels, cfg, key_cols=KEY_COLS,
                               shard_id="shard")
        with tr.span("incremental.compact"):
            compact_dedup_index(index, cfg)
    st = pq.read_table(os.path.join(labels_dir, "shard", "data"),
                       columns=["status"])["status"].to_pylist()
    for lab in ("exact", "near", "new"):
        c["labels_" + lab] = st.count(lab)
    c["root"] = root["id"]
    return c


# -------------------------------------------------------------- metrics --

def passes_gate(q: dict) -> bool:
    return (q["pair_recall"] >= 0.99 and q["pair_precision"] == 1.0
            and q["cluster_match"] == 1.0 and q["label_match"] == 1.0)


def end_to_end(turns: int, walls: list[float], checks: list[dict],
               setup_s: float, peak_rss: int) -> dict:
    """Medians over the timed passes; the correctness metrics report the
    worst pass."""
    m = {"turns_per_s": (turns / statistics.median(walls), "turns/s")}
    for k in ("pair_recall", "pair_precision", "cluster_match",
              "label_match"):
        m[k] = (min(c[k] for c in checks), "ratio")
    m["setup_s"] = (setup_s, "s")
    m["peak_rss_mb"] = (peak_rss / 1e6, "MB")
    return m


def layer_metrics(tr: Tracer, traced: list[tuple[float, dict]],
                  inc: dict, untraced_walls: list[float]) -> dict:
    """Per-layer metrics: medians over the traced passes, and the
    incremental layer from its side measurement."""
    med = statistics.median
    roots = [c["root"] for _, c in traced]

    def tot(name: str, rs=roots) -> float:
        return med(tr.total(name, {r}) for r in rs)

    def self_of(layer: str, rs=roots) -> float:
        return med(sum(v for k, v in tr.self_times({r}).items()
                       if k.split(".")[0] == layer) for r in rs)

    def cm(k: str):
        return med(c[k] for _, c in traced)

    sig_s = tot("signatures")
    mass = cm("candidate_mass")
    m = {
        "sources.read_s": (tot("sources"), "s"),
        "sources.input_mb": (cm("input_mb"), "MB"),
        "signatures.busy_s": (sig_s, "s"),
        "signatures.turns_per_s": (cm("rows") / sig_s, "turns/s"),
        "signatures.distinct_ratio": (cm("distinct_ratio"), "ratio"),
        "signatures.shingles_per_turn": (cm("shingles_per_turn"), "count"),
        "signatures.block_skew": (med(max(c["sig_blocks"])
                                      / statistics.mean(c["sig_blocks"])
                                      for _, c in traced), "ratio"),
        "exact.busy_s": (tot("exact"), "s"),
        "exact.rep_ratio": (med(c["reps"] / c["rows"] for _, c in traced),
                            "ratio"),
        "lsh.busy_s": (tot("lsh"), "s"),
        "lsh.candidate_mass": (mass, "count"),
        "lsh.verified_pairs": (cm("verified_pairs"), "count"),
        "lsh.verify_yield": (cm("verified_pairs") / mass if mass else 0.0,
                             "ratio"),
        "lsh.max_bucket": (cm("max_bucket"), "count"),
        "lsh.hot_buckets": (cm("hot_buckets"), "count"),
        "cluster.busy_s": (tot("cluster"), "s"),
        "cluster.components": (cm("components"), "count"),
        "cluster.max_component": (cm("max_component"), "count"),
        "checkpoint.write_s": (self_of("checkpoint"), "s"),
        "checkpoint.mb_written": (cm("checkpoint_mb"), "MB"),
        "checkpoint.resume_s": (cm("resume_s"), "s"),
        "output.write_s": (tot("output"), "s"),
        "output.mb": (cm("output_mb"), "MB"),
    }
    side = [inc["root"]]
    for step in ("probe", "extend", "compact"):
        m[f"incremental.{step}_s"] = (tot(f"incremental.{step}", side), "s")
    m["incremental.generations_probed"] = (inc["generations"], "count")
    m["incremental.index_mb_read"] = (inc["index_mb"], "MB")
    for lab in ("exact", "near", "new"):
        m[f"incremental.labels_{lab}"] = (inc["labels_" + lab], "count")
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (self_of(layer, side if layer == "incremental"
                                        else roots), "s")
    m["trace.overhead_s"] = (med(w for w, _ in traced) - med(untraced_walls),
                             "s")
    return m


# ----------------------------------------------------------------- main --

class Run:
    """Operation accounting and the result file of one run."""

    def __init__(self, out: str, info: dict) -> None:
        self.out = out
        self.info = info
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.metrics: dict = {}

    def unit(self, fn, check=None):
        """Run one operation and check its outputs, if ``check`` is given
        → (result, quality), or None when it failed. Raises UnitTimeout
        after a hang."""
        self.attempted += 1
        try:
            res = call_with_timeout(fn, UNIT_TIMEOUT_S)
            q = check() if check else {}
        except UnitFailed as e:
            self.fail(str(e))
            return None
        except UnitTimeout as e:
            self.fail(str(e))
            raise
        if check and not passes_gate(q):
            self.fail(f"outputs differ from the truth: {q}")
        return res, q

    def fail(self, why: str) -> None:
        self.failed += 1
        self.correct = False
        self.info.setdefault("errors", []).append(why[-2000:])

    def write(self) -> None:
        tmp = self.out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"correct": self.correct, "attempted": self.attempted,
                       "failed": self.failed, "info": self.info,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u)
                                   in self.metrics.items()}}, fh)
        os.replace(tmp, self.out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="session")
    ap.add_argument("--data", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--ray-tmp", default=None)
    a = ap.parse_args(argv)

    import ray
    from raydedup.config import DEFAULT_CONFIG

    os.makedirs(a.work, exist_ok=True)
    job = DedupJob(os.path.join(a.data, "input"), a.work, DEFAULT_CONFIG,
                   os.path.join(a.data, "truth.json"))
    run = Run(a.out, {"nproc": len(os.sched_getaffinity(0)),
                      "ray_version": ray.__version__, "turns": job.turns,
                      "input_mb": dir_mb(job.input)})
    sampler = RssSampler()
    sampler.start()
    try:
        return _measure(a, job, run, sampler)
    except UnitTimeout:
        # a hung session cannot be shut down cleanly: report and leave the
        # Ray processes to run.py, which kills the whole process group
        run.write()
        os._exit(3)
    finally:
        sampler.close()


def _measure(a, job: DedupJob, run: Run, sampler: RssSampler) -> int:
    import ray

    t, before = time.perf_counter(), host_ticks()
    start_ray(a.ray_tmp)
    # the warm-up pass fills worker imports, the per-process MinHasher
    # state and the page cache; a pass that fails here fails the run
    warm = run.unit(job.run)
    run.info["setup_wall_s"] = time.perf_counter() - t
    run.info["setup_steal_share"] = steal_share(before, host_ticks())
    setup_s = run.info["setup_wall_s"] * (1.0 - run.info["setup_steal_share"])
    if warm is None:
        run.write()
        ray.shutdown()
        return 0
    run.attempted = 0  # the warm-up is set-up, not a timed operation
    run.info["ray_cpus"] = ray.cluster_resources().get("CPU")
    tr = Tracer()

    def loop(seconds: float, fn) -> tuple[list, list]:
        results, checks = [], []
        end = time.perf_counter() + seconds
        while True:
            res = run.unit(fn, job.check)
            if res is not None:
                results.append(res[0])
                checks.append(res[1])
            run.write()
            if time.perf_counter() >= end:
                return results, checks

    if not a.trace:
        sampler.measure(True)
        raw, steal = [], []

        def timed_pass() -> float:
            before = host_ticks()
            wall = job.run()
            raw.append(wall)
            steal.append(steal_share(before, host_ticks()))
            return wall * (1.0 - steal[-1])

        walls, checks = loop(a.seconds, timed_pass)
        run.info["pass_steal_share"] = steal
        sampler.measure(False)
        run.info["pass_walls_s"] = raw
        if walls:
            run.metrics = end_to_end(job.turns, walls, checks, setup_s,
                                     sampler.peak)
    else:
        plain, _ = loop(a.seconds / 2, job.run)
        traced, _ = loop(a.seconds / 2, lambda: job.run_traced(tr))
        inc = run.unit(lambda: measure_incremental(job, tr))
        run.info["untraced_walls_s"] = plain
        run.info["traced_walls_s"] = [w for w, _ in traced]
        if plain and traced and inc:
            run.metrics = layer_metrics(tr, traced, inc[0], plain)
        if a.trace_out:
            tr.dump(a.trace_out)
    run.write()
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
