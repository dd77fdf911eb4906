#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of choco-q.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--runs R] [--seed N] [--seconds S] [--save FILE]
    python3 perfbench/run.py --compare BASELINE.jsonl CANDIDATE.jsonl

The first form measures one workload and prints, as its last stdout line,
one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, measured through the
entry points users call (`choco-cli run <spec>`, `choco-cli serve`). With
`--trace 1` they are the per-layer ones: the program runs untraced once
more for reference, and `perfbench-tracer` replays the same work by timing
calls into each layer's public functions. `--all` runs every workload,
prints every end-to-end metric with its unit and exits non-zero when a
correctness gate fails. `--compare` sets two saved result files side by
side. README.md next to this file maps metrics to layers and workloads.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from statistics import median

ROOT = os.getcwd()
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(BUILD, "perfbench-work")
CLI = os.path.join(BUILD, "release", "choco-cli")
TRACER = os.path.join(BUILD, "release", "perfbench-tracer")
TRACER_MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer", "Cargo.toml")

# Pinned execution settings; part of every result's fingerprint.
SIM_THREADS = 1
BATCH_WORKERS = 1
SERVE_WORKERS = 2
SERVE_IN_FLIGHT = 2

# Batch workloads: a checked-in spec, run unchanged. Their inputs do not
# depend on --seed: the spec fixes every instance and cell seed, so the
# success rates are the same on every run.
BATCH = {
    "paper-table1": ("experiments/table1.toml", False),
    "native-ineq": ("experiments/native_inequality.toml", False),
    "noisy-elim": ("experiments/fig13_elimination.toml", True),
}
WORKLOADS = list(BATCH) + ["serve-mixed"]

# serve-mixed: each job solves B1n, M1, A1 and F1 with Choco-Q on the
# compact engine (the plan cache does nothing on the default engine), on
# one instance seed from a fixed pool of SERVE_POOL seeds. --seed draws the
# order in which jobs pick from the pool: a fresh daemon compiles a pooled
# seed's circuit shapes the first time a job uses it, and later jobs on
# that seed reuse them. The pool itself is fixed because instance cost and
# daemon memory vary with the instance: a pool drawn from --seed made the
# run-to-run spread of wall time and memory several times wider.
SERVE_PROBLEMS = ["B1n", "M1", "A1", "F1"]
SERVE_POOL = 16
SERVE_JOBS_PER_SESSION = 200
SERVE_JOB = {"problems": SERVE_PROBLEMS, "solvers": ["choco-q"], "engine": "compact", "shots": 2000,
             "max_iters": 15, "restarts": 1}

DESIGNS = ["choco-q", "penalty", "cyclic", "hea"]

# Set-up figures per batch run (see setup_sample).
SETUP_SAMPLES = 6

# Metric names and units, in BENCHMARK.json's order.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("choco_success_rate", "ratio"),
    ("choco_in_constraints_min", "ratio"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
]
PER_LAYER = (
    [("runner.spec_load_s", "s"), ("runner.report_render_s", "s"), ("runner.self_s", "s"),
     ("problems.build_s", "s"), ("model.optimum_s", "s"),
     ("core.driver_build_s", "s"), ("core.driver_terms", "count"), ("core.encoded_qubits", "count"),
     ("core.elimination_s", "s"), ("core.branches", "count")]
    + [(f"solve.{d}.{m}", u) for d in DESIGNS for m, u in [
        ("s", "s"), ("compile_s", "s"), ("execute_s", "s"), ("classical_s", "s"),
        ("iterations", "count"), ("execute_per_iter_s", "s")]]
    + [("qsim.replay_dense_s", "s"), ("qsim.replay_sparse_s", "s"), ("qsim.replay_compact_s", "s"),
       ("qsim.plan_compile_s", "s"), ("qsim.plan_compilations", "count"), ("qsim.plan_hits", "count"),
       ("qsim.plan_hit_ratio", "ratio"), ("qsim.transpile_s", "s"), ("qsim.sample_s", "s"),
       ("qsim.noisy_sample_s", "s"), ("qsim.reallocations", "count"),
       ("serve.ready_s", "s"), ("serve.accept_s", "s"), ("serve.queue_wait_s", "s"),
       ("serve.finish_s", "s"), ("serve.plan_compilations", "count"), ("serve.plan_hits", "count"),
       ("serve.plan_hit_ratio", "ratio"), ("serve.worker_restarts", "count"),
       ("serve.rejected", "count"), ("trace.overhead_s", "s")]
)
# The replay's spans that partition its wall time; the rest is runner self time.
TOP_SPANS = (["runner.spec_load_s", "runner.report_render_s", "problems.build_s", "model.optimum_s",
              "core.driver_build_s", "core.elimination_s"] + [f"solve.{d}.s" for d in DESIGNS])


class GateError(Exception):
    """A correctness gate failed: the measured program produced wrong output."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


# ----------------------------------------------------------------- build

def build():
    """Builds choco-cli and the tracer from the checkout's sources."""
    for needed in ["Cargo.toml", "crates", "experiments", "src"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"perfbench: {needed} not found; run from the repository root")
    env = dict(os.environ, CARGO_TARGET_DIR=BUILD)
    for manifest, extra in [(os.path.join(ROOT, "Cargo.toml"), ["--bin", "choco-cli"]), (TRACER_MANIFEST, [])]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def wait_child(proc):
    """Waits for `proc` and returns its peak resident memory in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


# ----------------------------------------------------------------- batch

def cli_run(spec, quick, out):
    """One `choco-cli run`: wall time, peak RSS and the report bytes."""
    cmd = [CLI, "run", spec, "--workers", str(BATCH_WORKERS), "--sim-threads", str(SIM_THREADS),
           "--out", out, "--no-table"] + (["--quick"] if quick else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    errors = proc.stderr.read()
    proc.stderr.close()
    rss = wait_child(proc)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {errors[-500:]}")
    with open(out, "rb") as f:
        report = f.read()
    return {"wall": wall, "rss": rss, "report": report}


def check_report(report, label):
    """Gate: every noiseless Choco-Q cell stays inside the constraints.
    Returns (cells, failed cells, Choco-Q success rates, in-constraints rates)."""
    cells = json.loads(report)["cells"]
    failed = sum(1 for c in cells if c["status"] != "ok")
    choco = [c for c in cells if c["solver"] == "choco-q" and c["status"] == "ok"]
    for c in choco:
        if not c["noisy"] and c["in_constraints_rate"] != 1.0:
            raise GateError(f"{label}: Choco-Q cell {c['index']} ({c['problem']}) has "
                            f"in_constraints_rate {c['in_constraints_rate']}")
    return (len(cells), failed, [c["success_rate"] for c in choco],
            [c["in_constraints_rate"] for c in choco])


def setup_sample(spec, quick):
    """One set-up figure: the work before the first solve, repeated for a
    quarter of a second by `perfbench-tracer setup` (100 timed repetitions
    per process), fastest repetition kept. Other tenants of the host slow this
    small, cache-resident work by up to 1.8x in phases that last from a
    fraction of a second to several seconds; the fastest repetition is the
    work itself, the slower ones measure the phase. The first repetition
    of each process warms the allocator and page cache and is dropped."""
    samples = []
    deadline = time.perf_counter() + 0.25
    while len(samples) < 20 or time.perf_counter() < deadline:
        out = tracer(["setup", spec, "--repeat", "101"] + (["--quick"] if quick else []))
        samples += out["setup_s"][1:]
    return min(samples)


def tracer(args):
    proc = subprocess.run([TRACER] + args, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench-tracer {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout)


def measure_batch(name, seconds, trace):
    spec, quick = BATCH[name]
    work = os.path.join(WORK, name)
    os.makedirs(work, exist_ok=True)
    runs, setup = [], []
    start = last_setup = time.perf_counter()
    # Repeat until the next run would overrun the budget; at least two
    # runs, so the reports can be checked byte for byte. A traced run
    # needs only one untraced run for reference. Set-up is sampled before
    # the first run, after the last, and between runs about SETUP_SAMPLES
    # times in all, so that its samples span the whole run and their median
    # does not rest on one phase of the host's speed, while most of the
    # budget goes to the runs.
    if not trace:
        setup.append(setup_sample(spec, quick))
    while True:
        runs.append(cli_run(spec, quick, os.path.join(work, f"report-{len(runs)}.json")))
        now = time.perf_counter()
        if trace or (len(runs) >= 2 and now - start + runs[-1]["wall"] > seconds):
            break
        if now - last_setup > seconds / SETUP_SAMPLES:
            setup.append(setup_sample(spec, quick))
            last_setup = time.perf_counter()
    if not trace:
        setup.append(setup_sample(spec, quick))
    for i, run in enumerate(runs[1:], 1):
        if run["report"] != runs[0]["report"]:
            raise GateError(f"{name}: report of run {i} differs from run 0")
    # The reports are identical, so the last run's rates stand for every run.
    attempted = failed = 0
    for i, run in enumerate(runs):
        cells, bad, success, in_constraints = check_report(run["report"], f"{name} run {i}")
        attempted += cells
        failed += bad
    walls = [r["wall"] for r in runs]
    info = {"runs": len(runs), "setup_samples": len(setup), "failed_frac": failed / attempted,
            "walls": [round(w, 4) for w in walls]}
    if trace:
        report_path = os.path.join(work, "report-0.json")
        out = tracer(["trace"] + (["--quick"] if quick else []) + ["--spec", spec, "--report", report_path])
        layers = layer_metrics(out)
        layers["trace.overhead_s"] = out["specs"][0]["wall_s"] - walls[0]
        return layers, attempted, failed, info
    # A batch job is one `choco-cli run` of the spec. wall_s is the mean
    # over the runs: it averages the host's speed over the whole budget,
    # where the median rests on the few runs in the middle.
    e2e = {
        "wall_s": statistics.fmean(walls),
        "setup_s": median(setup),
        "peak_rss_mb": median([r["rss"] for r in runs]),
        "ok_frac": 1.0 - failed / attempted,
        "choco_success_rate": statistics.fmean(success) if success else 0.0,
        "choco_in_constraints_min": min(in_constraints) if in_constraints else 0.0,
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": median(walls),
        "job_p90_s": p90(walls),
    }
    return e2e, attempted, failed, info


def layer_metrics(out):
    """Per-layer metrics from a tracer replay, after its gates: the replay
    must reproduce every cell's rates, and its top-level spans must fit in
    its wall time. The tracer also parses the untraced report and renders
    it again to time `RunReport::to_json`; that round trip must give back
    the same bytes, so the render time is that of the very report."""
    spans, counts = {}, {}
    wall = 0.0
    for spec in out["specs"]:
        if not spec["rates_match"]:
            raise GateError(f"traced replay of {spec['spec']} differs: {spec['mismatches'][:3]}")
        if not spec["render_identical"]:
            raise GateError(f"the tracer's parse/render round trip of {spec['spec']}'s report changed it")
        top = sum(spec["spans"].get(k, 0.0) for k in TOP_SPANS)
        if top > spec["wall_s"]:
            raise GateError(f"{spec['spec']}: layer spans {top} s exceed the traced wall {spec['wall_s']} s")
        wall += spec["wall_s"]
        for key, value in spec["spans"].items():
            spans[key] = spans.get(key, 0.0) + value
        for key, value in spec["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
    spans.update(out["probe_spans"])
    counts.update(out["workspace_counts"])
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for key, value in list(spans.items()) + list(counts.items()):
        if key in metrics:
            metrics[key] = value
    metrics["runner.self_s"] = wall - sum(spans.get(k, 0.0) for k in TOP_SPANS)
    for d in DESIGNS:
        iterations = counts.get(f"solve.{d}.iterations", 0.0)
        if iterations:
            metrics[f"solve.{d}.execute_per_iter_s"] = spans.get(f"solve.{d}.execute_s", 0.0) / iterations
    lookups = counts.get("qsim.plan_hits", 0.0) + counts.get("qsim.plan_compilations", 0.0)
    if lookups:
        metrics["qsim.plan_hit_ratio"] = counts.get("qsim.plan_hits", 0.0) / lookups
    return metrics


# ----------------------------------------------------------------- serve

def serve_jobs(seed):
    """The job stream of one run: (name, job) pairs, pool seeds in an
    order drawn from `seed`."""
    rng = random.Random(seed)
    while True:
        instance_seed = rng.randrange(1, SERVE_POOL + 1)
        name = f"mix-{instance_seed}"
        yield name, dict(SERVE_JOB, name=name, seeds=[instance_seed])


class Session:
    """One `choco-cli serve` daemon over stdin/stdout, driven as a closed
    loop with SERVE_IN_FLIGHT jobs outstanding."""

    def __init__(self, state_dir):
        shutil.rmtree(state_dir, ignore_errors=True)
        self.state_dir = state_dir
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--workers", str(SERVE_WORKERS), "--sim-threads", str(SIM_THREADS),
             "--state-dir", state_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, bufsize=1)
        try:
            self.next_event("ready")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.start

    def send(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("choco-cli serve closed its output")
        return time.perf_counter(), json.loads(line)

    def next_event(self, kind):
        while True:
            now, event = self.read()
            if event["event"] == kind:
                return now, event

    def run(self, jobs, count, tag):
        """Submits `count` jobs; returns per-job timings and outcomes.

        The daemon answers each submit line, in order, with exactly one of
        `accepted`, `rejected` or an `error` without a job id (a request it
        could not parse). After `accepted`, the job ends with `done` or
        with an `error` naming it. The first ending counts; a job that
        ended in an error may still send events, which are ignored."""
        timings = {}
        unanswered = []  # submitted jobs the daemon has not answered yet, in order
        submitted = finished = 0
        loop_start = time.perf_counter()

        def submit():
            nonlocal submitted
            name, job = next(jobs)
            job_id = f"{tag}-{submitted}"
            submitted += 1
            timings[job_id] = {"name": name, "submit": time.perf_counter(), "records": [], "outcome": None}
            unanswered.append(job_id)
            self.send({"op": "submit", "id": job_id, "job": job})

        def end(job_id, now, outcome):
            nonlocal finished
            job = timings[job_id]
            if job["outcome"] is not None:
                return
            job["end"] = now
            job["outcome"] = outcome
            finished += 1
            if submitted < count:
                submit()

        def answered(job_id):
            if job_id in unanswered:
                unanswered.remove(job_id)

        for _ in range(min(SERVE_IN_FLIGHT, count)):
            submit()
        # A job's records can overtake its `accepted` event: wait for both.
        while finished < count or unanswered:
            now, event = self.read()
            kind = event["event"]
            job_id = event.get("job")
            if kind == "error" and job_id is None:
                if not unanswered:
                    raise RuntimeError(f"unexpected event {event}")
                log(f"perfbench: serve error: {event.get('reason')}")
                job_id = unanswered.pop(0)
                end(job_id, now, "error")
                continue
            if job_id not in timings:
                raise RuntimeError(f"unexpected event {event}")
            job = timings[job_id]
            if kind == "accepted":
                answered(job_id)
                job["accepted"] = now
            elif kind == "record":
                job["records"].append((now, event["record"]))
            elif kind == "rejected":
                answered(job_id)
                log(f"perfbench: serve rejected {job_id}: {event.get('reason')}")
                end(job_id, now, "rejected")
            elif kind == "error":
                log(f"perfbench: serve error on {job_id}: {event.get('reason')}")
                end(job_id, now, "error")
            elif kind == "done":
                end(job_id, now, "done")
        loop_s = time.perf_counter() - loop_start
        self.send({"op": "stats"})
        _, stats = self.next_event("stats")
        return timings, loop_s, stats

    def close(self):
        self.send({"op": "shutdown"})
        self.next_event("shutdown")
        self.proc.stdin.close()
        self.proc.stdout.close()
        rss = wait_child(self.proc)
        wall = time.perf_counter() - self.start
        if self.proc.returncode != 0:
            raise RuntimeError(f"choco-cli serve exited {self.proc.returncode}")
        return wall, rss

    def kill(self):
        """Stops the daemon if it is still running (after a failure)."""
        if self.proc.returncode is None:
            self.proc.kill()
            wait_child(self.proc)


def measure_serve(seed, seconds, trace):
    work = os.path.join(WORK, "serve-mixed")
    shutil.rmtree(work, ignore_errors=True)
    jobs = serve_jobs(seed)
    sessions = []
    start = time.perf_counter()
    while True:
        state_dir = os.path.join(work, f"state-{len(sessions)}")
        session = Session(state_dir)
        try:
            timings, loop_s, stats = session.run(jobs, SERVE_JOBS_PER_SESSION, f"s{len(sessions)}")
            wall, rss = session.close()
        finally:
            session.kill()
        sessions.append({"state_dir": state_dir, "ready": session.ready_s, "timings": timings,
                         "loop_s": loop_s, "stats": stats, "wall": wall, "rss": rss})
        if len(sessions) >= 2 and time.perf_counter() - start + wall > seconds:
            break

    # Outcomes, failures and the first report of each distinct job spec.
    attempted = failed = rejected = 0
    latencies = []
    first = {}
    for s in sessions:
        for job_id, t in s["timings"].items():
            attempted += 1
            records = [r for _, r in t["records"]]
            rejected += t["outcome"] == "rejected"
            if t["outcome"] == "done":
                first.setdefault(t["name"], (s["state_dir"], job_id, records))
            if t["outcome"] != "done" or any(r["status"] != "ok" for r in records):
                failed += 1
                continue
            latencies.append(t["end"] - t["submit"])
            for r in records:
                if r["solver"] == "choco-q" and not r["noisy"] and r["in_constraints_rate"] != 1.0:
                    raise GateError(f"serve-mixed job {job_id}: in_constraints_rate {r['in_constraints_rate']}")
    if not latencies:
        raise GateError("serve-mixed: no job completed")
    # Rates over the distinct job specs, each counted once: every job on
    # the same spec has the same report (gated below), and counting each
    # spec once keeps the rates independent of how often the seed drew it.
    choco = [r for _, _, records in first.values() for r in records
             if r["solver"] == "choco-q" and r["status"] == "ok"]
    success = [r["success_rate"] for r in choco]
    in_constraints = [r["in_constraints_rate"] for r in choco]

    # Gate: every job report equals `choco-cli run` of the job's own spec.
    reference, ref_walls = {}, {}
    for name, (state_dir, job_id, _) in sorted(first.items()):
        spec = os.path.join(state_dir, f"{job_id}.spec.toml")
        run = cli_run(spec, False, os.path.join(work, f"{name}.json"))
        reference[name], ref_walls[name] = run["report"], run["wall"]
    for s in sessions:
        for job_id, t in s["timings"].items():
            if t["outcome"] != "done":
                continue
            with open(os.path.join(s["state_dir"], f"{job_id}.json"), "rb") as f:
                if f.read() != reference[t["name"]]:
                    raise GateError(f"serve-mixed job {job_id}: report differs from choco-cli run of its spec")

    e2e = {
        "wall_s": statistics.fmean([s["wall"] for s in sessions]),
        "setup_s": median([s["ready"] for s in sessions]),
        "peak_rss_mb": median([s["rss"] for s in sessions]),
        "ok_frac": 1.0 - failed / attempted,
        "choco_success_rate": statistics.fmean(success) if success else 0.0,
        "choco_in_constraints_min": min(in_constraints) if in_constraints else 0.0,
        "jobs_per_s": len(latencies) / sum(s["loop_s"] for s in sessions),
        "job_p50_s": median(latencies),
        "job_p90_s": p90(latencies),
    }
    compilations = sum(c["compilations"] for s in sessions for c in s["stats"]["caches"])
    hits = sum(c["hits"] for s in sessions for c in s["stats"]["caches"])
    info = {"sessions": len(sessions), "latency_samples": len(latencies), "distinct_specs": len(first),
            "failed_frac": failed / attempted,
            "plan_hit_ratio": hits / (hits + compilations) if hits + compilations else 0.0}
    if not trace:
        return e2e, attempted, failed, info

    args = ["trace"]
    for name, (state_dir, job_id, _) in sorted(first.items()):
        args += ["--spec", os.path.join(state_dir, f"{job_id}.spec.toml"),
                 "--report", os.path.join(work, f"{name}.json")]
    out = tracer(args)
    layers = layer_metrics(out)
    traced = {os.path.basename(spec["spec"]): spec["wall_s"] for spec in out["specs"]}
    replay_wall = {name: traced[f"{job_id}.spec.toml"] for name, (_, job_id, _) in first.items()}
    jobs = [t for s in sessions for t in s["timings"].values() if t["outcome"] == "done"]
    layers.update({
        "runner.self_s": median([t["end"] - t["submit"] - replay_wall[t["name"]] for t in jobs]),
        "serve.ready_s": median([s["ready"] for s in sessions]),
        "serve.accept_s": median([t["accepted"] - t["submit"] for t in jobs]),
        "serve.queue_wait_s": median([max(0.0, t["records"][0][0] - t["accepted"]) for t in jobs]),
        "serve.finish_s": median([t["end"] - t["records"][-1][0] for t in jobs]),
        "serve.plan_compilations": float(compilations),
        "serve.plan_hits": float(hits),
        "serve.plan_hit_ratio": info["plan_hit_ratio"],
        "serve.worker_restarts": float(sum(sum(s["stats"]["worker_restarts"]) for s in sessions)),
        "serve.rejected": float(rejected),
        "trace.overhead_s": sum(traced.values()) - sum(ref_walls.values()),
    })
    return layers, attempted, failed, info


# ----------------------------------------------------------------- results

def fingerprint():
    """What a result depends on besides the code. Results compare only
    when every field but `commit` matches."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rustc = subprocess.run(["rustc", "-V"], stdout=subprocess.PIPE, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": rustc,
        "commit": source_commit(),
        "sim_threads": SIM_THREADS,
        "batch_workers": BATCH_WORKERS,
        "serve_workers": SERVE_WORKERS,
        "serve_in_flight": SERVE_IN_FLIGHT,
    }


def source_commit():
    """The git commit, or a hash of the sources when the checkout is not a
    git repository."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode == 0:
        return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def measure(workload, seed, seconds, trace):
    if workload == "serve-mixed":
        return measure_serve(seed, seconds, trace)
    return measure_batch(workload, seconds, trace)


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    })


def run_one(args):
    build()
    units = PER_LAYER if args.trace else END_TO_END
    try:
        metrics, attempted, failed, info = measure(args.workload, args.seed, args.seconds, args.trace)
    except GateError as e:
        log(f"perfbench: correctness gate failed: {e}")
        print(result_line(False, 1, 1, {name: 0.0 for name, _ in units}, units))
        return 1
    log(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} {json.dumps(info)}")
    print(result_line(True, attempted, failed, metrics, units))
    return 0


def run_suite(args):
    """Every workload (or the one named), `--runs` seeds each: prints each
    metric with its unit, median, quartiles and spread (quartile distance
    over median); exits 1 if a gate failed."""
    build()
    host = fingerprint()
    ok = True
    results = []
    workloads = WORKLOADS if args.all else [args.workload]
    for workload in workloads:
        for k in range(args.runs):
            seed = args.seed + k
            try:
                metrics, attempted, failed, info = measure(workload, seed, args.seconds, args.trace)
            except GateError as e:
                log(f"perfbench: {workload} seed={seed}: correctness gate failed: {e}")
                ok = False
                continue
            log(f"perfbench: {workload} seed={seed} {json.dumps(info)}")
            results.append({"workload": workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
                            "fingerprint": host, "attempted": attempted, "failed": failed,
                            "failed_frac": failed / attempted, "info": info, "metrics": metrics})
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps(results[-1]) + "\n")
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{'workload':<12} {'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'n':>3}")
    for workload in workloads:
        rows = [r for r in results if r["workload"] == workload]
        if not rows:
            continue
        for name, unit in units + ([("failed_frac", "ratio")] if not args.trace else []):
            values = [r["failed_frac"] if name == "failed_frac" else r["metrics"][name] for r in rows]
            q1, q3 = quartiles(values)
            m = median(values)
            spread = (q3 - q1) / abs(m) if m else 0.0
            print(f"{workload:<12} {name:<28} {unit:<6} {m:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.2%} "
                  f"{len(values):>3}")
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ----------------------------------------------------------------- compare

def load_results(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def comparable(a, b):
    return {k: v for k, v in a.items() if k != "commit"} == {k: v for k, v in b.items() if k != "commit"}


def compare(args):
    """Informational: per workload and metric, each side's median and
    quartiles, the pair wins, and a verdict under the benchmark's bounds."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, cand = load_results(args.compare[0]), load_results(args.compare[1])
    hosts = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + cand}
    for r in base + cand:
        if not comparable(r["fingerprint"], base[0]["fingerprint"]):
            log("perfbench: refusing to compare results from different hosts or settings:")
            for h in sorted(hosts):
                log("  " + h)
            return 2
    print(f"{'workload':<12} {'metric':<26} {'base median [q1, q3]':>34} {'cand median [q1, q3]':>34} "
          f"{'wins':>7}  verdict")
    for workload in WORKLOADS:
        b_rows = [r for r in base if r["workload"] == workload and not r["trace"]]
        c_rows = [r for r in cand if r["workload"] == workload and not r["trace"]]
        if not b_rows or not c_rows:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in b_rows]
            c = [r["metrics"][name] for r in c_rows]
            wins, verdict = judge(b, c, metric["bound"], metric["better"] == "lower")
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:<12} {name:<26} {median(b):>12.6g} [{bq[0]:.4g}, {bq[1]:.4g}]"
                  f"{'':>2} {median(c):>12.6g} [{cq[0]:.4g}, {cq[1]:.4g}] {wins:>3}/{min(len(b), len(c)):<3}  {verdict}")
    return 0


def judge(b, c, bound, lower):
    """Pair wins (runs paired in order) and a verdict: improved when the
    candidate wins nine pairs in ten and its median moved by more than
    the baseline's quartile distance; unresolved when the baseline's own
    spread exceeds the bound (unless every candidate run beats every
    baseline run); regressed when the median is worse by more than the
    bound; unchanged otherwise."""
    def better(x, y):
        return y < x if lower else y > x

    mb, mc = median(b), median(c)
    pairs = list(zip(b, c))
    wins = sum(1 for x, y in pairs if better(x, y))
    q1, q3 = quartiles(b)
    if wins >= 0.9 * len(pairs) and better(mb, mc) and abs(mc - mb) > q3 - q1:
        return wins, "improved"
    if mb and (q3 - q1) / abs(mb) > bound and not all(better(x, y) for x in b for y in c):
        return wins, "unresolved"
    worse = (mc - mb) if lower else (mb - mc)
    if worse > bound * abs(mb):
        return wins, "regressed"
    return wins, "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (seed, seed+1, ...)")
    parser.add_argument("--save", help="append results (with host fingerprint) to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                        help="compare two --save files")
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if not args.all and not args.workload:
        parser.error("--workload, --all or --compare is required")
    if args.all or args.runs > 1 or args.save:
        return run_suite(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
