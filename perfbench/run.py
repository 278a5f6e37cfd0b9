#!/usr/bin/env python3
"""End-to-end benchmark of ACIC: the sweep, chaos and serve workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

On first use it builds perfbench/ (the ACIC library sources from src/
plus harness.cpp) into .bench_build/.  It then runs the harness once per
iteration, each in a fresh process, for about --seconds, maps every
time to the reference speed the harness's probe calls measured, checks
the outputs, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced iterations and reports the per-layer
metrics, writing each traced iteration's spans as a Chrome trace-event
file under .bench_build/traces/.  A failed output check exits 1 after
printing the result; a build or harness failure exits 2 without one.
README.md in this directory documents the workloads and metrics.
"""
import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "acic_perfbench"
TRACES = BUILD / "traces"

# Reference outputs are recorded at this seed (run.py --print-reference).
REFERENCE_SEED = 1
# Relative tolerance on floating-point reference values: simulator work
# that reorders floating-point arithmetic may move them by ~1e-9.
REL_TOL = 1e-6

WORKLOADS = ("sweep", "chaos", "serve")
# Extra harness processes that only set up and exit, for the median
# set-up time of workloads whose set-up is short (serve's is the
# database sweep, sampled once per iteration instead).
SETUP_SAMPLES = {"sweep": 5, "chaos": 5, "serve": 0}
# The speed probe's kernel (harness.cpp) takes about this long, in ns of
# thread CPU time, on the 4-vCPU host the recorded numbers come from.
# Reported times are those of a host on which it takes exactly this long.
PROBE_REF_NS = 650_000
SERVE_VERBS = ("recommend", "predict", "rank", "stats")
CHAOS_PRESETS = ("outages", "brownouts", "stragglers", "lossy-az",
                 "spot-preempt")
GRADES = ("ok", "degraded", "failed")


class BenchError(Exception):
    """The benchmark could not run (build or harness failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run the harness
# ---------------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"ACIC sources not found under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"build failed: {e}") from e


def run_harness(workload, seed, *, verify, trace_path, serve_seconds, smoke,
                setup_only=False):
    cmd = [str(HARNESS), workload, "--seed", str(seed),
           "--serve-seconds", f"{serve_seconds:g}"]
    if verify:
        cmd.append("--verify")
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace-out", str(trace_path)]
    env = dict(os.environ)
    env.pop("ACIC_CACHE_DIR", None)
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170, env=env)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"harness timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        raise BenchError(f"harness failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed nothing")
    data = json.loads(lines[-1])
    if trace_path:
        data["spans"] = read_spans(trace_path)
    return at_reference_speed(data, spawned)


# Absolute timestamps (ns) in the harness's records, by field and column.
TIMESTAMPS = {"runs": (0, 1), "requests": (1, 2), "handles": (2, 3, 4)}
# Durations run.py derives from the harness's [start, end] intervals:
# name -> (interval field, ns per unit).  A list field gives a list.
INTERVALS = {"time_to_recommend_s": ("ttr_at", 1e9), "pb_s": ("pb_at", 1e9),
             "training_s": ("training_at", 1e9), "batch_s": ("batch_at", 1e9),
             "sim_s": ("sim_at", 1e9), "serve_s": ("serve_at", 1e9),
             "engine_ms": ("engine_at", 1e6), "train_ms": ("train_at", 1e6),
             "recommend_us": ("recommend_at", 1e3)}


def at_reference_speed(data, origin_ns):
    """Maps every time of one iteration to the reference host's speed.

    Each timestamp goes through one time warp built from the speed
    probe's calls (metrics.speed_warp), and every duration is the
    difference of two warped timestamps.  The median factor stays in
    "speed" for the human-readable lines.
    """
    probes = sorted(data["probes"])
    warp = m.speed_warp(origin_ns, probes, PROBE_REF_NS)
    data["speed"] = PROBE_REF_NS / statistics.median(d for _, d in probes)
    data["setup_s"] = (warp(data["ready_ns"]) - origin_ns) / 1e9
    for name, (key, unit) in INTERVALS.items():
        if key in data:
            v = data[key]
            if v and isinstance(v[0], list):
                data[name] = [(warp(e) - warp(s)) / unit for s, e in v]
            else:
                data[name] = (warp(v[1]) - warp(v[0])) / unit
    data["ready_ns"] = warp(data["ready_ns"])
    for key, cols in TIMESTAMPS.items():
        for row in data.get(key, []):
            for c in cols:
                row[c] = warp(row[c])
    for span in data.get("spans", []):
        span["start"] = warp(span["start"])
        span["end"] = warp(span["end"])
    data["probes"] = [(warp(s), warp(s + d)) for s, d in probes]
    return data


def read_spans(path):
    """The layer spans of a Chrome trace-event file, times in ns."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    return [{"name": e["name"], "layer": e["cat"],
             "start": e["ts"] * 1e3, "end": (e["ts"] + e["dur"]) * 1e3}
            for e in events]


def run_iterations(workload, seed, seconds, trace, smoke):
    """Fresh harness processes, one iteration each, for `seconds`.

    Another iteration starts only if one as long as the last still ends
    before `seconds` have passed; there is always one, and in trace mode
    two.  The first iteration also verifies the picks with untimed runs.
    In trace mode even iterations are traced and odd ones are not, so
    the difference between the two is the tracing overhead (serve also
    alternates traced and untraced slices inside a traced iteration).
    """
    TRACES.mkdir(parents=True, exist_ok=True)
    serve_seconds = 0.5 if smoke else 3.0
    minimum = 2 if trace else 1
    deadline = time.monotonic() + (0 if smoke else seconds)
    its = []
    last = 0.0
    while len(its) < minimum or time.monotonic() + last < deadline:
        started = time.monotonic()
        k = len(its)
        traced = trace and k % 2 == 0
        trace_file = (TRACES / f"{workload}-seed{seed}-{k}.json"
                      if traced else None)
        it = run_harness(workload, seed, verify=(k == 0),
                         trace_path=trace_file, serve_seconds=serve_seconds,
                         smoke=smoke)
        it["traced"] = traced
        if traced:
            it["trace_file"] = str(trace_file)
        its.append(it)
        last = time.monotonic() - started
    return its


def setup_times(workload, seed, its, smoke):
    """Set-up times of the iterations plus SETUP_SAMPLES set-up-only runs."""
    samples = [it["setup_s"] for it in its]
    for _ in range(0 if smoke else SETUP_SAMPLES[workload]):
        samples.append(run_harness(workload, seed, verify=False,
                                   trace_path=None, serve_seconds=0,
                                   smoke=False, setup_only=True)["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Output checks and failure accounting
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
        return ok

    def close(self, got, want, what):
        ok = abs(got - want) <= REL_TOL * max(abs(want), 1e-300)
        return self.expect(ok, f"{what}: got {got!r}, expected {want!r}")

    def equal(self, got, want, what):
        return self.expect(got == want,
                           f"{what}: got {got!r}, expected {want!r}")


def load_reference():
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def common_guards(checks, it):
    c = it["counters"]
    checks.equal(c["exec.cache_hits"], 0, "exec.cache_hits")
    checks.equal(c["exec.store_hits"], 0, "exec.store_hits")
    checks.equal(c["exec.runs_executed"], it["planned_runs"],
                 "exec.runs_executed")
    for run in it.get("runs", []):
        checks.expect(run[9] in GRADES, f"ungraded run outcome {run[9]!r}")


def picks_differ(checks, top1):
    """A recommender that ignores the workload answers every app alike;
    the reference picks differ, so equal picks fail the run."""
    checks.expect(len({labels[0] for labels in top1.values()}) > 1,
                  "the performance pick is the same for every app")


def speedups(verified):
    return [v["baseline_time"] / v["pick_time"] for v in verified]


def sweep_outputs(it):
    return {"importance": it["importance"], "top1": it["top1"],
            "samples": it["samples"], "quarantined": it["quarantined"],
            "planned_runs": it["planned_runs"],
            "sample_time_sum": it["sample_time_sum"],
            "pick_speedup": m.geomean(speedups(it["verified"]))}


def chaos_outputs(it):
    grades = {p: {g: 0 for g in GRADES} for p in CHAOS_PRESETS}
    for preset, _, _, _, outcome in it["results"]:
        grades[preset][outcome] += 1
    return {"grades": grades, "planned_runs": it["planned_runs"],
            "pick_speedup": chaos_pick_speedup(it)}


def serve_outputs(it):
    return {"top1": it["top1"],
            "pick_speedup": m.geomean(speedups(it["verified"]))}


OUTPUTS = {"sweep": sweep_outputs, "chaos": chaos_outputs,
           "serve": serve_outputs}


def check_sweep(checks, its, ref):
    first = its[0]
    for it in its:
        common_guards(checks, it)
        checks.equal(it["top1"], first["top1"], "picks of one seed")
        checks.equal(it["sample_time_sum"], first["sample_time_sum"],
                     "training results of one seed")
    if ref:
        out = sweep_outputs(first)
        picks_differ(checks, out["top1"])
        for key in ("importance", "top1", "samples", "quarantined",
                    "planned_runs"):
            checks.equal(out[key], ref[key], key)
        for key in ("sample_time_sum", "pick_speedup"):
            checks.close(out[key], ref[key], key)


def check_chaos(checks, its, ref):
    first = its[0]
    for it in its:
        common_guards(checks, it)
        checks.equal(len(it["results"]), it["planned_runs"], "results")
        checks.expect(all(r[4] in GRADES for r in it["results"]),
                      "every chaos run graded")
        checks.equal(it["results"], first["results"], "results of one seed")
    if ref:
        out = chaos_outputs(first)
        checks.equal(out["grades"], ref["grades"], "outcome grades")
        checks.equal(out["planned_runs"], ref["planned_runs"], "planned runs")
        checks.close(out["pick_speedup"], ref["pick_speedup"], "pick_speedup")


def check_serve(checks, its, ref):
    first = its[0]
    for it in its:
        checks.expect(not it["client_failed"], "client lost its connection")
        checks.equal(it["counters"]["exec.runs_executed"], 0,
                     "simulations while serving")
        checks.equal(it["top1"], first["top1"], "app picks of one seed")
        checks.expect(all(v[0] for v in it["top1"].values()),
                      "every app recommendation answered ok")
    if ref:
        picks_differ(checks, first["top1"])
        checks.equal(first["top1"], ref["top1"], "app top-1 labels")
        checks.close(serve_outputs(first)["pick_speedup"],
                     ref["pick_speedup"], "pick_speedup")


CHECKS = {"sweep": check_sweep, "chaos": check_chaos, "serve": check_serve}


def operations(workload, its):
    """(attempted, failed) operations over all iterations.

    sweep: simulated runs plus recommend calls; a quarantined training
    point or a run graded failed is a failed operation.  chaos: simulated
    runs; a run graded failed is an outcome the batch measures, not a
    failed operation.  serve: requests; an answer other than "ok", a shed
    request, a backpressure pause or a service error is a failure.
    """
    attempted = failed = 0
    for it in its:
        c = it["counters"]
        if workload == "sweep":
            attempted += it["sim_runs"] + len(it["recommend_us"])
            failed += it["quarantined"] + int(c["io.runs_failed"])
        elif workload == "chaos":
            attempted += it["sim_runs"]
        else:
            attempted += len(it["requests"])
            failed += sum(1 for r in it["requests"] if not r[4])
            failed += int(c["net.queue_shed"] + c["net.backpressure_pauses"] +
                          c["service.errors"])
    return attempted, failed


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def run_latencies_us(its):
    return [(r[1] - r[0]) / 1e3 for it in its for r in it["runs"]]


def chaos_pick_speedup(it):
    """Geometric mean over the apps of the baseline config's median time
    over the measured-best config's median time, the medians taken over
    every preset and seed (one seed's few faults would swing a median
    per preset)."""
    times = {}
    for _, job, label, total_time, _ in it["results"]:
        times.setdefault(job, {}).setdefault(label, []).append(total_time)
    ratios = []
    for by_config in times.values():
        medians = {label: statistics.median(v)
                   for label, v in by_config.items()}
        ratios.append(medians[it["baseline_label"]] / min(medians.values()))
    return m.geomean(ratios)


def end_to_end(workload, its, setups):
    med = statistics.median
    if workload == "serve":
        lat = [(r[2] - r[1]) / 1e3 for it in its for r in it["requests"]]
        rps = med(len(it["requests"]) / it["serve_s"] for it in its)
        runs_per_s = med(it["sim_runs"] / it["sim_s"] for it in its)
        ttr = med(it["time_to_recommend_s"] for it in its)
        pick = serve_outputs(its[0])["pick_speedup"]
    elif workload == "sweep":
        lat = run_latencies_us(its)
        rps = med(it["training_runs"] / it["training_s"] for it in its)
        runs_per_s = med(it["sim_runs"] / (it["pb_s"] + it["training_s"])
                         for it in its)
        ttr = med(it["time_to_recommend_s"] for it in its)
        pick = sweep_outputs(its[0])["pick_speedup"]
    else:
        lat = run_latencies_us(its)
        runs_per_s = rps = med(it["sim_runs"] / it["batch_s"] for it in its)
        ttr = med(it["batch_s"] for it in its)
        pick = chaos_pick_speedup(its[0])
    s = m.summarize(lat)
    notes = {"latency": f"n={s['n']} tail=p{100 * s['q']:.2f}"}
    return {
        "setup_s": med(setups),
        "time_to_recommend_s": ttr,
        "runs_per_s": runs_per_s,
        "pick_speedup": pick,
        "requests_per_s": rps,
        "latency_p50_us": s["p50"],
        "latency_p99_us": s["tail"],
        "peak_rss_mb": med(it["peak_rss_mb"] for it in its),
    }, notes


# ---------------------------------------------------------------------------
# Per-layer metrics (traced iterations)
# ---------------------------------------------------------------------------

def io_metrics(runs, probes, busy_phase_s, nthreads):
    """io.* and exec.* figures from the timed simulations of one iteration.

    A worker's gap between two runs holds the speed probe's call, which
    is the benchmark's time, not the executor's; it is left out.
    """
    out = {}
    if not runs:
        return out
    walls = [(r[1] - r[0]) / 1e3 for r in runs]
    s = m.summarize(walls)
    out["io.run_us.p50"] = s["p50"]
    out["io.run_us.p99"] = s["tail"]
    for fs in ("nfs", "pvfs2", "lustre"):
        v = [w for w, r in zip(walls, runs) if r[3] == fs]
        out[f"io.run_us.{fs}.mean"] = statistics.fmean(v) if v else 0.0
    for preset in CHAOS_PRESETS:
        v = [w for w, r in zip(walls, runs) if r[4] == preset]
        out[f"io.run_us.{preset}.mean"] = statistics.fmean(v) if v else 0.0
    events = sum(r[5] for r in runs)
    out["io.ns_per_event"] = sum(w * 1e3 for w in walls) / max(events, 1)
    out["io.events_per_run"] = events / len(runs)
    out["io.fs_requests_per_run"] = sum(r[6] for r in runs) / len(runs)
    out["io.fs_bytes_per_run"] = sum(r[7] for r in runs) / len(runs)
    gaps = m.per_thread_gaps([(r[2], r[0], r[1]) for r in runs])
    between = max(len(runs) - len({r[2] for r in runs}), 1)
    exec_ns = sum(e - s for s, e in gaps) - m.covered_within(gaps, probes)
    out["exec.self_us_per_run"] = exec_ns / 1e3 / between
    out["exec.busy_ratio"] = (sum(walls) / 1e6) / (nthreads * busy_phase_s)
    return out


def layer_selfs(it, root_name):
    spans = it["spans"]
    root = next(s for s in spans if s["name"] == root_name)
    by_layer = {}
    for s in spans:
        by_layer.setdefault(s["layer"], []).append((s["start"], s["end"]))
    runs = [(r[2], r[0], r[1]) for r in it.get("runs", [])]
    by_layer["exec"] = by_layer.get("exec", []) + m.per_thread_gaps(runs)
    # The speed probe is innermost: its calls count for no layer.
    order = [("probe", it["probes"])] + [
        (layer, by_layer.get(layer, []))
        for layer in ("io", "exec", "ml", "core")]
    selfs = m.layer_self_times((root["start"], root["end"]), order)
    return {f"{layer}.self_s": v / 1e9 for layer, v in selfs.items()}


def serve_layers(it):
    mix = it["mix"]
    client = {v: [] for v in SERVE_VERBS}
    nbytes = {v: [] for v in SERVE_VERBS}
    for idx, send, recv, size, _, _ in it["requests"]:
        verb = SERVE_VERBS[mix[idx][0]]
        client[verb].append((recv - send) / 1e3)
        nbytes[verb].append(size)
    handle = {v: [] for v in SERVE_VERBS}
    queue_wait = []
    handles_by_line = {}
    for verb, line_bytes, received, entry, exit_ in it["handles"]:
        handle[SERVE_VERBS[verb]].append((exit_ - entry) / 1e3)
        queue_wait.append((entry - received) / 1e3)
        handles_by_line.setdefault((verb, line_bytes), []).append(
            (received, exit_))
    # Outside time: client latency minus queue wait and handle time, for
    # each request matched to the handler call of the same verb and line
    # length inside its send..recv.
    for calls in handles_by_line.values():
        calls.sort()
    outside = []
    for idx, send, recv, _, _, _ in it["requests"]:
        calls = handles_by_line.get(tuple(mix[idx]), [])
        i = bisect.bisect_left(calls, (send,))
        if i < len(calls) and calls[i][1] <= recv:
            received, exit_ = calls[i]
            outside.append(((recv - send) - (exit_ - received)) / 1e3)
    out = {}
    for verb in SERVE_VERBS:
        c = m.summarize(client[verb])
        h = m.summarize(handle[verb])
        out[f"client.latency_us.{verb}.p50"] = c["p50"]
        out[f"client.latency_us.{verb}.p99"] = c["tail"]
        out[f"service.handle_us.{verb}.p50"] = h["p50"]
        out[f"service.handle_us.{verb}.p99"] = h["tail"]
        out[f"service.response_bytes.{verb}"] = (
            statistics.fmean(nbytes[verb]) if nbytes[verb] else 0.0)
    q = m.summarize(queue_wait)
    o = m.summarize(outside)
    out["net.queue_wait_us.p50"] = q["p50"]
    out["net.queue_wait_us.p99"] = q["tail"]
    out["net.outside_us.p50"] = o["p50"]
    out["net.outside_us.p99"] = o["tail"]
    return out


COUNTER_METRICS = {
    "exec.runs_executed": "exec.runs_executed",
    "exec.cache_hits": "exec.cache_hits",
    "sim.events": "sim.events",
    "cloud.faults_injected": "cloud.faults.injected",
    "io.retries": "io.retries",
    "io.timeouts": "io.timeouts",
    "io.preempt.restarts": "io.preempt.restarts",
    "io.checkpoint.writes": "io.checkpoint.writes",
    "io.runs_degraded": "io.runs_degraded",
    "io.runs_failed": "io.runs_failed",
    "net.queue_shed": "net.queue_shed",
    "net.backpressure_pauses": "net.backpressure_pauses",
    "service.errors": "service.errors",
}


def overhead_basis(workload, it):
    """Seconds of the figure tracing could slow down, per iteration."""
    return it["batch_s"] if workload == "chaos" else it["time_to_recommend_s"]


def serve_overhead_pct(its):
    """How much slower requests are while handler calls are recorded, in
    percent: the median, over the traced/untraced slice pairs of traced
    serve iterations, of the pair's mean-latency ratio, minus one."""
    ratios = []
    for it in its:
        ratios += m.slice_pair_ratios(
            [(r[5], r[2] - r[1]) for r in it["requests"]], 1)
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0


def per_layer(workload, its, names):
    """Every per-layer metric; 0 where the workload never enters the layer."""
    traced = [it for it in its if it["traced"]]
    plain = [it for it in its if not it["traced"]] or traced
    med = statistics.median
    values = {name: [] for name in names}
    for it in traced:
        row = {name: it["counters"][c] for name, c in COUNTER_METRICS.items()}
        if workload == "sweep":
            row["core.pb_s"] = it["pb_s"]
            row["core.training_s"] = it["training_s"]
            row["core.recommend_us"] = statistics.fmean(it["recommend_us"])
            row["ml.train_ms"] = statistics.fmean(it["train_ms"])
            row.update(io_metrics(it["runs"], it["probes"], it["training_s"],
                                  it["threads"]))
            row.update(layer_selfs(it, "sweep"))
        elif workload == "chaos":
            row.update(io_metrics(it["runs"], it["probes"], it["batch_s"],
                                  it["threads"]))
            row.update(layer_selfs(it, "chaos"))
        else:
            row["core.training_s"] = it["training_s"]
            row["ml.train_ms"] = it["engine_ms"]
            row.update(serve_layers(it))
        for name in names:
            values[name].append(row.get(name, 0.0))
    out = {name: med(v) for name, v in values.items()}
    if workload == "serve":
        out["trace.overhead_pct"] = serve_overhead_pct(traced)
    else:
        t = med(overhead_basis(workload, it) for it in traced)
        u = med(overhead_basis(workload, it) for it in plain)
        out["trace.overhead_pct"] = 100.0 * (t - u) / u
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload, seed, seconds, trace, smoke=False):
    spec = load_spec()
    its = run_iterations(workload, seed, seconds, trace, smoke)
    checks = Checks()
    ref = {}
    if seed == REFERENCE_SEED and not smoke:
        ref = load_reference().get(workload, {})
    CHECKS[workload](checks, its, ref)
    attempted, failed = operations(workload, its)
    failed += len(checks.failures)
    group = "per_layer" if trace else "end_to_end"
    units = {x["name"]: x["unit"] for x in spec[group]}
    if trace:
        values, notes = per_layer(workload, its, list(units)), {}
    else:
        values, notes = end_to_end(
            workload, its, setup_times(workload, seed, its, smoke))
    for what in checks.failures:
        log(f"CHECK FAILED [{workload} seed {seed}]: {what}")
    for name in units:
        print(f"{workload:6s} {name:36s} {values[name]:16.6f} {units[name]}")
    for what, note in notes.items():
        print(f"{workload:6s} {what} {note}")
    print(f"{workload:6s} iterations {len(its)}")
    print(f"{workload:6s} speed factors "
          + " ".join(f"{it['speed']:.3f}" for it in its))
    for it in its:
        if it.get("trace_file"):
            print(f"{workload:6s} trace {it['trace_file']}")
    return {
        "correct": not checks.failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def smoke():
    """Each workload small, traced and untraced: the printed metric sets
    must match BENCHMARK.json and every name must be valid."""
    spec = load_spec()
    problems = []
    for group in ("end_to_end", "per_layer"):
        for x in spec[group]:
            if not (m.valid_metric_name(x["name"]) and
                    m.valid_unit(x["unit"])):
                problems.append(f"invalid metric {x}")
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, REFERENCE_SEED, 0, trace, smoke=True)
            group = "per_layer" if trace else "end_to_end"
            want = {x["name"] for x in spec[group]}
            if set(result["metrics"]) != want:
                problems.append(f"{workload} trace={trace}: metric set differs")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: outputs incorrect")
    for p in problems:
        log(f"SMOKE: {p}")
    print(json.dumps({"smoke_ok": not problems}))
    return 0 if not problems else 1


def print_reference():
    """Reference outputs at REFERENCE_SEED, for perfbench/reference.json."""
    ref = {}
    for workload in WORKLOADS:
        it = run_harness(workload, REFERENCE_SEED, verify=True,
                         trace_path=None, serve_seconds=1.0, smoke=False)
        ref[workload] = OUTPUTS[workload](it)
    print(json.dumps(ref, indent=2, sort_keys=True))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--print-reference", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.smoke:
            return smoke()
        if args.print_reference:
            return print_reference()
        if not args.workload:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
