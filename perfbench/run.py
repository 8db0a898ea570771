#!/usr/bin/env python3
"""The dacsim repository benchmark.

Builds the simulator from source, runs one workload, checks every
outcome against the recorded references and prints its metrics. The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

  python3 perfbench/run.py --workload paper-compute --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload service-mix --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --regen-references

Run it from the repository root. perfbench/README.md describes the
workloads, every metric and how the per-layer numbers relate to the
end-to-end ones.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

MACHINES = ("baseline", "cae", "mta", "dac")
PAPER_SCALE = 1.0
SERVICE_SCALE = 0.25
WORKLOADS = ("paper-compute", "paper-memory", "service-mix")
# Process starts measured per run besides the passes' own, for setup_s.
SETUP_PROBES = 12
PASS_TIMEOUT_S = 170

# The paper's per-category geomean speedups (Table 2 categories, Fig 16).
PAPER_SPEEDUP = {
    ("paper-compute", "dac"): 1.340,
    ("paper-compute", "cae"): 1.110,
    ("paper-memory", "dac"): 1.447,
    ("paper-memory", "mta"): 1.167,
}

# (name, unit, better, bound); BENCHMARK.json lists the same.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("winsts_per_s", "winsts/s", "higher", 0.25),
    ("jobs_per_s", "jobs/s", "higher", 0.25),
    ("sim_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

# (name, unit, better); BENCHMARK.json lists the same.
PER_LAYER = (
    ("workloads.prepare_s", "s", "lower"),
    ("compiler.cfg_s", "s", "lower"),
    ("compiler.decouple_s", "s", "lower"),
    ("analysis.predict_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("sim.construct_s", "s", "lower"),
    ("sim.launch_s", "s", "lower"),
    *((f"sim.launch_s.{m}", "s", "lower") for m in MACHINES),
    *((f"sim.ns_per_winst.{m}", "ns", "lower") for m in MACHINES),
    ("sim.stepped_launch_s", "s", "lower"),
    ("mem.checksum_s", "s", "lower"),
    *((f"sim.cycles.{m}", "count", "lower") for m in MACHINES),
    *((f"sim.warp_insts.{m}", "count", "lower") for m in MACHINES),
    ("sim.lane_ops", "count", "lower"),
    ("sim.hash_folds", "count", "lower"),
    ("mem.load_requests", "count", "lower"),
    ("mem.l1_misses", "count", "lower"),
    ("mem.l2_misses", "count", "lower"),
    ("mem.dram_accesses", "count", "lower"),
    ("mem.l1_hit_ratio", "ratio", "higher"),
    ("dac.affine_warp_insts", "count", "lower"),
    ("dac.queue_accesses", "count", "lower"),
    ("dac.expansion_alu_ops", "count", "lower"),
    ("dac.deq_stall_cycles", "count", "lower"),
    ("dac.batches", "count", "lower"),
    ("cae.affine_insts", "count", "higher"),
    ("mta.prefetches_issued", "count", "lower"),
    ("mta.prefetch_hit_ratio", "ratio", "higher"),
    ("model.dac_speedup_gm", "ratio", "higher"),
    ("model.cae_speedup_gm", "ratio", "higher"),
    ("model.mta_speedup_gm", "ratio", "higher"),
    ("service.sims", "count", "lower"),
    ("service.cache_hits", "count", "higher"),
    ("service.dedup", "count", "higher"),
    ("service.estimates", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.overloaded", "count", "lower"),
    ("service.hit_ratio", "ratio", "higher"),
    ("service.child_peak_rss_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

# Service latencies exist only where a daemon runs, so they are printed
# on service-mix but kept out of BENCHMARK.json, whose per-layer metrics
# every workload measures.
SERVICE_LATENCY = (
    ("service.predict_p50_ms", "ms", "lower"),
    ("service.predict_p90_ms", "ms", "lower"),
    ("service.hit_p50_ms", "ms", "lower"),
    ("service.hit_p90_ms", "ms", "lower"),
    ("service.sim_p90_ms", "ms", "lower"),
    ("service.overhead_ms", "ms", "lower"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg=""):
    print(msg, flush=True)


# ----- statistics -------------------------------------------------------------


def percentile(xs, p):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(xs)
    return s[max(1, math.ceil(p / 100 * len(s))) - 1]


def tail_percentile(n):
    """The highest percentile with at least ten samples beyond it."""
    for p in range(99, 50, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return None


def timing(xs, unit="s", scale=1.0):
    """'median M, pK T (n=N)' for a sample of timings."""
    if not xs:
        return "no samples (n=0)"
    v = [x * scale for x in xs]
    text = f"median {statistics.median(v):.6g} {unit}"
    p = tail_percentile(len(v))
    if p is None:
        text += ", no tail percentile (fewer than 20 samples)"
    else:
        text += f", p{p} {percentile(v, p):.6g} {unit}"
    return text + f" (n={len(v)})"


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def ratio(num, base):
    return num / base if base else 0.0


# ----- environment and build ---------------------------------------------------


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build():
    """Configure (once) and build the pass driver; returns its path."""
    bdir = build_root() / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    logf = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), *gen])
    steps.append(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1)])
    with open(logf, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = logf.read_text()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return bdir / "perfbench_driver"


def clean_env():
    """The environment minus every DACSIM_* knob, so none can change
    what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DACSIM_")}


def source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ----- schedules ---------------------------------------------------------------


def paper_points(kernels, category):
    return [(b, m, PAPER_SCALE) for b, cat in kernels if cat == category
            for m in MACHINES]


def service_phases(kernels):
    """The three phases of service-mix: (phase, kind, [(bench, machine)], scale).
    Phase 2 repeats the points fig17..fig21 ask for, in that order."""
    names = [b for b, _ in kernels]
    comp = [b for b, cat in kernels if cat == "compute"]
    mem = [b for b, cat in kernels if cat == "memory"]
    cold = [(b, m) for b in names for m in MACHINES]                    # fig16
    repeats = ([(b, m) for b in names for m in ("baseline", "dac")]     # fig17
               + [(b, m) for b in comp for m in ("baseline", "cae")]    # fig18
               + [(b, "dac") for b in mem]                              # fig19
               + [(b, "mta") for b in mem]                              # fig20
               + [(b, m) for b in names for m in ("baseline", "dac")])  # fig21
    predicts = [(b, "dac") for b in names]
    return [(1, "run", cold, SERVICE_SCALE), (2, "run", repeats, SERVICE_SCALE),
            (3, "predict", predicts, PAPER_SCALE)]


def deal(costs, clients):
    """Client of each job: heaviest first onto the least-loaded client,
    equal costs in the given (seeded) order. A few cold jobs cost as
    much as dozens of others (BP is 30% of phase 1), so a plain
    round-robin deal would make the phase's wall time depend on which
    client the seed gives them to."""
    load = [0] * clients
    owner = [0] * len(costs)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        owner[i] = min(range(clients), key=lambda c: load[c])
        load[owner[i]] += costs[i]
    return owner


def schedule(workload, kernels, seed, clients, refs):
    """The seeded schedule: paper rows are (id, bench, machine, scale);
    service rows are (phase, client, id, kind, bench, machine, scale).
    The seed orders the rows and, among jobs of equal cost, decides
    which client sends each; it never changes an input. A cold job's
    cost is its recorded warp-instruction count; every other job costs
    the same."""
    rng = random.Random(seed)
    if workload != "service-mix":
        pts = paper_points(kernels, workload.split("-")[1])
        rng.shuffle(pts)
        return [(i, b, m, s) for i, (b, m, s) in enumerate(pts)]
    rows = []
    for phase, kind, jobs, scale in service_phases(kernels):
        order = list(jobs)
        rng.shuffle(order)
        costs = [1] * len(order)
        if phase == 1:
            costs = [warp_insts(refs["runs"][run_key(b, m, scale)]["stats"])
                     for b, m in order]
        owner = deal(costs, clients)
        rows += [(phase, owner[i], phase * 1000 + i, kind, b, m, scale)
                 for i, (b, m) in enumerate(order)]
    return rows


def job_multiset(workload, rows):
    if workload == "service-mix":
        return sorted((r[0], r[3], r[4], r[5], r[6]) for r in rows)
    return sorted(r[1:] for r in rows)


# ----- passes ------------------------------------------------------------------


class Driver:
    """Runs passes of the pass driver in a private scratch directory."""

    def __init__(self, exe, scratch):
        self.exe = exe
        self.scratch = scratch
        self.counter = itertools.count()
        self.env = clean_env()
        self.build = None  # the pass driver's build description

    def kernels(self):
        out = subprocess.run([str(self.exe), "list"], capture_output=True,
                             text=True, env=self.env, check=True).stdout
        return [tuple(line.split()) for line in out.splitlines() if line.strip()]

    def run(self, mode, rows, spans=None, core=None, perturb=None,
            setup_only=False):
        n = next(self.counter)
        sched = self.scratch / f"pass{n}.sched"
        out = self.scratch / f"pass{n}.json"
        sched.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        cmd = [str(self.exe), mode, "--schedule", rel(sched), "--out", rel(out)]
        state = None
        if mode == "service":
            state = self.scratch / f"svc{n}"
            state.mkdir()
            cmd += ["--state", rel(state)]
        if spans:
            cmd += ["--spans", rel(spans)]
        if core:
            cmd += ["--core", core]
        if perturb:
            cmd += ["--perturb-hash-cycle", str(perturb)]
        if setup_only:
            cmd.append("--setup-only")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"pass timed out after {PASS_TIMEOUT_S} s: {cmd}") from e
        if proc.returncode != 0:
            raise BenchError(f"pass failed with code {proc.returncode}: "
                             f"{' '.join(cmd)}\n{proc.stderr[-3000:]}")
        d = json.loads(out.read_text())
        self.build = d["build"]
        d["setup_s"] = d["t_first_op"] - t_spawn
        if state is not None:
            shutil.rmtree(state, ignore_errors=True)
        return d


def rel(path):
    """@p path relative to the repository root, which keeps unix socket
    paths short however deep the checkout sits."""
    return os.path.relpath(path, ROOT)


def pass_wall(d):
    if d["phases"]:
        return sum(p["t1"] - p["t0"] for p in d["phases"])
    return d["t_end"] - d["t_first_op"]


def warp_insts(stats):
    return stats["warpInsts"] + stats["affineWarpInsts"]


def peak_rss_mb(d):
    return max(d["maxrss_self_kb"], d["maxrss_children_kb"]) / 1024


# ----- reference check ----------------------------------------------------------


def run_key(bench, tech, scale):
    return f"{bench}/{tech}/{float(scale)!r}"


class Tally:
    """Counts operations and the failed ones, keeping the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, what, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")


def outcome_problem(refs, bench, tech, scale, stats, checksums):
    ref = refs["runs"].get(run_key(bench, tech, scale))
    if ref is None:
        return "no reference outcome"
    diff = [k for k in ref["stats"] if stats.get(k) != ref["stats"][k]]
    if diff:
        return "differs from the reference in " + ", ".join(diff)
    if checksums != ref["checksums"]:
        return "output checksums differ from the reference"
    return None


def disagreeing(items):
    """Keys (bench, scale) whose machines' output checksums disagree."""
    seen = {}
    for bench, scale, sums in items:
        seen.setdefault((bench, scale), set()).add(tuple(sums))
    return {k for k, v in seen.items() if len(v) > 1}


def check_points(points, refs, tally, label):
    bad = disagreeing((p["bench"], p["scale"], p["checksums"])
                      for p in points if p["error"] == "none")
    for p in points:
        what = f"{label} {p['bench']}/{p['tech']}@{p['scale']}"
        if p["error"] != "none":
            tally.add(what, f"run error {p['error']}: {p['what']}")
        elif (p["bench"], p["scale"]) in bad:
            tally.add(what, "output checksums disagree across machines")
        else:
            tally.add(what, outcome_problem(refs, p["bench"], p["tech"], p["scale"],
                                            p["stats"], p["checksums"]))


def check_jobs(jobs, refs, tally, label):
    ok = [j for j in jobs if j["reached"] and j["status"] == "ok"]
    bad = disagreeing((j["bench"], j["scale"], j["checksums"])
                      for j in ok if j["kind"] == "run")
    for j in jobs:
        what = f"{label} job {j['id']} {j['kind']} {j['bench']}/{j['tech']}@{j['scale']}"
        if not j["reached"]:
            tally.add(what, f"service unreachable: {j['error']}")
        elif j["status"] != "ok":
            tally.add(what, f"status {j['status']} after resubmits: {j['error']}")
        elif j["kind"] == "predict":
            ref = refs["predicts"].get(f"{j['bench']}/{float(j['scale'])!r}")
            est = "dac_estimate" if j["tech"] == "dac" else "base_estimate"
            if ref is None:
                tally.add(what, "no reference predict report")
            elif (j["stats"]["cycles"] != ref[est]
                  or j["any_decoupled"] != (j["tech"] == "dac" and ref["any_decoupled"])):
                tally.add(what, "estimate differs from the reference report")
            else:
                tally.add(what, None)
        elif (j["bench"], j["scale"]) in bad:
            tally.add(what, "output checksums disagree across machines")
        else:
            tally.add(what, outcome_problem(refs, j["bench"], j["tech"], j["scale"],
                                            j["stats"], j["checksums"]))


def check_predicts(preds, refs, tally, label):
    for p in preds:
        what = f"{label} predict {p['bench']}@{p['scale']}"
        ref = refs["predicts"].get(f"{p['bench']}/{float(p['scale'])!r}")
        if p["error"]:
            tally.add(what, p["error"])
        elif ref is None:
            tally.add(what, "no reference predict report")
        else:
            tally.add(what, None if p["report"] == ref
                      else "report differs from the reference")


def check_pass(d, refs, tally, label):
    check_points(d["points"], refs, tally, label)
    check_jobs(d["jobs"], refs, tally, label)
    check_predicts(d["predicts"], refs, tally, label)


def check_parity(base, other, tally, label):
    """Every point of @p other must equal @p base's bit for bit."""
    by_id = {p["id"]: p for p in base}
    for p in other:
        b = by_id.get(p["id"])
        same = (b is not None and b["stats"] == p["stats"]
                and b["checksums"] == p["checksums"])
        tally.add(f"{label} parity {p['bench']}/{p['tech']}",
                  None if same else "RunStats or checksums differ from the untraced run")


# ----- metrics ------------------------------------------------------------------


def end_to_end(workload, passes, setups):
    """End-to-end metrics from untraced passes; also returns the
    human-readable detail printed beside each."""
    walls = [pass_wall(d) for d in passes]
    if workload == "service-mix":
        ops = [len(d["jobs"]) for d in passes]
        sims = [sum(warp_insts(j["stats"]) for j in d["jobs"] if j["source"] == "sim")
                for d in passes]
        lat = [j["t1"] - j["t0"] for d in passes for j in d["jobs"] if j["phase"] == 1]
        lat_what = "client latency of cold jobs"
    else:
        ops = [len(d["points"]) for d in passes]
        sims = [sum(warp_insts(p["stats"]) for p in d["points"]) for d in passes]
        lat = [p["t1"] - p["t0"] for d in passes for p in d["points"]]
        lat_what = "runWorkload wall time per (kernel, machine)"
    m = {
        "wall_s": statistics.median(walls),
        "winsts_per_s": statistics.median(s / w for s, w in zip(sims, walls)),
        "jobs_per_s": statistics.median(o / w for o, w in zip(ops, walls)),
        "sim_p50_ms": statistics.median(lat) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(peak_rss_mb(d) for d in passes),
    }
    notes = {
        "wall_s": timing(walls),
        "winsts_per_s": f"median over {len(passes)} passes of {sims[0]} warp insts / wall_s",
        "jobs_per_s": f"median over {len(passes)} passes of {ops[0]} operations / wall_s",
        "sim_p50_ms": f"{lat_what}: " + timing(lat, "ms", 1e3),
        "setup_s": "process start to first operation: " + timing(setups),
        "peak_rss_mb": f"median over {len(passes)} passes of max(driver, largest child)",
        "_samples": {"wall_s": walls, "setup_s": setups},
    }
    return m, notes


def sim_counts(points):
    by = {m: [p["stats"] for p in points if p["tech"] == m] for m in MACHINES}
    every = [p["stats"] for p in points]

    def tot(key, stats):
        return sum(s[key] for s in stats)

    m, notes = {}, {}
    for mach in MACHINES:
        m[f"sim.cycles.{mach}"] = tot("cycles", by[mach])
        m[f"sim.warp_insts.{mach}"] = sum(warp_insts(s) for s in by[mach])
    m["sim.lane_ops"] = tot("laneOps", every)
    m["sim.hash_folds"] = sum(p["hash_folds"] for p in points)
    m["mem.load_requests"] = tot("loadRequests", every)
    m["mem.l1_misses"] = tot("l1Misses", every)
    m["mem.l2_misses"] = tot("l2Misses", every)
    m["mem.dram_accesses"] = tot("dramAccesses", every)
    l1 = tot("l1Hits", every) + m["mem.l1_misses"]
    m["mem.l1_hit_ratio"] = ratio(tot("l1Hits", every), l1)
    notes["mem.l1_hit_ratio"] = f"l1 hits / {l1} l1 accesses"
    dac = by["dac"]
    m["dac.affine_warp_insts"] = tot("affineWarpInsts", dac)
    m["dac.queue_accesses"] = (tot("atqAccesses", dac) + tot("pwaqAccesses", dac)
                               + tot("pwpqAccesses", dac))
    m["dac.expansion_alu_ops"] = tot("expansionAluOps", dac)
    m["dac.deq_stall_cycles"] = tot("deqStallCycles", dac)
    m["dac.batches"] = tot("dacBatches", dac)
    m["cae.affine_insts"] = tot("caeAffineInsts", by["cae"])
    issued = tot("prefetchesIssued", by["mta"])
    m["mta.prefetches_issued"] = issued
    m["mta.prefetch_hit_ratio"] = ratio(tot("prefetchHits", by["mta"]), issued)
    notes["mta.prefetch_hit_ratio"] = f"prefetch hits / {issued} prefetches issued"
    return m, notes


def model_speedups(workload, points):
    cycles = {(p["bench"], p["tech"]): p["stats"]["cycles"] for p in points}
    benches = sorted({b for b, _ in cycles})
    m, notes = {}, {}
    for mach in ("dac", "cae", "mta"):
        sp = [cycles[(b, "baseline")] / cycles[(b, mach)] for b in benches
              if cycles.get((b, "baseline")) and cycles.get((b, mach))]
        name = f"model.{mach}_speedup_gm"
        m[name] = geomean(sp)
        paper = PAPER_SPEEDUP.get((workload, mach))
        base = f"geomean of {len(sp)} kernels' baseline/{mach} simulated cycles"
        if paper is None:
            notes[name] = f"{base}; the paper gives no value for this set"
        else:
            notes[name] = (f"{base}; paper {paper:.3f}, error "
                           f"{(m[name] - paper) / paper * 100:+.1f}%")
    return m, notes


def layer_times(rollup, counts):
    def self_s(name):
        return rollup.get(name, {}).get("self_s", 0.0)

    def n(name):
        return rollup.get(name, {}).get("count", 0)

    spans = {
        "workloads.prepare_s": "workloads.prepare",
        "compiler.cfg_s": "compiler.cfg",
        "compiler.decouple_s": "compiler.decouple",
        "analysis.predict_s": "analysis.predict",
        "harness.self_s": "harness.point",
        "sim.construct_s": "sim.construct",
        "mem.checksum_s": "mem.checksum",
    }
    m = {k: self_s(v) for k, v in spans.items()}
    notes = {k: f"self time of {n(v)} {v} spans" for k, v in spans.items()}
    for mach in MACHINES:
        span = f"sim.launch.{mach}"
        m[f"sim.launch_s.{mach}"] = self_s(span)
        notes[f"sim.launch_s.{mach}"] = f"{n(span)} Gpu::launch spans"
        insts = counts[f"sim.warp_insts.{mach}"]
        m[f"sim.ns_per_winst.{mach}"] = ratio(self_s(span), insts) * 1e9
        notes[f"sim.ns_per_winst.{mach}"] = f"sim.launch_s.{mach} / {insts} warp insts"
    m["sim.launch_s"] = sum(m[f"sim.launch_s.{x}"] for x in MACHINES)
    return m, notes


def stepped_launch_s(rollup):
    return sum(rollup.get(f"sim.launch.{m}", {}).get("self_s", 0.0) for m in MACHINES)


def layer_rollup(rollup):
    by = {}
    for name, r in rollup.items():
        layer = name.split(".")[0]
        by[layer] = by.get(layer, 0.0) + r["self_s"]
    return by


# ----- one benchmark run --------------------------------------------------------


def timed_passes(drv, mode, rows, seconds):
    """Untraced passes while the next one is expected to end within
    @p seconds of the start (at least one)."""
    start = time.monotonic()
    passes = [drv.run(mode, rows)]
    while True:
        spent = time.monotonic() - start
        if spent + spent / len(passes) > seconds:
            return passes
        passes.append(drv.run(mode, rows))


def run_untraced(drv, workload, rows, seconds, refs, tally):
    mode = "service" if workload == "service-mix" else "paper"
    passes = timed_passes(drv, mode, rows, seconds)
    for i, d in enumerate(passes):
        check_pass(d, refs, tally, f"pass {i}")
    setups = [d["setup_s"] for d in passes]
    setups += [drv.run(mode, rows, setup_only=True)["setup_s"]
               for _ in range(SETUP_PROBES)]
    return end_to_end(workload, passes, setups)


def run_traced(drv, workload, rows, refs, tally, out_stem):
    """The traced run. Besides one untraced and one traced pass of the
    workload, it makes three extra passes, each traced:
    - its (kernel, machine, scale) points replayed directly (on paper
      workloads, the traced pass itself);
    - the same points on the stepped core;
    - predictKernel for each of its kernels at scale 1.0.
    Returns the per-layer metrics."""
    mode = "service" if workload == "service-mix" else "paper"
    trace = drv.scratch / "trace.json"
    plain = drv.run(mode, rows)
    traced = drv.run(mode, rows, spans=trace)
    shutil.copy(trace, f"{out_stem}.trace.json")
    check_pass(plain, refs, tally, "untraced")
    check_pass(traced, refs, tally, "traced")
    if mode == "paper":
        check_parity(plain["points"], traced["points"], tally, "traced")
        direct = traced
        points = rows
    else:
        points = [(r[2], r[4], r[5], r[6]) for r in rows if r[0] == 1]
        direct = drv.run("paper", points, spans=trace)
        shutil.copy(trace, f"{out_stem}.direct.trace.json")
        check_pass(direct, refs, tally, "direct")
        check_parity([j for j in traced["jobs"] if j["phase"] == 1],
                     direct["points"], tally, "direct")
    stepped = drv.run("paper", points, spans=trace, core="stepped")
    shutil.copy(trace, f"{out_stem}.stepped.trace.json")
    check_pass(stepped, refs, tally, "stepped")
    check_parity(direct["points"], stepped["points"], tally, "stepped")
    kernels = sorted({p[1] for p in points})
    predict = drv.run("predict", [(i, b, "dac", PAPER_SCALE)
                                  for i, b in enumerate(kernels)], spans=trace)
    check_pass(predict, refs, tally, "predict")

    sp = traced["spans"]
    m = {"trace.overhead_s": pass_wall(traced) - pass_wall(plain),
         "trace.unattributed_s": sp["pass_s"] - sp["covered_s"],
         "sim.stepped_launch_s": stepped_launch_s(stepped["spans"]["rollup"])}
    notes = {"trace.overhead_s": "traced pass wall minus untraced pass wall",
             "trace.unattributed_s": f"pass time no span covers ({sp['count']} spans)",
             "sim.stepped_launch_s": "Gpu::launch on SimCore::Stepped, same points"}
    rollup = dict(direct["spans"]["rollup"])
    rollup["analysis.predict"] = predict["spans"]["rollup"]["analysis.predict"]
    counts, cnotes = sim_counts(direct["points"])
    times, tnotes = layer_times(rollup, counts)
    model, mnotes = model_speedups(workload, direct["points"])
    svc, snotes = service_metrics(traced, direct)
    for part, pnotes in ((counts, cnotes), (times, tnotes), (model, mnotes),
                         (svc, snotes)):
        m.update(part)
        notes.update(pnotes)
    if direct is not traced:
        rollup.update(sp["rollup"])
    notes["_rollup"] = layer_rollup(rollup)
    return m, notes


def service_metrics(d, direct_pass):
    """Service metrics of traced pass @p d; 0 where no daemon ran."""
    jobs = d["jobs"]

    def lat(phase):
        return [j["t1"] - j["t0"] for j in jobs if j["phase"] == phase]

    cold, hits, preds = lat(1), lat(2), lat(3)
    direct = {p["id"]: p["t1"] - p["t0"] for p in direct_pass["points"]}
    over = [j["t1"] - j["t0"] - direct[j["id"]] for j in jobs
            if j["phase"] == 1 and j["id"] in direct]
    c = d["counters"]
    runs = sum(1 for j in jobs if j["kind"] == "run")

    def p50(xs):
        return statistics.median(xs) * 1e3 if xs else 0.0

    def p90(xs):
        return percentile(xs, 90) * 1e3 if xs else 0.0

    m = {
        "service.predict_p50_ms": p50(preds),
        "service.predict_p90_ms": p90(preds),
        "service.hit_p50_ms": p50(hits),
        "service.hit_p90_ms": p90(hits),
        "service.sim_p90_ms": p90(cold),
        "service.overhead_ms": p50(over),
        "service.hit_ratio": ratio(c.get("cache_hits", 0), runs),
        "service.child_peak_rss_mb": d["maxrss_children_kb"] / 1024,
    }
    for k in ("sims", "cache_hits", "dedup", "estimates", "retries", "overloaded"):
        m[f"service.{k}"] = c.get(k, 0)
    sent = f"of {len(jobs)} jobs sent"
    notes = {
        "service.predict_p50_ms": "predict jobs: " + timing(preds, "ms", 1e3),
        "service.predict_p90_ms": f"n={len(preds)}",
        "service.hit_p50_ms": "cache-hit jobs: " + timing(hits, "ms", 1e3),
        "service.hit_p90_ms": f"n={len(hits)}",
        "service.sim_p90_ms": "cold jobs: " + timing(cold, "ms", 1e3),
        "service.overhead_ms": "median of (service latency - direct run), "
                               + timing(over, "ms", 1e3),
        "service.hit_ratio": f"cache hits / {runs} run jobs",
    }
    for k in ("sims", "cache_hits", "dedup", "estimates", "retries", "overloaded"):
        notes[f"service.{k}"] = sent
    return m, notes


# ----- modes --------------------------------------------------------------------


def load_refs():
    if not REFERENCES.exists():
        raise BenchError(f"missing {REFERENCES.relative_to(ROOT)}; "
                         "run with --regen-references")
    return json.loads(REFERENCES.read_text())


def metadata(drv_build, args):
    dacsim_vars = {k: v for k, v in os.environ.items() if k.startswith("DACSIM_")}
    warn = []
    if drv_build["build_type"] == "Debug" or not drv_build["optimized"]:
        warn.append("unoptimized build")
    if drv_build["sanitizer"] != "none":
        warn.append(f"{drv_build['sanitizer']} sanitizer build")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "scale": SERVICE_SCALE if args.workload == "service-mix" else PAPER_SCALE,
        "nproc": os.cpu_count(),
        "compiler": drv_build["compiler"],
        "build_type": drv_build["build_type"],
        "sanitizer": drv_build["sanitizer"],
        "build_warnings": warn,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "dacsim_env_ignored": dacsim_vars,
    }


def run_benchmark(drv, args):
    refs = load_refs()
    kernels = drv.kernels()
    clients = os.cpu_count() or 1
    rows = schedule(args.workload, kernels, args.seed, clients, refs)
    tally = Tally()
    results = build_root() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        metrics, notes = run_traced(drv, args.workload, rows, refs, tally, stem)
        names = PER_LAYER
        shown = PER_LAYER + (SERVICE_LATENCY if args.workload == "service-mix" else ())
    else:
        metrics, notes = run_untraced(drv, args.workload, rows, args.seconds,
                                      refs, tally)
        names = shown = END_TO_END
    meta = metadata(drv.build, args)

    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for k, v in meta.items():
        log(f"  meta {k}: {v}")
    for w in meta["build_warnings"]:
        log(f"  WARNING: {w}; timings are not representative")
    log(f"  operations: attempted {tally.attempted}, failed {tally.failed}, "
        f"failed_ratio {ratio(tally.failed, tally.attempted):.6g} "
        f"(failed / {tally.attempted} attempted)")
    for p in tally.problems[:20]:
        log(f"  FAILED {p}")
    for name, unit, better, *_ in shown:
        log(f"  {name:28s} {metrics[name]:>16.6g} {unit:9s} ({better} is better)"
            f"  {notes.get(name, '')}")
    if "_rollup" in notes:
        log("  self time by layer (traced passes): " + ", ".join(
            f"{k} {v:.4f} s" for k, v in sorted(notes["_rollup"].items())))
        log(f"  chrome trace: {rel(stem)}.trace.json")
    (stem.parent / (stem.name + ".json")).write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "notes": notes,
         "attempted": tally.attempted, "failed": tally.failed,
         "problems": tally.problems}, indent=1, sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in names},
    }


def regen_references(drv):
    """Record every outcome the workloads produce at this commit."""
    kernels = drv.kernels()
    runs = [(i, b, m, s) for i, (b, m, s) in enumerate(
        [(b, m, scale) for scale in (PAPER_SCALE, SERVICE_SCALE)
         for b, _ in kernels for m in MACHINES])]
    d = drv.run("paper", runs)
    bad = disagreeing((p["bench"], p["scale"], p["checksums"]) for p in d["points"])
    errors = [p for p in d["points"] if p["error"] != "none"]
    if bad or errors:
        raise BenchError(f"refusing to record references: errors {errors[:3]}, "
                         f"checksums disagree for {sorted(bad)[:5]}")
    preds = drv.run("predict", [(i, b, "dac", PAPER_SCALE)
                                for i, (b, _) in enumerate(kernels)])
    if any(p["error"] for p in preds["predicts"]):
        raise BenchError("a predict report failed; refusing to record references")
    refs = {
        "about": "Outcomes of every (kernel, machine, scale) point and predict "
                 "report the benchmark workloads produce; regenerate with "
                 "python3 perfbench/run.py --regen-references",
        "source_sha256": source_digest(),
        "runs": {run_key(p["bench"], p["tech"], p["scale"]):
                 {"stats": p["stats"], "checksums": p["checksums"]}
                 for p in d["points"]},
        "predicts": {f"{p['bench']}/{float(p['scale'])!r}": p["report"]
                     for p in preds["predicts"]},
    }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    log(f"wrote {len(refs['runs'])} run outcomes and {len(refs['predicts'])} "
        f"predict reports to {REFERENCES.relative_to(ROOT)}")


def self_test(drv):
    refs = load_refs()
    kernels = drv.kernels()
    ok = True

    def expect(cond, what):
        nonlocal ok
        ok &= bool(cond)
        log(f"  {'ok  ' if cond else 'FAIL'} {what}")

    log("perfbench self-test")
    for wl in WORKLOADS:
        a, b, c = (schedule(wl, kernels, s, 4, refs) for s in (7, 7, 8))
        expect(a == b, f"{wl}: one seed gives an identical schedule")
        expect(a != c and job_multiset(wl, a) == job_multiset(wl, c),
               f"{wl}: two seeds give permutations of one multiset of jobs")
    counts = [len(schedule(wl, kernels, 1, 4, refs)) for wl in WORKLOADS]
    expect(counts == [44, 72, 319], f"job counts {counts} are [44, 72, 319]")

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
               "BENCHMARK.json lists this driver's workloads")
        expect([(e["name"], e["unit"], e["better"], e["bound"])
                for e in spec["end_to_end"]] == [tuple(e) for e in END_TO_END],
               "BENCHMARK.json end_to_end matches this driver")
        expect([(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]]
               == [tuple(e) for e in PER_LAYER],
               "BENCHMARK.json per_layer matches this driver")

    point = [(0, "SP", "dac", SERVICE_SCALE)]
    for perturb, want in ((None, None), (1, "stateHash")):
        t = Tally()
        check_points(drv.run("paper", point, perturb=perturb)["points"], refs, t, "self")
        got = t.problems[0] if t.problems else None
        if want is None:
            expect(t.failed == 0, "SP/dac@0.25 matches its reference")
        else:
            expect(t.failed == 1 and got.endswith(want),
                   f"hashPerturbCycle={perturb} is counted as failed ({got})")
    log("self-test " + ("passed" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--regen-references", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.regen_references):
        ap.error("give --workload, --self-test or --regen-references")
    try:
        exe = build()
        scratch = build_root() / "runs" / str(os.getpid())
        scratch.mkdir(parents=True, exist_ok=True)
        drv = Driver(exe, scratch)
        try:
            if args.regen_references:
                regen_references(drv)
                return 0
            if args.self_test:
                return 0 if self_test(drv) else 1
            result = run_benchmark(drv, args)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
