"""Benchmark of the codecensus census, verification suite and lattice queries.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each workload runs in fresh worker
processes (cold caches, as every `codecensus` CLI call is), one after the
other: at least three, and until --seconds have passed.  Every output is
checked against reference results computed from the seed code
(bench/references.json).  Times are scaled to a reference host speed that
the workers measure while they run (hostspeed.py).  With --trace 0 the
last stdout line holds the end-to-end metrics of BENCHMARK.json; with
--trace 1 it holds the per-layer metrics, from two traced workers
alternating with two untraced ones.
Exit code: 0 all outputs correct, 1 some output or invariant failed its
check, 2 the checkout lacks the sources or the references.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

# Workload sizes.  "tiny" exists for bench/selftest.py only.
PROFILES = {
    "full": {"census_n": 36, "verify_max_n": 30, "queries": 100, "pool": "full"},
    "tiny": {"census_n": 8, "verify_max_n": 12, "queries": 5, "pool": "tiny"},
}
# Query pools: cycle types of uniformly random permutations, n uniform in
# [n_lo, n_hi], drawn once from a fixed seed; references.json holds the seed
# code's dim_poly digest of every entry, so any --seed can be checked.
POOLS = {
    "full": {"seed": 2004, "size": 100, "n_lo": 256, "n_hi": 1536},
    "tiny": {"seed": 8, "size": 20, "n_lo": 8, "n_hi": 64},
}
SETUP_PROBES_PER_WORKER = 3
MIN_WORKERS = 3  # so that a run's median is taken over at least three workers
DEADLINE_S = 170.0
EXIT_OK, EXIT_INCORRECT, EXIT_NO_SOURCES = 0, 1, 2


def random_cycle_type(rng: random.Random, n_lo: int, n_hi: int) -> tuple[int, ...]:
    """Cycle type of a uniformly random permutation of n, n uniform in [n_lo, n_hi]."""
    n = rng.randint(n_lo, n_hi)
    perm = list(range(n))
    rng.shuffle(perm)
    seen = bytearray(n)
    parts = []
    for i in range(n):
        length = 0
        while not seen[i]:
            seen[i] = 1
            i = perm[i]
            length += 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def make_pool(name: str) -> list[tuple[int, ...]]:
    spec = POOLS[name]
    rng = random.Random(spec["seed"])
    return [random_cycle_type(rng, spec["n_lo"], spec["n_hi"]) for _ in range(spec["size"])]


def query_stream(seed: int, index: int, count: int, pool_size: int) -> list[int]:
    """Pool indices of the index-th query stream of a seed (distinct queries)."""
    return random.Random(f"lattice_queries:{seed}:{index}").sample(range(pool_size), count)


def types_digest(types) -> str:
    text = ";".join(",".join(map(str, t)) for t in types)
    return hashlib.sha256(text.encode()).hexdigest()


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(probes: int, deadline: float) -> list[float]:
    """Interpreter start plus `import codecensus`, once per probe, scaled to
    the reference host speed measured just before and after the probe.

    Output goes to pipes: without them, waiting with a timeout polls the
    child with sleeps of up to 50 ms, which would quantize the times."""
    times = []
    for _ in range(probes):
        before = hostspeed.measure()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import codecensus"], cwd=ROOT, env=child_env(),
                       capture_output=True, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        elapsed = time.perf_counter() - start
        kernel_s = (before + hostspeed.measure()) / 2
        times.append(elapsed * hostspeed.NOMINAL_S / kernel_s)
    return times


def run_worker(job: dict, deadline: float) -> dict:
    """One cold worker process; returns its result, or an error record."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "output": None, "latencies_s": []}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exit {proc.returncode}: {tail[0]}", "output": None, "latencies_s": []}
    return json.loads(lines[-1])


def check_outputs(workload: str, job: dict, result: dict, refs: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one worker result."""
    if workload == "lattice_queries":
        attempted = len(job["types"])
        if result.get("error") or result.get("output") is None:
            return attempted, attempted, [result.get("error") or "no output"]
        failed, problems = 0, []
        pool_ref = refs["pools"][job["pool"]]["digests"]
        for idx, out in zip(job["pool_indices"], result["output"]):
            ok = out["invariants_ok"] and out["digest"] == pool_ref[idx]
            if not ok:
                failed += 1
                problems.append(f"query pool[{idx}]: {out.get('error') or 'output differs from reference'}")
        return attempted, failed, problems
    if result.get("error") or result.get("output") is None:
        return 1, 1, [result.get("error") or "no output"]
    out = result["output"]
    if workload == "census":
        ref = refs["census"][str(job["census_n"])]
        ok = out["b"] == ref["b"] and out["G"] == ref["G"] and out["by_dim"] == ref["by_dim"]
    else:
        ref = refs["verify"][str(job["verify_max_n"])]
        ok = out["exit"] == 0 and out["sha256"] == ref["sha256"]
    return 1, 0 if ok else 1, [] if ok else [f"{workload} output differs from reference"]


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def scale(result: dict) -> float:
    """Factor from a worker's timings to the reference host speed."""
    return hostspeed.NOMINAL_S / result["kernel_s"]


def end_to_end(untraced: list[dict], setup: list[float]) -> dict:
    latencies = [x * scale(r) for r in untraced for x in r["latencies_s"]]
    return {
        "wall_s": statistics.median(r["wall_s"] * scale(r) for r in untraced),
        "cpu_s": statistics.median(r["cpu_s"] * scale(r) for r in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p90_ms": 1000 * percentile(latencies, 90),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer numbers from the traced processes, and the repeat check.
    Times are scaled to the reference host speed, as the end-to-end ones."""
    problems = []
    traces = [r["trace"] for r in traced]
    factors = [scale(r) for r in traced]
    values = {}
    for name in traces[0]["layers"]:
        rows = [t["layers"][name] for t in traces]
        values[f"{name}.self_s"] = statistics.median(r["self_s"] * f for r, f in zip(rows, factors))
        values[f"{name}.max_call_s"] = statistics.median(r["max_call_s"] * f for r, f in zip(rows, factors))
        values[f"{name}.calls"] = rows[0]["calls"]
        if len({r["calls"] for r in rows}) > 1:
            problems.append(f"{name}.calls differs between traced runs")
    values.update(traces[0]["counts"])
    for key in traces[0]["counts"]:
        if len({t["counts"][key] for t in traces}) > 1:
            problems.append(f"{key} differs between traced runs")
    for t in traces:
        problems.extend(t["violations"])
    traced_wall = statistics.median(r["wall_s"] * scale(r) for r in traced)
    untraced_wall = statistics.median(r["wall_s"] * scale(r) for r in untraced)
    values["trace_overhead_frac"] = traced_wall / untraced_wall - 1
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "verify", "lattice_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--references", type=Path, default=REFERENCES)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "codecensus" / "__init__.py").is_file() or not args.references.is_file() \
            or not spec_path.is_file():
        print(f"error: run from a codecensus source checkout ({SRC / 'codecensus'}, "
              f"{args.references.name} and BENCHMARK.json are required)", file=sys.stderr)
        return EXIT_NO_SOURCES
    spec = json.loads(spec_path.read_text())
    refs = json.loads(args.references.read_text())
    profile = PROFILES[args.profile]
    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    facts.update(workload=args.workload, seed=args.seed, trace=args.trace, profile=args.profile,
                 load_before=os.getloadavg())

    pool = make_pool(profile["pool"]) if args.workload == "lattice_queries" else None

    tag = f"{args.profile}-{args.workload}-seed{args.seed}"

    def job(index: int, traced: bool) -> dict:
        j = {"workload": args.workload, "trace": traced, "census_n": profile["census_n"],
             "verify_max_n": profile["verify_max_n"], "pool": profile["pool"],
             "run_id": f"{args.workload}-seed{args.seed}-p{index}",
             "spans_path": str(OUT / f"spans-{tag}-p{index}.json.gz")}
        if pool is not None:
            j["pool_indices"] = query_stream(args.seed, index, profile["queries"], len(pool))
            j["types"] = [pool[i] for i in j["pool_indices"]]
        return j

    setup = []
    runs = []  # (job, result, traced)
    start = time.monotonic()
    if args.trace:
        # untraced and traced processes alternate on the same inputs, so the
        # overhead estimate sees the same machine conditions on both sides
        plan = [job(0, False), job(0, True), job(1, False), job(1, True)]
        for j in plan[1:]:
            j.update({k: plan[0][k] for k in ("pool_indices", "types") if k in plan[0]})
        for j in plan:
            runs.append((j, run_worker(j, deadline), j["trace"]))
    else:
        # setup probes are spread over the run, between worker processes,
        # so that their median sees the same machine conditions as the work
        index = 0
        while index < MIN_WORKERS or time.monotonic() - start < args.seconds:
            setup += measure_setup(SETUP_PROBES_PER_WORKER, deadline)
            j = job(index, False)
            runs.append((j, run_worker(j, deadline), False))
            index += 1
        setup += measure_setup(SETUP_PROBES_PER_WORKER, deadline)
    measured_s = time.monotonic() - start

    attempted = failed = 0
    problems = []
    for j, result, _ in runs:
        a, f, p = check_outputs(args.workload, j, result, refs)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    if pool is not None:
        if types_digest(pool) != refs["pools"][profile["pool"]]["types_digest"]:
            problems.append("generated query pool differs from the reference pool")
            failed = max(failed, 1)
        digests = [types_digest(j["types"]) for j, _, _ in runs]
        facts["stream_digests"] = digests
        expected = refs["stream_digests"].get(args.profile, {}).get(str(args.seed))
        if expected is not None and digests[0] != expected:
            problems.append("generated query stream differs from the recorded digest")
            failed = max(failed, 1)

    untraced = [r for _, r, t in runs if not t and r.get("wall_s") is not None and r.get("kernel_s")]
    traced = [r for _, r, t in runs if t and r.get("trace") and r.get("kernel_s")]
    values = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            values, trace_problems = per_layer(untraced, traced)
            if trace_problems:
                problems.extend(trace_problems)
                failed = min(attempted, failed + len(trace_problems))
            facts["missing_spans"] = traced[0]["trace"]["missing"]
        else:
            values = end_to_end(untraced, setup)
    else:
        problems.append("no complete measurement")
        failed = max(failed, 1)

    kind = "per_layer" if args.trace else "end_to_end"
    absent = [m["name"] for m in spec[kind] if m["name"] not in values]
    if values and absent and not facts.get("missing_spans"):
        problems.append(f"metrics named in BENCHMARK.json but not measured: {absent}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec[kind]}
    if untraced:
        facts.update(raw_wall_s=statistics.median(r["wall_s"] for r in untraced),
                     slowdown=[round(r["kernel_s"] / hostspeed.NOMINAL_S, 3) for r in untraced])
    facts.update(processes=len(runs), measured_s=measured_s, load_after=os.getloadavg(),
                 problems=problems[:20])
    correct = failed == 0 and not problems
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"facts": facts, "summary": summary, "setup_s": setup,
              "processes": [{k: v for k, v in r.items() if k not in ("output", "latencies_s")}
                            for _, r, _ in runs]}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for name, m in metrics.items():
        print(f"# {name:48s} {m['value']:.6g} {m['unit']}")
    print("# facts " + json.dumps(facts))
    print(json.dumps(summary))
    return EXIT_OK if correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
