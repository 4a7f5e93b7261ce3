"""One cold benchmark process: import codecensus, run one workload once, and
print a JSON result as the last line of stdout.

The job arrives as JSON on stdin (see run.py).  The timed region covers only
the calls into codecensus; checking the outputs happens after it.  While it
runs, hostspeed.Sampler measures the host's speed; the time its samples take
is left out of every timing, and run.py scales the timings by the speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import resource
import sys

import codecensus  # noqa: F401  (imported first: this is the cost setup_s measures)
from codecensus import burnside, cli, cyclestruct, submodcount

import hostspeed


def poly_digest(poly) -> str:
    """sha256 of a dimension polynomial, coefficients in hex."""
    return hashlib.sha256(",".join(format(c, "x") for c in poly).encode()).hexdigest()


def query_invariants(parts, poly, size) -> bool:
    """Cheap independent checks on one lattice query: the counts sum to the
    lattice size, there are n + 1 of them, the sequence is palindromic
    (duality), and the 1-dimensional invariant subspaces are the 2^r - 1
    nonzero vectors constant on cycles."""
    n = sum(parts)
    return (len(poly) == n + 1 and sum(poly) == size and poly[0] == 1
            and tuple(poly) == tuple(reversed(poly))
            and poly[1] == (1 << len(parts)) - 1)


def run_census(job, tracer, sampler):
    ctx = tracer.span("bench.census") if tracer else contextlib.nullcontext()
    with sampler:
        cpu0, start = sampler.cpu(), sampler.clock()
        with ctx:
            row = burnside.count_codes(job["census_n"])
        wall, cpu = sampler.clock() - start, sampler.cpu() - cpu0
    out = {"n": row.n, "b": str(row.b), "G": str(row.G), "by_dim": [str(v) for v in row.by_dim]}
    return wall, cpu, [wall], out


def run_verify(job, tracer, sampler):
    argv = ["verify", "--suite", "all", "--max-n", str(job["verify_max_n"]), "--json"]
    buf = io.StringIO()
    ctx = tracer.span("bench.verify") if tracer else contextlib.nullcontext()
    with sampler:
        cpu0, start = sampler.cpu(), sampler.clock()
        with ctx, contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        wall, cpu = sampler.clock() - start, sampler.cpu() - cpu0
    data = buf.getvalue().encode()
    out = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data)}
    return wall, cpu, [wall], out


def query_child(parts, tracer, sampler) -> dict:
    """One lattice query in this (forked, cold) process, timed and checked."""
    mark = tracer.mark() if tracer else None
    ctx = tracer.span("bench.query") if tracer else contextlib.nullcontext()
    with sampler:
        cpu0, start = sampler.cpu(), sampler.clock()
        try:
            with ctx:
                ct = cyclestruct.CycleType(parts)
                poly = submodcount.lattice_dim_poly(ct)
                size = submodcount.lattice_size(ct)
            error = None
        except Exception as exc:  # a raising query counts as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        latency, cpu = sampler.clock() - start, sampler.cpu() - cpu0
    if error is None:
        out = {"digest": poly_digest(poly), "invariants_ok": query_invariants(parts, poly, size)}
    else:
        out = {"digest": None, "invariants_ok": False, "error": error}
    return {"out": out, "latency_s": latency, "cpu_s": cpu, "samples": sampler.samples,
            "trace": tracer.delta(mark) if tracer else None}


def cold_query(parts, tracer) -> dict:
    """Run query_child in a forked child, so that every query starts with
    the cold caches of a `codecensus lattice --type` call, whatever queries
    came before it; the child inherits the imported package."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(query_child(parts, tracer, hostspeed.Sampler()), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"out": {"digest": None, "invariants_ok": False,
                        "error": f"query process ended with status {status}"},
                "latency_s": None, "cpu_s": 0.0, "samples": [], "trace": None}
    return pickle.loads(data)


def run_queries(job, tracer, sampler):
    out, latencies, wall, cpu = [], [], 0.0, 0.0
    for parts in job["types"]:
        result = cold_query(tuple(parts), tracer)
        out.append(result["out"])
        sampler.samples.extend(result["samples"])
        if tracer and result["trace"]:
            tracer.merge(result["trace"])
        if result["latency_s"] is not None:
            latencies.append(result["latency_s"])
            wall += result["latency_s"]
            cpu += result["cpu_s"]
    return wall, cpu, latencies, out


WORKLOADS = {"census": run_census, "verify": run_verify, "lattice_queries": run_queries}


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    sampler = hostspeed.Sampler()
    error = None
    try:
        wall, cpu, latencies, output = WORKLOADS[job["workload"]](job, tracer, sampler)
    except Exception as exc:  # the operation failed; the parent counts it
        wall, cpu, latencies, output = None, None, [], None
        error = f"{type(exc).__name__}: {exc}"
    result = {
        "wall_s": wall, "cpu_s": cpu, "latencies_s": latencies, "output": output,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        "kernel_s": sampler.kernel_s() if sampler.samples else None,
        "speed_samples": len(sampler.samples),
        "error": error,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        stdout_bytes = output.get("stdout_bytes", 0) if isinstance(output, dict) else 0
        result["trace"]["counts"]["cli.main.stdout_bytes"] = stdout_bytes
        tracer.write(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
