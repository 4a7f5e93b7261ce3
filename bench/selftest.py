"""Fast self-test of the benchmark at tiny sizes (under a minute).

    python3 bench/selftest.py

Checks that every workload passes on the references, prints exactly the
metrics BENCHMARK.json names, that the traced-run invariants hold, that a
deliberately corrupted reference value is reported as a failed operation,
and that a directory without the sources exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from spans import partition_count

WORKLOADS = ("census", "verify", "lattice_queries")
failures: list[str] = []


def check(cond: bool, message: str) -> None:
    if not cond:
        failures.append(message)
        print(f"FAIL {message}")


def bench(workload: str, trace: int, references=run.REFERENCES, root=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace), "--profile", "tiny", "--references", str(references)],
        capture_output=True, text=True, cwd=root, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = bench(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0 and result is not None and result["correct"], f"{label}: not correct")
            if result is None:
                continue
            check(result["failed"] == 0 and result["attempted"] >= 1, f"{label}: failed operations")
            check(list(result["metrics"]) == names[trace], f"{label}: metric names differ from BENCHMARK.json")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                layer = {"census": "submodcount.component_lattice.self_s",
                         "verify": "cli.main.self_s",
                         "lattice_queries": "gf2poly.factor_cyclic.self_s"}[workload]
                check(m[layer] > 0, f"{label}: no self time for {layer}")
                if workload == "census":
                    check(m["cyclestruct.cycle_types.count"] == partition_count(run.PROFILES["tiny"]["census_n"]),
                          f"{label}: cycle types visited differ from p(n)")

    # a corrupted reference value must show up as a failed operation
    refs = json.loads(run.REFERENCES.read_text())
    refs["census"]["8"]["b"] = str(int(refs["census"]["8"]["b"]) + 1)
    refs["verify"]["12"]["sha256"] = "0" * 64
    first = run.query_stream(1, 0, run.PROFILES["tiny"]["queries"], run.POOLS["tiny"]["size"])[0]
    refs["pools"]["tiny"]["digests"][first] = "0" * 64
    run.OUT.mkdir(exist_ok=True)
    corrupt = run.OUT / "corrupt-references.json"
    corrupt.write_text(json.dumps(refs))
    for workload in WORKLOADS:
        code, result = bench(workload, 0, references=corrupt)
        check(code == 1 and result is not None and not result["correct"] and result["failed"] >= 1,
              f"{workload}: corrupted reference not reported as a failed operation")

    # without the sources the benchmark must fail before printing a result
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, result = bench("census", 0, references=bare / "bench" / "references.json", root=bare)
    check(code != 0 and result is None, "bare directory: expected a non-zero exit and no result")
    shutil.rmtree(bare)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
