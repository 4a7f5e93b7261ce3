"""Regenerate bench/references.json from the codecensus sources in this checkout.

    python3 bench/make_references.py

The committed file was computed from the seed code; regenerate it only when
an output is meant to change, and say so in the change.  It holds, for both
profiles of run.py: the census row, the sha256 of the `verify --json`
stdout, the dim_poly digest of every query-pool entry, and the digest of the
generated query stream for a few seeds (including the held-out seed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
from codecensus import burnside, cli, cyclestruct, submodcount  # noqa: E402
from worker import poly_digest  # noqa: E402

HELD_OUT_SEED = 7919
STREAM_SEEDS = list(range(1, 11)) + [HELD_OUT_SEED]


def main() -> None:
    refs = {"census": {}, "verify": {}, "pools": {}, "stream_digests": {}}
    for name, profile in run.PROFILES.items():
        row = burnside.count_codes(profile["census_n"])
        refs["census"][str(row.n)] = {"b": str(row.b), "G": str(row.G),
                                      "by_dim": [str(v) for v in row.by_dim]}
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--suite", "all", "--max-n",
                             str(profile["verify_max_n"]), "--json"])
        if code != 0:
            raise SystemExit(f"verify --max-n {profile['verify_max_n']} exited {code}")
        refs["verify"][str(profile["verify_max_n"])] = {
            "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
        pool = run.make_pool(profile["pool"])
        refs["pools"][profile["pool"]] = {
            "spec": run.POOLS[profile["pool"]],
            "types_digest": run.types_digest(pool),
            "digests": [poly_digest(submodcount.lattice_dim_poly(cyclestruct.CycleType(t)))
                        for t in pool],
        }
        refs["stream_digests"][name] = {
            str(seed): run.types_digest(
                [pool[i] for i in run.query_stream(seed, 0, profile["queries"], len(pool))])
            for seed in STREAM_SEEDS}
    refs["held_out_seed"] = HELD_OUT_SEED
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
