"""Command-line surface: census tables, single queries, verification suites,
oracle runs.

All big integers are serialized as decimal strings (they outgrow native
JSON numbers long before n = 40); high-precision reals are decimal strings
with an explicit precision field.  Identical invocations produce
byte-identical output.

Exit codes: 0 success, 1 asserted check failed, 2 usage error (including
n < 1, a census n >= 2^16 and an output file that cannot be opened), 3
ceiling violation (an oracle size beyond brute force, a limits
--precision below 30, or, without --no-ceiling, a count --n or table
--max-n above CENSUS_CEILING, a verify --max-n above VERIFY_CEILING, a
lattice --type of n above LATTICE_CEILING, a gauss --n times ceil(log2
--q) above GAUSS_CEILING, a limits --n above LIMITS_CEILING or a limits
--precision above PRECISION_CEILING; one line on stderr), 4 internal
error (any other exception, such as an ArithmeticError from a census
self-check; one line on stderr), 141 the reader closed stdout early
(128 + SIGPIPE, as a shell reports it; nothing on stderr).
"""

from __future__ import annotations

import argparse
import csv
import decimal
import json
import os
import sys
from functools import lru_cache

from . import boundscheck, burnside, qarith
from .cyclestruct import CycleType
from .qarith import DEFAULT_PRECISION
from .submodcount import _mirror, lattice_dim_poly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CEILING = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

SCHEMA_VERSION = 1


class CeilingError(Exception):
    pass


# The largest count --n and table --max-n, and the largest verify --max-n,
# run without --no-ceiling.  Cold runs on a 2-vCPU VM (Python 3.11, raw
# wall time; peak RSS of the census process + its one forked worker = the
# sum, which counts the pages they share twice: at count --n 80 each holds
# ~33 MB of its own and ~73 MB shared when its share of the u = 1 stage ends):
#   count --n: 60 1.3-2.5 s 39 + 36 = 75 MB, 70 7.4 s 79 + 62 = 141 MB,
#     80 18 s 169 + 117 = 286 MB; ~3x the time and ~2x the memory per
#     +10 in n;
#   table --max-n, one census pass for all its rows: 40 0.7 s 22 + 16 =
#     38 MB, 60 5.8 s 47 + 41 = 87 MB, 80 51 s 179 + 143 = 322 MB.
#   On one CPU (taskset -c 0) count --n 60 takes 2.0-3.9 s and 39 MB (2.0
#   s where two took 1.3 s), 80 26-35 s and 179 MB, table --max-n 80 112 s
#   and 192 MB.  The host's speed swings ~1.5x for minutes.  The census
#   forks at most one worker on any host (burnside._split), so the
#   two-CPU sums are the worst case: 286 MB at count --n 80, 322 MB at
#   table --max-n 80.  The ceiling stays at 80.
#   verify --suite all, three processes on two CPUs: a forked worker makes
#     the census pass for rows 1..40, splitting its u = 1 cores with a
#     worker of its own, while the verify process runs Lemma 1 and Lemmas
#     2-3.  Median wall time, peak RSS of the verify process + the pass
#     worker + its core worker: max-n 800 0.49 s 23 + 18 + 16 MB, 1000
#     0.53 s 23 + 18 + 16 MB, 1200 0.74 s 23 + 18 + 16 MB, 4000 2.3 s
#     24 + 18 + 16 MB (the pass made first, in the verify process: 0.53,
#     0.54, 0.75 and 2.5 s, 23 + 16 MB, and 28 + 16 MB at 4000).  Up to
#     max-n ~1200 the pass (~0.4 s) sets the time; check_lemma1's one sweep
#     of G(n, 2) and u_n over n <= max-n takes 0.1 s at 1000 and 2 s at
#     4000, its integers growing as n^2 bits; beyond ~1200 the pass worker
#     waits, holding its rows, until the verify process reads them.
CENSUS_CEILING = 80
VERIFY_CEILING = 1000

# The largest n of a lattice --type run without --no-ceiling.  Cold runs,
# one process each, on the same VM (raw wall time and peak RSS):
#   one cycle of length n: 1536 0.10-0.14 s 15 MB, 2048 0.8 s 17 MB, 4096
#     5.4-6.1 s 24 MB; 8192 65 s (~10x per doubling; 16384 had not finished
#     after 60 s);
#   n fixed points, the largest lattice of S_n: 512 0.8 s 36 MB, 1024
#     8.6 s 170 MB, 1536 39 s 515 MB (with the decimal strings made from
#     shared powers of two, of the lower half only: 2.4-2.6 s, 25-32 s and
#     113 s before; 5.0 s, 57-63 s and 267 s before the walk's pairwise
#     fold).  The decimal output is still the larger part: in-process, at
#     512 the lattice takes 0.24 s and its strings 0.47 s, at 1024 3.8 s
#     and 5.2 s;
#   k 3-cycles, wide counts from many equal cycles: k = 200 (n = 600)
#     1.9-2.3 s 20 MB, 300 (n = 900) 13.8-19 s 32 MB, 400 (n = 1200) 69 s
#     54 MB, 512 (n = 1536) 232 s 96 MB (~5-7x per 300 more points), nearly
#     all of it add_product's convolutions, which the fold does not touch;
#   the benchmark's query pool, random types with n <= 1536: 1.4 ms median
#     and 2.4 ms 90th percentile per query after start-up (the benchmark's
#     host-scaled figures); its slowest type, n = 1465, 0.07-0.10 s 17 MB,
#     mostly interpreter start.
LATTICE_CEILING = 1536

# The largest n * ceil(log2 q) of a gauss run, and the largest n of a limits
# run, without --no-ceiling.  G(n, q) has ~n^2 log2(q) / 4 bits, so n *
# ceil(log2 q) bounds its size, and at a given value q = 2 with --d n/2 is
# the slowest run.  Cold runs, one process each, on the same VM (raw wall
# time and peak RSS):
#   gauss at the value 4000: q = 2, n = 4000: 1.3 s 21 MB, --d 2000 27 s
#     21 MB; q = 3, n = 2000: 2.6 s, --d 1000 4.6 s; q = 4, n = 2000: 0.5 s;
#     q = 251, n = 500: 0.3 s, --d 250 0.5 s;
#   gauss above it: G(n, 2) at n = 8000 10-11 s 39 MB; G(n, 3) at n = 4000
#     33 s; G(n, 2, n/2) ~12x per doubling of n (2000 2.1 s, 3000 9.7 s);
#   limits --n (G(n, 2), then u_n): 2000 0.2 s, 4000 1.0 s, 8000 8.7 s
#     38 MB, 10000 19 s 48 MB (~9x per doubling).
GAUSS_CEILING = 4000
LIMITS_CEILING = 10000

# The largest limits --precision run without --no-ceiling.  For odd n the
# power 2^(-n^2/4) is not exact, and mpmath's mpf_pow for it grows ~4x per
# doubling of the digits; for even n it is exact.  Cold runs, one process
# each, on the same VM, in a slower spell than the table above (limits
# --n 10000 at the default precision took 24-26 s here):
#   --n 10: 25000 0.17 s, 50000 0.22 s, 100000 0.22 s, 200000 0.5 s;
#   --n 11: 25000 0.67 s, 50000 2.2-2.8 s 20 MB, 75000 6.9 s, 100000
#     9.4 s, 200000 37 s 26 MB;
#   --n 10000: 25000 23 s, 50000 28 s 46 MB, 75000 23 s, 100000 25 s;
#   --n 9999: 25000 28 s, 50000 28-32 s 46 MB, 75000 33 s, 100000 37 s.
PRECISION_CEILING = 50000


def _check_ceiling(args, flag: str, n: int, limit: int) -> None:
    if n > limit and not args.no_ceiling:
        raise CeilingError(f"{flag} is limited to {limit} (the run time grows "
                           f"steeply above it); got {n}, pass --no-ceiling to "
                           f"run it anyway")


def _mpf_str(value, precision: int) -> str:
    # mpmath is imported where a real is made or printed, as cmd_oracle
    # imports the oracle: its import takes ~20 ms (python -X importtime,
    # cumulative, median of 15 cold processes on a 2-vCPU VM, bytecode
    # cached) where this module with every package module it loads takes
    # ~7 ms, and the census, lattice, gauss and oracle need no real
    import mpmath

    return mpmath.nstr(value, precision, strip_zeros=False)


# the exact context of _decimal_str: every digit kept, no exponent bound
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


@lru_cache(maxsize=None)
def _two_to(bits: int) -> decimal.Decimal:
    """2^bits as an exact Decimal, made once per process for each power
    _decimal_str splits at."""
    return _EXACT.power(2, bits)


def _decimal_str(value: int) -> str:
    """Decimal digits of a nonnegative int of any size.  str() refuses ints
    of more than 4300 digits and takes quadratic time; splitting by powers
    of two and recombining in the decimal module (fast multiplication at
    this size) takes a fraction of a second for a million digits.  Each
    split is at 2^(2^k) bits, the largest power of two below the bit
    length, so every count of a run shares the powers (_two_to)."""
    if value.bit_length() <= 4096:
        return str(value)

    def rec(v: int, bits: int) -> decimal.Decimal:
        if bits <= 4096:
            return decimal.Decimal(v)
        half = 1 << (bits - 1).bit_length() - 1
        high = _EXACT.multiply(rec(v >> half, bits - half), _two_to(half))
        return _EXACT.add(high, rec(v & ((1 << half) - 1), half))

    return str(rec(value, value.bit_length()))


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _census_record(row: burnside.CensusRow, by_dim: bool) -> dict:
    rec = {
        "schema": SCHEMA_VERSION,
        "n": row.n,
        "b": str(row.b),
        "G": str(row.G),
        "correction": _mpf_str(row.correction(), 15),
        "precision": DEFAULT_PRECISION,
    }
    if by_dim:
        rec["by_dim"] = [str(v) for v in row.by_dim]
    return rec


def cmd_count(args) -> int:
    _check_ceiling(args, "count --n", args.n, CENSUS_CEILING)
    row = burnside.count_codes(args.n)
    _emit(_census_record(row, args.by_dim))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.max_n < 1:
        raise ValueError(f"max-n must be >= 1, got {args.max_n}")
    _check_ceiling(args, "table --max-n", args.max_n, CENSUS_CEILING)
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    try:
        records = [_census_record(row, False) for row in burnside.census_rows(args.max_n)]
        if args.format == "csv":
            writer = csv.DictWriter(out, ("n", "b", "G", "correction"), extrasaction="ignore")
            writer.writeheader()
            writer.writerows(records)
        else:
            json.dump({"schema": SCHEMA_VERSION, "rows": records}, out, indent=2)
            out.write("\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_gauss(args) -> int:
    _check_ceiling(args, "gauss --n times ceil(log2 --q)",
                   args.n * (args.q - 1).bit_length(), GAUSS_CEILING)
    if args.d is None:
        print(_decimal_str(qarith.gauss_total(args.n, args.q)))
    else:
        print(_decimal_str(qarith.gauss_binomial(args.n, args.d, args.q)))
    return EXIT_OK


def cmd_lattice(args) -> int:
    ct = CycleType.parse(args.type)
    _check_ceiling(args, "lattice --type n", ct.n, LATTICE_CEILING)
    poly = lattice_dim_poly(ct)
    _emit({
        "schema": SCHEMA_VERSION,
        "type": str(ct),
        "n": ct.n,
        "lattice_size": _decimal_str(sum(poly)),
        # a palindrome: its lower half converted, the strings mirrored
        "dim_poly": _mirror([_decimal_str(c) for c in poly[:ct.n // 2 + 1]], ct.n),
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_n < 1:
        raise ValueError(f"max-n must be >= 1, got {args.max_n}")
    _check_ceiling(args, "verify --max-n", args.max_n, VERIFY_CEILING)
    results = boundscheck.run_suite(args.suite, args.max_n)
    failed = any(r.status == boundscheck.FAIL for r in results)
    if args.json:
        _emit({"schema": SCHEMA_VERSION, "note": boundscheck.LOG_BASE_NOTE,
               "results": [r.to_json_dict() for r in results]})
    else:
        print(f"# verification suite '{args.suite}' (max-n {args.max_n}; "
              f"{boundscheck.LOG_BASE_NOTE})")
        for r in results:
            lo, hi = r.n_range
            rng = str(lo) if lo == hi else f"{lo}..{hi}"
            line = f"{r.status:12s} {r.name} [n={rng}]"
            if r.counterexample:
                line += f"  counterexample: {r.counterexample}"
            print(line)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle  # the brute-force reference stays out of every other command

    if args.classify:
        if args.n > oracle.CLASSIFY_CEILING:
            raise CeilingError(
                f"classification is limited to n <= {oracle.CLASSIFY_CEILING} "
                f"({oracle.CLASSIFY_CEILING + 1}+ needs all n! permutation "
                f"images per subspace); got n={args.n}")
        _emit(oracle.classify(args.n).to_json_dict())
    else:
        if args.n > oracle.ENUM_CEILING:
            raise CeilingError(
                f"enumeration is limited to n <= {oracle.ENUM_CEILING}; "
                f"got n={args.n}")
        subspaces = oracle.enum_subspaces(args.n)
        _emit({"schema": SCHEMA_VERSION, "n": args.n,
               "subspace_count": str(len(subspaces))})
    return EXIT_OK


def cmd_limits(args) -> int:
    if args.precision < 30:
        raise CeilingError(f"precision must be >= 30, got {args.precision}")
    _check_ceiling(args, "limits --precision", args.precision, PRECISION_CEILING)
    _check_ceiling(args, "limits --n", args.n, LIMITS_CEILING)
    u = qarith.scaled_u(args.n, 2, args.precision)
    _emit({
        "schema": SCHEMA_VERSION,
        "n": args.n,
        "u": _mpf_str(u, args.precision),
        "precision": args.precision,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codecensus",
        description="Exact census of inequivalent binary codes and the "
                    "accompanying verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ceiling = argparse.ArgumentParser(add_help=False)
    ceiling.add_argument("--no-ceiling", action="store_true",
                         help="run above the ceiling on n (and on limits --precision)")

    p = sub.add_parser("count", parents=[ceiling], help="census row at one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--by-dim", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", parents=[ceiling], help="census table for n = 1..N")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("gauss", parents=[ceiling], help="subspace counts G(n,q) / G(n,q,d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int)
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("lattice", parents=[ceiling],
                       help="invariant-subspace count of a cycle type")
    p.add_argument("--type", required=True, metavar="L1,L2,...")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify", parents=[ceiling], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=boundscheck.SUITES)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force enumeration / classification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classify", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("limits", parents=[ceiling], help="scaled subspace count u_n to P digits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p.set_defaults(func=cmd_limits)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter's final flush of what is left must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return EXIT_BROKEN_PIPE
    except CeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
