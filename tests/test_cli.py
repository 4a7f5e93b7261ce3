import csv
import io
import json
import os
import random
import subprocess
import sys
from hashlib import sha256
from math import factorial
from pathlib import Path

import mpmath
import pytest

from codecensus import burnside, cli
from codecensus.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CEILING,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from codecensus.qarith import gauss_total


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCount:
    def test_n4(self, capsys):
        code, out = run_cli(capsys, "count", "--n", "4")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["b"] == "16"
        assert rec["G"] == "67"
        assert rec["schema"] == 1

    def test_by_dim(self, capsys):
        code, out = run_cli(capsys, "count", "--n", "4", "--by-dim")
        rec = json.loads(out)
        assert rec["by_dim"] == ["1", "4", "6", "4", "1"]

    def test_big_integers_are_strings(self, capsys):
        _, out = run_cli(capsys, "count", "--n", "25")
        rec = json.loads(out)
        assert isinstance(rec["b"], str) and isinstance(rec["G"], str)
        int(rec["b"]), int(rec["G"])  # parse back losslessly

    def test_count_started_with_sigchld_ignored(self, capsys):
        # an ignored SIGCHLD is inherited across exec; census then makes the
        # pass in one process, since the kernel would reap a worker first
        import signal

        _, expected = run_cli(capsys, "count", "--n", "30")
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "codecensus.cli", "count", "--n", "30"],
            preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN),
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == expected


class TestGauss:
    def test_total(self, capsys):
        code, out = run_cli(capsys, "gauss", "--n", "2", "--q", "2")
        assert code == EXIT_OK and out.strip() == "5"

    def test_binomial(self, capsys):
        _, out = run_cli(capsys, "gauss", "--n", "4", "--q", "2", "--d", "2")
        assert out.strip() == "35"

    def test_n3000(self, capsys):
        # far beyond the interpreter's recursion limit and its 4300-digit
        # limit on converting ints to decimal strings
        code, out = run_cli(capsys, "gauss", "--n", "3000", "--q", "2")
        assert code == EXIT_OK
        digits = out.strip()
        assert digits.isdigit() and len(digits) == 677319
        assert int(digits[-30:]) == gauss_total(3000, 2) % 10 ** 30

    @pytest.mark.parametrize("bits", [4097, 8192, 8193, 20000, 65537])
    def test_decimal_str_is_str(self, bits):
        # around the 4096-bit leaf and at split points 2^(2^k) apart,
        # against str() with the interpreter's digit limit lifted
        value = random.Random(bits).getrandbits(bits) | 1 << bits - 1
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert cli._decimal_str(value) == str(value)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_bad_q_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "gauss", "--n", "2", "--q", "6")
        assert code == EXIT_USAGE

    def test_q_above_the_bound_exits_2_at_once(self):
        # 2^61 - 1 is prime: trial division to its square root would run
        # for minutes, so the bound must reject it before factoring
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "codecensus.cli", "gauss", "--n", "1",
             "--q", str(2 ** 61 - 1)],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: q must be below 2^32")
        assert proc.stdout == ""


class TestLattice:
    def test_transposition_type(self, capsys):
        _, out = run_cli(capsys, "lattice", "--type", "2,1,1")
        rec = json.loads(out)
        assert rec["lattice_size"] == str(2 * 16 - 5)
        # dimension profile confirmed by the brute-force oracle at n=4
        assert [int(c) for c in rec["dim_poly"]] == [1, 7, 11, 7, 1]

    def test_counts_beyond_4300_digits(self, capsys):
        # the identity on 300 points fixes all G(300, 2) subspaces
        code, out = run_cli(capsys, "lattice", "--type", ",".join(["1"] * 300))
        assert code == EXIT_OK
        size = json.loads(out)["lattice_size"]
        assert len(size) > 4300
        assert int(size[-30:]) == gauss_total(300, 2) % 10 ** 30

    def test_unsorted_input_accepted(self, capsys):
        _, out = run_cli(capsys, "lattice", "--type", "1,2,1")
        assert json.loads(out)["type"] == "2,1,1"


class TestTable:
    def test_csv_round_trip(self, capsys):
        code, out = run_cli(capsys, "table", "--max-n", "10")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        for row in rows:
            n = int(row["n"])
            b, G = int(row["b"]), int(row["G"])
            with mpmath.workdps(40):
                recomputed = mpmath.mpf(factorial(n) * b - G) / mpmath.mpf(G)
                printed = mpmath.mpf(row["correction"])
                assert abs(recomputed - printed) <= abs(printed) * mpmath.mpf("1e-13")

    def test_json_format(self, capsys):
        _, out = run_cli(capsys, "table", "--max-n", "3", "--format", "json")
        rec = json.loads(out)
        assert [r["b"] for r in rec["rows"]] == ["2", "4", "8"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _ = run_cli(capsys, "table", "--max-n", "4", "--out", str(path))
        assert code == EXIT_OK
        assert path.read_text().splitlines()[0] == "n,b,G,correction"

    def test_unwritable_out_is_usage_error_before_census(self, capsys, tmp_path,
                                                         monkeypatch):
        def no_census(rows):
            raise AssertionError("census ran before the output was opened")

        monkeypatch.setattr(burnside, "census", no_census)
        monkeypatch.setattr(burnside, "_ROWS", {})  # rows cached earlier hide the order
        path = tmp_path / "missing" / "table.csv"
        code = main(["table", "--max-n", "3", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not path.exists()


class TestVerify:
    def test_lemma1_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "lemma1",
                            "--max-n", "210")
        assert code == EXIT_OK
        assert "pass" in out and "lemma1" in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "bound4",
                            "--max-n", "6", "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert all(r["status"] == "pass" for r in rec["results"])

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "verify", "--suite", "lemma23",
                           "--max-n", "6", "--json")
        _, second = run_cli(capsys, "verify", "--suite", "lemma23",
                            "--max-n", "6", "--json")
        assert first == second


class TestOutputContract:
    """The stdout bytes of five census-heavy commands, three lattice
    queries (the second the slowest type of the benchmark's query pool,
    n = 1465; the third the identity on 300 points, whose counts pass
    _decimal_str's splits), the lemma-1 suite past its limit checks at
    n = 200, 201 and at VERIFY_CEILING, and each suite of verify all alone
    at max-n 40, so a change to an all digest traces to one suite, pinned
    by sha256: the code may change how it computes, never what it prints.
    count at n = 45 is a single-row pass whose top stage, u = 45, spreads
    each choice over the six odd divisors of 45."""

    @pytest.mark.parametrize("argv,digest", [
        (("count", "--n", "40", "--by-dim"),
         "3ada9de0d458212b53334030820a47df14b3008ac7884b9e1ad89cb02c7716c1"),
        (("count", "--n", "45", "--by-dim"),
         "2ad4099d369c68f102e1057215a8d1b8a6e980b7f2b0be3c7ebab8114d618e06"),
        (("verify", "--suite", "all", "--max-n", "30", "--json"),
         "904e1d9b35e8e72aeef567547ba673746522e52adb8dace417e72c21ec9c0331"),
        (("table", "--max-n", "40", "--format", "csv"),
         "d358ec89cd56eda9f3c5556a7476d01128eff3a230905d755c47e6ff4a56c59d"),
        (("verify", "--suite", "all", "--max-n", "40", "--json"),
         "be93a8c13a29521998781cdf824e71af44fc025827a29806bf058d2d515a7a73"),
        (("lattice", "--type", "12,6,5,3,2,1,1"),
         "a58654462400df5a48cda80ae33c763e280fad171c74a62564ff11a563fa6e78"),
        (("lattice", "--type", "721,357,177,128,39,22,14,5,1,1"),
         "77ed3b369f34cf281504bd9fecc27d6944ff3e7d27567235b2881dbd658682f8"),
        (("verify", "--suite", "lemma1", "--max-n", "201", "--json"),
         "f2fc8960d32689b1bd088950266fca5b88e23c29462c972ef06afbcd9816d941"),
        (("verify", "--suite", "lemma1", "--max-n", "1000", "--json"),
         "4d90200ec37d00a53d261576d1644bfe90c5aaeee8740bd2decfebcb5eb01b19"),
        (("verify", "--suite", "lemma1", "--max-n", "40", "--json"),
         "8ba809c58aba796397ba88aa1ce15a784aea7f7c88e7121cf57356cf2cd0bfa1"),
        (("verify", "--suite", "lemma23", "--max-n", "40", "--json"),
         "f0a526cd09a3d0421dd3a8e66398cccdac3d82999278bc168b31a82b11475cb0"),
        (("verify", "--suite", "bound4", "--max-n", "40", "--json"),
         "e3d79a87d667b3b968e39fbeaf36d66528abeb9dec972c8e18fe79b3bac11d5f"),
        (("verify", "--suite", "dims", "--max-n", "40", "--json"),
         "4b3af70af41eaffd7859baa7ecb7d39532ef0394febf22c6a5dc7badf2080b06"),
        (("verify", "--suite", "dclass", "--max-n", "40", "--json"),
         "781570206db9bffc34ec9b894ae03255e3846eb9ebeea9069c107cfe8f42f377"),
        (("lattice", "--type", ",".join(["1"] * 300)),
         "e031531b33412c49eea53b66aa701f4c665ba22c8f2891e64b43a5b327fb923f"),
    ], ids=["count", "count-45", "verify", "table-40", "verify-40", "lattice", "lattice-1465",
            "verify-lemma1", "verify-lemma1-1000", "verify-lemma1-40", "verify-lemma23-40",
            "verify-bound4-40", "verify-dims-40", "verify-dclass-40", "lattice-1x300"])
    def test_stdout_digest(self, argv, digest):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "codecensus.cli", *argv],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert sha256(proc.stdout).hexdigest() == digest


class TestOracle:
    def test_enumeration(self, capsys):
        _, out = run_cli(capsys, "oracle", "--n", "4")
        assert json.loads(out)["subspace_count"] == "67"

    def test_classify(self, capsys):
        _, out = run_cli(capsys, "oracle", "--n", "3", "--classify")
        rec = json.loads(out)
        assert rec["b"] == 8

    def test_ceiling_exit_code(self, capsys):
        code, _ = run_cli(capsys, "oracle", "--n", "9")
        assert code == EXIT_CEILING
        code, _ = run_cli(capsys, "oracle", "--n", "6", "--classify")
        assert code == EXIT_CEILING


class TestLimits:
    def test_u200(self, capsys):
        _, out = run_cli(capsys, "limits", "--n", "200", "--precision", "40")
        rec = json.loads(out)
        assert rec["u"].startswith("7.3719688")
        assert rec["precision"] == 40

    def test_n3000(self, capsys):
        code, out = run_cli(capsys, "limits", "--n", "3000")
        assert code == EXIT_OK
        assert json.loads(out)["u"].startswith("7.37196880146")

    def test_low_precision_is_ceiling_error(self, capsys):
        code, _ = run_cli(capsys, "limits", "--n", "10", "--precision", "5")
        assert code == EXIT_CEILING


class TestCeiling:
    """Each guarded flag on both sides of a lowered limit; the real limits
    would take minutes to cross."""

    @pytest.mark.parametrize("argv, limit_name, flag", [
        (["count", "--n", "{n}"], "CENSUS_CEILING", "count --n"),
        (["table", "--max-n", "{n}"], "CENSUS_CEILING", "table --max-n"),
        (["verify", "--suite", "lemma1", "--max-n", "{n}"], "VERIFY_CEILING",
         "verify --max-n"),
        (["lattice", "--type", "{n}"], "LATTICE_CEILING", "lattice --type n"),
        (["gauss", "--n", "{n}", "--q", "2"], "GAUSS_CEILING",
         "gauss --n times ceil(log2 --q)"),
        (["limits", "--n", "{n}"], "LIMITS_CEILING", "limits --n"),
    ])
    def test_refused_above_the_limit_unless_allowed(self, capsys, monkeypatch,
                                                    argv, limit_name, flag):
        self.check_both_sides(capsys, monkeypatch, argv, limit_name, flag, 11)

    def test_precision_refused_above_the_limit_unless_allowed(self, capsys,
                                                              monkeypatch):
        # lowered to 41, not 11: a precision below 30 is refused on its own
        self.check_both_sides(capsys, monkeypatch,
                              ["limits", "--n", "11", "--precision", "{n}"],
                              "PRECISION_CEILING", "limits --precision", 41)

    @staticmethod
    def check_both_sides(capsys, monkeypatch, argv, limit_name, flag, limit):
        monkeypatch.setattr(cli, limit_name, limit)
        at, above = ([a.format(n=n) for a in argv] for n in (limit, limit + 1))
        code = main(above)
        captured = capsys.readouterr()
        assert code == EXIT_CEILING == 3
        assert captured.err == (f"error: {flag} is limited to {limit} (the run time "
                                f"grows steeply above it); got {limit + 1}, pass "
                                "--no-ceiling to run it anyway\n")
        assert captured.out == ""
        assert main(at) == EXIT_OK
        at_out = capsys.readouterr().out
        assert main(above + ["--no-ceiling"]) == EXIT_OK
        above_out = capsys.readouterr().out
        assert at_out and above_out and at_out != above_out

    def test_refused_table_writes_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "CENSUS_CEILING", 2)
        path = tmp_path / "table.csv"
        assert main(["table", "--max-n", "3", "--out", str(path)]) == EXIT_CEILING
        assert not path.exists()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--bogus"])
        assert exc.value.code == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_n_past_the_census_fields(self, capsys):
        # the census packs multiplicities up to n into 16-bit fields
        assert main(["count", "--n", "65536", "--no-ceiling"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: n must be below 2^16 = 65536, got 65536\n"
        assert captured.out == ""


class TestNonPositiveN:
    @pytest.mark.parametrize("argv", [
        ["count", "--n", "0"],
        ["count", "--n", "-3"],
        ["table", "--max-n", "0"],
        ["verify", "--suite", "all", "--max-n", "0"],
        ["oracle", "--n", "0"],
        ["gauss", "--n", "-1", "--q", "2"],
        ["verify", "--suite", "lemma1", "--max-n", "-5"],
        ["verify", "--suite", "lemma23", "--max-n", "0"],
        ["verify", "--suite", "dclass", "--max-n", "0"],
    ])
    def test_is_usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""


class TestInternalErrors:
    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_count", broken)
        code = main(["count", "--n", "4"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL == 4
        assert captured.err == "error: RuntimeError: boom\n"
        assert captured.out == ""

    def test_census_self_check_exits_4(self, capsys, monkeypatch):
        real = burnside.fixed_point_walk

        def off_by_one(core, fs, d):
            for f, poly in real(core, fs, d):
                if core + (1,) * f == (1, 1, 1, 1):
                    poly = poly[:2] + [poly[2] + 1] + poly[3:]
                yield f, poly

        monkeypatch.setattr(burnside, "fixed_point_walk", off_by_one)
        monkeypatch.setattr(burnside, "_ROWS", {})
        code = main(["count", "--n", "4"])
        err = capsys.readouterr().err
        assert code == EXIT_INTERNAL
        assert err.startswith("error: ArithmeticError: dimension-2") and err.count("\n") == 1


class TestMpmathLoading:
    def test_only_commands_that_print_reals_load_mpmath(self):
        # lattice, gauss and oracle print exact integers; count prints the
        # correction n! b / G - 1, a real
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        script = """
import contextlib, io, sys
from codecensus.cli import main
for argv in (["lattice", "--type", "3,2,1"], ["gauss", "--n", "5", "--q", "2"],
             ["oracle", "--n", "3"], ["count", "--n", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(argv[0], code, "mpmath" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["lattice 0 False", "gauss 0 False",
                                            "oracle 0 False", "count 0 True"]


class TestBrokenPipe:
    def test_reader_closing_stdout_exits_141_silently(self):
        # G(2000, 2) has ~300,000 digits, more than a pipe buffer holds, so
        # the write fails once the reader has gone
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "codecensus.cli", "gauss", "--n", "2000", "--q", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_BROKEN_PIPE == 141
        assert err == b""
