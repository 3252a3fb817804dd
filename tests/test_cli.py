"""Batch CLI: flags, exit codes, report formats, selftest hook."""

import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from qtheta import identities, kernel_backend, selftest
from qtheta.cli import _summary_lines, main
from qtheta.series import QExpansion


class TestVerifyCommand:
    def test_small_sweep_exits_zero(self, capsys):
        rc = main(["verify", "theorem", "--k-min", "2", "--k-max", "5",
                   "--delta", "both", "--order", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 8  # one line per report
        assert all(l.startswith("PASS theorem") for l in lines)

    def test_degenerate_k1(self, capsys):
        rc = main(["verify", "all", "--k-max", "1", "--order", "5"])
        assert rc == 0

    def test_usage_error_k_max_zero(self, capsys):
        assert main(["verify", "theorem", "--k-max", "0"]) == 2

    def test_usage_error_bad_selector(self):
        assert main(["verify", "nonsense"]) == 2

    def test_usage_error_k_min_above_k_max(self):
        assert main(["verify", "theorem", "--k-min", "5", "--k-max", "3"]) == 2

    def test_usage_error_bad_flag(self):
        assert main(["verify", "theorem", "--banana"]) == 2

    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_comma_separated_subset(self, capsys):
        rc = main(["verify", "bridges,k3", "--order", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        idents = [l.split()[1] for l in out.splitlines() if l.startswith("PASS")]
        assert idents == ["bridge-t0", "bridge-t1", "k3"]

    def test_delta_selector(self, capsys):
        rc = main(["verify", "theorem", "--k-min", "3", "--k-max", "3",
                   "--delta", "1", "--order", "15"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delta=1" in out and "delta=0" not in out

    def test_text_lines_do_not_depend_on_the_worker_count(self, capsys):
        # the pool runs each meq1 orbit as one task, and the lemd jobs of
        # one order as one, and prints a line once every report before it
        # is in
        def lines(jobs):
            assert main(["verify", "meq1,lemd", "--k-min", "1", "--k-max", "8",
                         "--order", "12", "--jobs", jobs]) == 0
            return [re.sub(r"  \[[0-9.]+ ms\]$", "", line)
                    for line in capsys.readouterr().out.splitlines()]

        serial = lines("1")
        assert len(serial) == 34 + 64  # meq1 reports, then lemd
        assert serial == lines("2")

    def test_jet_degree_validation(self):
        assert main(["verify", "meq1", "--k-max", "2", "--jet-degree", "1"]) == 2

    def test_jet_degree_is_not_checked_for_lem22(self, capsys):
        # lem22 builds its own jets and never reads --jet-degree
        assert main(["verify", "lem22", "--k-max", "2", "--order", "6",
                     "--jet-degree", "1"]) == 0
        assert "jet-degree" not in capsys.readouterr().err


class TestSummaryLine:
    def test_names_backends(self, capsys):
        rc = main(["verify", "tan-sum,meq1,lem2", "--k-min", "12", "--k-max", "14",
                   "--order", "5"])
        err = capsys.readouterr().err
        assert rc == 0
        lines = [l for l in err.splitlines() if l.startswith("#")]
        assert len(lines) == 1
        assert f"kernel {kernel_backend}" in lines[0]

    def test_all_runs_every_identity_above_twelve(self, capsys):
        rc = main(["verify", "all", "--k-min", "13", "--k-max", "13", "--order", "8"])
        cap = capsys.readouterr()
        assert rc == 0
        # theorem 2, lemd 25, lem2 2, meq1 5, lem22 4, bridges 2, tan-sum 2, k3 1
        assert len(cap.out.splitlines()) == 43
        assert cap.err.startswith("# 43 reports, 0 failures")
        assert "skipped" not in cap.err

    @pytest.mark.parametrize("argv, expect, points", [
        (["bridges,k3,tan-sum", "--k-min", "2", "--k-max", "3", "--delta", "0",
          "--order", "15", "--jobs", "1"],
         {"bridge-t0": 1, "bridge-t1": 1, "k3": 1, "tan-sum": 2}, None),
        (["lemd,tan-sum", "--k-max", "3", "--order", "5"],
         {"lemd": 8, "tan-sum": 4}, "lemd 7 in 4 orbits"),
        # the angle 0 recurs at k = 3 and 4, pi/4 at k = 4, and lemd's
        # 3 pi/4 at k = 4: 13 - 3 meq1 points and 15 - 4 lemd points; the
        # points of both have the denominators n = 1, 3, 4, 6 and 8
        (["meq1,lemd", "--k-max", "4", "--order", "5", "--jobs", "1"],
         {"meq1": 13, "lemd": 15}, "meq1 10 in 5 orbits, lemd 11 in 5 orbits"),
    ], ids=["bridges-k3-tan-sum", "lemd-tan-sum", "meq1-lemd"])
    def test_time_by_identity_and_slowest(self, capsys, argv, expect, points):
        rc = main(["verify", *argv])
        err = capsys.readouterr().err
        assert rc == 0
        lines = [l for l in err.splitlines() if l.startswith("#")]
        assert len(lines) == 1
        by_identity = lines[0].split("; time by identity: ")[1].split(";")[0]
        counts = {part.split()[0]: int(part.split()[1]) for part in by_identity.split(", ")}
        assert counts == expect
        clauses = lines[0].split("; ")
        assert [c for c in clauses if c.startswith("points ")] == (
            [f"points {points}"] if points else [])
        assert "; slowest " in lines[0] and lines[0].endswith(" ms")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failing_report_line_carries_note(self, capsys, monkeypatch, fmt):
        def broken(order):
            raise RuntimeError("no k3 today")

        monkeypatch.setattr(identities, "verify_k3_corollary", broken)
        rc = main(["verify", "bridges,k3", "--order", "15", "--jobs", "1",
                   "--format", fmt])
        err = capsys.readouterr().err
        assert rc == 1
        lines = [l for l in err.splitlines() if l.startswith("#")]
        assert len(lines) == 2
        assert lines[0].startswith("# 3 reports, 1 failures")
        assert lines[1].startswith("# fail k3: RuntimeError: no k3 today (in broken")

    def test_points_clause_of_the_default_sweep(self):
        # the default sweep's meq1 and lemd params, each as a passing report
        # (nothing is verified): 93 meq1 reports over 53 points in 29
        # orbits, 399 lemd reports over 255 points in the same 29 orbits
        jobs = identities.enumerate_jobs(2, 20, (0, 1), 100, 4,
                                         frozenset({"meq1", "lemd"}))
        params = [{"k": kw["k"], "l": kw["l"], "J": 4}
                  for kind, kw in jobs if kind == "meq1"]
        params += [{"k": kw["k"], "l": l} for kind, kw in jobs if kind == "lemd"
                   for l in range(2 * kw["k"]) if l != kw["k"]]
        reports = [identities.VerificationReport("meq1" if "J" in p else "lemd", p,
                                                 "pass", None, 0.0, 100)
                   for p in params]
        assert len(reports) == 93 + 399
        [line] = _summary_lines(reports, 0.0)
        assert "; points meq1 53 in 29 orbits, lemd 255 in 29 orbits; " in line

    def test_no_reports(self):
        [line] = _summary_lines([], 0.0)
        assert line.startswith("# 0 reports, 0 failures") and "slowest" not in line


class TestJsonFormat:
    def test_schema_stable(self, capsys):
        rc = main(["verify", "theorem,tan-sum", "--k-min", "2", "--k-max", "3",
                   "--order", "12", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        reports = json.loads(out)
        assert len(reports) == 8
        for r in reports:
            assert set(r) == {
                "identity", "params", "status", "first_mismatch",
                "elapsed_ms", "order",
            }
            assert r["status"] == "pass"
            assert r["first_mismatch"] is None
            assert isinstance(r["order"], int)
            for v in r["params"].values():
                assert isinstance(v, (int, str))

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "reports.json"
        rc = main(["verify", "k3", "--order", "20", "--format", "json",
                   "--output", str(path)])
        assert rc == 0
        reports = json.loads(path.read_text())
        assert reports[0]["identity"] == "k3"

    def test_text_output_file(self, tmp_path):
        path = tmp_path / "reports.txt"
        rc = main(["verify", "bridges", "--order", "20", "--output", str(path)])
        assert rc == 0
        content = path.read_text()
        assert content.count("PASS") == 2

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unopenable_output_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                              where):
        path = tmp_path / "no-such-dir" / "r.txt"
        if where == "directory":
            path = tmp_path

        def no_jobs(*args, **kwargs):
            raise AssertionError("a job ran although --output cannot be opened")

        monkeypatch.setattr("qtheta.cli.run_jobs", no_jobs)
        rc = main(["verify", "k3", "--order", "5", "--jobs", "1",
                   "--output", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"error: cannot open --output {str(path)!r}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_jet_reports_pinned(self, capsys):
        # the JSON reports of the jet identities, timing removed, as the
        # version before packed long division printed them: an arithmetic
        # change that alters any report fails here
        rc = main(["verify", "meq1,lem22,lemd", "--k-max", "6", "--order", "32",
                   "--format", "json", "--jobs", "1"])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        for r in reports:
            del r["elapsed_ms"]
        assert len(reports) == 78
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "848d0b21dd31d54c"

    def test_jet_reports_pinned_at_large_conductors(self, capsys):
        # meq1 and lemd for k = 11..20, where the point fields reach
        # phi(m) = 36 (a real subfield of degree 18), as the version that
        # held every jet in the full power basis printed them
        rc = main(["verify", "meq1,lemd", "--k-min", "11", "--k-max", "20",
                   "--order", "24", "--jet-degree", "4", "--format", "json",
                   "--jobs", "1"])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        for r in reports:
            del r["elapsed_ms"]
        assert len(reports) == 350
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "29a49a56305b3e13"

    def test_lem2_reports_pinned(self, capsys):
        # lem2 for k = 1..24, both deltas, as the version that multiplied
        # its right side in the full cyclotomic field printed them
        rc = main(["verify", "lem2", "--k-min", "1", "--k-max", "24",
                   "--order", "40", "--format", "json", "--jobs", "1"])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        for r in reports:
            del r["elapsed_ms"]
        assert len(reports) == 48
        assert all(r["status"] == "pass" for r in reports)
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "49d12cc7c5b390b8"

    def test_failing_lemd_reports_pinned(self, capsys, monkeypatch):
        # lemd with each Lambert form taken at l + 2 mod 2k (at l itself
        # where that is k): most reports fail, and their mismatch texts
        # read the real-subfield coefficients back in the zeta basis
        # (QExpansion.coeffs, then _Ctx.embed), as the version that lifted
        # through a table of the powers of theta printed them; a series
        # whose values are all rational is over Q and prints them as
        # rationals (lhs -1 at k = 3, 6, 9, 12, l = 5k/3).  The mutation
        # breaks the conjugate symmetry that lemd's orbit sharing rests
        # on, so 19 reports whose orbit passed at an earlier point reuse
        # that pass (test_modular's TestGaloisOrbit rejects the mutation)
        lambert = identities.log_deriv_lambert

        def shifted(l, k, order):
            s = (l + 2) % (2 * k)
            return lambert(l if s == k else s, k, order)

        monkeypatch.setattr(identities, "log_deriv_lambert", shifted)
        rc = main(["verify", "lemd", "--k-min", "2", "--k-max", "12",
                   "--order", "12", "--format", "json", "--jobs", "1"])
        assert rc == 104
        reports = json.loads(capsys.readouterr().out)
        for r in reports:
            del r["elapsed_ms"]
        assert len(reports) == 143
        assert sum(r["status"] == "fail" for r in reports) == 104
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "b86c9905441e5d58"

    @pytest.mark.parametrize("order, digest", [
        (1, "d1102577aead8c9f"), (8, "9866351e3ad8a059"), (40, "3144a96bf3141291")])
    def test_lem22_and_bridge_reports_pinned(self, capsys, order, digest):
        # lem22 for every k up to 40, where its margin ceil(k/8) runs from
        # 1 to 5, and the bridges, as the version with a margin of at least
        # 3 printed them
        rc = main(["verify", "lem22,bridges", "--k-min", "1", "--k-max", "40",
                   "--order", str(order), "--format", "json", "--jobs", "1"])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        for r in reports:
            del r["elapsed_ms"]
        assert len(reports) == 162
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_failing_lem22_and_bridge_reports_pinned(self, capsys, monkeypatch):
        # lem22 and the bridges with every eta quotient and eta log
        # derivative taken 3 times: most reports fail, and their mismatch
        # texts print the rational coefficients of both sides
        for name in ("eta_quotient", "eta_quotient_log_ddq"):
            def tripled(*args, f=getattr(identities, name)):
                return 3 * f(*args)

            monkeypatch.setattr(identities, name, tripled)
        rc = main(["verify", "lem22,bridges", "--k-min", "1", "--k-max", "6",
                   "--order", "12", "--format", "json", "--jobs", "1"])
        assert rc == 23
        reports = json.loads(capsys.readouterr().out)
        for r in reports:
            del r["elapsed_ms"]
        assert len(reports) == 26
        assert sum(r["status"] == "fail" for r in reports) == 23
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "b748745ad7e93a6f"


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 5  # at least five named invariant groups
        assert all(l.startswith("PASS") for l in lines)

    # a group's own comparison fails on a corrupted input: pentagonal reads
    # an eta product with one coefficient changed (its own call only, so
    # eta-log's products stay intact), ring-laws a series division off by
    # 1; the run exits 1 with a FAIL line carrying the group's mismatch
    @pytest.mark.parametrize("group", ["pentagonal", "ring-laws"])
    def test_fault_injection_detected(self, capsys, monkeypatch, group):
        if group == "pentagonal":
            def eta(alpha, order, f=selftest.eta_product):
                e = f(alpha, order)
                if (alpha, order) == (1, 200):
                    e = e + QExpansion.monomial(1, Fraction(121, 24), order)
                return e

            monkeypatch.setattr(selftest, "eta_product", eta)
            detail = "pentagonal mismatch at q^121/24"
        else:
            def div(a, b, f=QExpansion.__truediv__):
                return f(a, b) + 1

            monkeypatch.setattr(QExpansion, "__truediv__", div)
            detail = "b*(a/b) != a (field None)"
        rc = main(["selftest"])
        fails = [l.split(None, 2) for l in capsys.readouterr().out.splitlines()
                 if l.startswith("FAIL")]
        assert rc == 1
        assert any(name == group and rest.startswith(detail)
                   for _, name, rest in fails)


class TestEnvironment:
    def test_jobs_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QTHETA_JOBS", "2")
        rc = main(["verify", "theorem", "--k-min", "2", "--k-max", "4",
                   "--order", "10"])
        assert rc == 0

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_flag_below_one_is_usage_error(self, capsys, jobs):
        assert main(["verify", "k3", "--order", "5", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert f"--jobs must be >= 1, got {jobs}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["two", "1.5", "0", "-1"])
    def test_jobs_env_not_positive_integer_is_usage_error(self, capsys, monkeypatch,
                                                          value):
        monkeypatch.setenv("QTHETA_JOBS", value)
        assert main(["verify", "k3", "--order", "5"]) == 2
        captured = capsys.readouterr()
        assert f"QTHETA_JOBS must be a positive integer, got '{value}'" in captured.err
        assert captured.out == ""

    def test_jobs_flag_wins_over_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QTHETA_JOBS", "two")
        assert main(["verify", "k3", "--order", "5", "--jobs", "1"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtheta", "verify", "k3", "--order", "15"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "PASS k3" in proc.stdout
