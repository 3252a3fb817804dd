"""Batch CLI: flags, exit codes, report formats, selftest hook."""

import json
import subprocess
import sys

import pytest

from qtheta import identities, kernel_backend
from qtheta._pack import BIGNUM
from qtheta.cli import main


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

    def test_jet_degree_validation(self):
        assert main(["verify", "meq1", "--k-max", "2", "--jet-degree", "1"]) == 2


class TestSummaryLine:
    def test_names_capped_identities_and_backends(self, capsys):
        rc = main(["verify", "tan-sum,meq1,lem2", "--k-min", "12", "--k-max", "14",
                   "--order", "5"])
        err = capsys.readouterr().err
        assert rc == 0
        lines = [l for l in err.splitlines() if l.startswith("#")]
        assert len(lines) == 1
        assert "skipped lem2,meq1 for k=13..14" in lines[0]
        assert f"bignum {BIGNUM}," in lines[0] and BIGNUM in ("gmpy2", "int")
        assert f"kernel {kernel_backend}" in lines[0]

    def test_all_names_every_capped_identity(self, capsys):
        rc = main(["verify", "all", "--k-min", "13", "--k-max", "13", "--order", "6"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "skipped lemd,lem2,meq1,lem22 for k=13..13" in err

    def test_no_skip_within_cap(self, capsys):
        rc = main(["verify", "lemd,tan-sum", "--k-max", "3", "--order", "5"])
        err = capsys.readouterr().err
        assert rc == 0
        assert err.startswith("# ") and "skipped" not in err

    def test_time_by_identity_and_slowest(self, capsys):
        rc = main(["verify", "bridges,k3,tan-sum", "--k-min", "2", "--k-max", "3",
                   "--delta", "0", "--order", "15", "--jobs", "1"])
        err = capsys.readouterr().err
        assert rc == 0
        lines = [l for l in err.splitlines() if l.startswith("#")]
        assert len(lines) == 1
        by_identity = lines[0].split("; time by identity: ")[1].split(";")[0]
        counts = {part.split()[0]: int(part.split()[1]) for part in by_identity.split(", ")}
        assert counts == {"bridge-t0": 1, "bridge-t1": 1, "k3": 1, "tan-sum": 2}
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

    def test_no_reports(self, capsys):
        rc = main(["verify", "lemd", "--k-min", "13", "--k-max", "13"])
        err = capsys.readouterr().err
        assert rc == 0
        assert err.startswith("# 0 reports, 0 failures") and "slowest" not in err


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


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 5  # at least five named invariant groups
        assert all(l.startswith("PASS") for l in lines)

    # any non-empty value corrupts the pentagonal group, another group's
    # name included
    @pytest.mark.parametrize("value", ["1", "pentagonal", "ring-laws"])
    def test_fault_injection_detected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QTHETA_SELFTEST_FAULT", value)
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 1
        assert any(l.startswith("FAIL pentagonal") for l in out.splitlines())


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
