"""Exit codes, output shapes, and determinism of the command-line surface."""

import json
from pathlib import Path

import numpy as np
import pytest

import sigforge.sigcore
import sigforge.sphere
from sigforge import CorrelationMatrix, SignatureSet, hadamard_set, load_set, save_set
from sigforge.cli import main
from sigforge.harness import ML_CAP_ENV

DATA = Path(__file__).parent / "data"


@pytest.fixture
def h4_file(tmp_path):
    path = tmp_path / "h4.txt"
    save_set(hadamard_set(4), path)
    return str(path)


class TestTscCommand:
    def test_reports_exact_values(self, h4_file, capsys):
        assert main(["tsc", h4_file]) == 0
        out = capsys.readouterr().out
        assert "k 4" in out and "tsc 64" in out and "welch 64" in out

    def test_missing_file_is_validation_failure(self, capsys):
        assert main(["tsc", "/nonexistent/set.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n+1 +1\n+1 0\n")
        assert main(["tsc", str(bad)]) == 2


class TestBoundCommand:
    def test_overloaded(self, capsys):
        assert main(["bound", "--k", "19", "--l", "16"]) == 0
        out = capsys.readouterr().out
        assert "welch 5776" in out
        assert "binary 5776 (binary_fallback_welch)" in out

    def test_underloaded_binary_unavailable(self, capsys):
        assert main(["bound", "--k", "4", "--l", "8"]) == 0
        out = capsys.readouterr().out
        assert "welch 256" in out
        assert "binary n/a" in out

    def test_bad_dimensions(self, capsys):
        assert main(["bound", "--k", "0", "--l", "4"]) == 2

    def test_table_file(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(
            json.dumps(
                {
                    "schema": "sigforge.bound-table/1",
                    "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[112, 0, 0]]}],
                }
            )
        )
        assert main(["bound", "--k", "5", "--l", "4", "--table", str(table)]) == 0
        assert "binary 112 (binary_table)" in capsys.readouterr().out

    def test_broken_table(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text("{not json")
        assert main(["bound", "--k", "5", "--l", "4", "--table", str(table)]) == 2

    def test_non_finite_table_coefficient(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        case = '{"k_mod": 1, "l_mod": 0, "terms": [[Infinity, 0, 0]]}'
        table.write_text('{"schema": "sigforge.bound-table/1", "cases": [%s]}' % case)
        assert main(["bound", "--k", "5", "--l", "4", "--table", str(table)]) == 2
        assert "finite" in capsys.readouterr().err


class TestExtendCommand:
    def test_extend_and_save(self, h4_file, tmp_path, capsys):
        out_path = tmp_path / "h5.txt"
        assert main(["extend", h4_file, "--save-set", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "metric 16" in out
        assert "tsc_after 112" in out
        assert "audit pass" in out
        saved = load_set(out_path)
        assert saved.k == 5 and saved.length == 4

    def test_method_choices_enforced(self, h4_file, capsys):
        with pytest.raises(SystemExit):
            main(["extend", h4_file, "--method", "sdm"])

    def test_audit_mismatch_exits_3(self, h4_file, capsys, wrong_scan):
        assert main(["extend", h4_file, "--method", "descent", "--audit"]) == 3
        err = capsys.readouterr().err
        assert "internal consistency failure" in err
        assert "K=4, L=4, method descent:" in err

    def test_quant_method(self, h4_file, capsys):
        assert main(["extend", h4_file, "--method", "quant"]) == 0
        assert "method quant" in capsys.readouterr().out

    def test_descent_prints_its_stand_in_label(self, h4_file, capsys):
        assert main(["extend", h4_file, "--method", "descent"]) == 0
        assert "method descent(stand-in)\n" in capsys.readouterr().out


class TestChainCommand:
    def test_hadamard_chain(self, tmp_path, capsys):
        out_path = tmp_path / "h8.txt"
        code = main(
            ["chain", "--hadamard", "4", "--to", "8", "--save-set", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "step 4" in out and "final k 8" in out and "final tsc 256" in out
        assert load_set(out_path).k == 8

    def test_file_start(self, h4_file, capsys):
        assert main(["chain", h4_file, "--to", "6"]) == 0
        assert "final k 6" in capsys.readouterr().out

    def test_start_must_be_unambiguous(self, h4_file, capsys):
        assert main(["chain", h4_file, "--hadamard", "4", "--to", "8"]) == 2
        assert main(["chain", "--to", "8"]) == 2

    def test_target_below_start(self, h4_file, capsys):
        assert main(["chain", h4_file, "--to", "3"]) == 2

    def test_cap_env_blocks_forced_audit(self, h4_file, capsys, monkeypatch):
        monkeypatch.setenv(ML_CAP_ENV, "3")
        assert main(["chain", h4_file, "--to", "6", "--audit"]) == 2

    def test_garbage_cap_env(self, h4_file, capsys, monkeypatch):
        monkeypatch.setenv(ML_CAP_ENV, "lots")
        assert main(["chain", h4_file, "--to", "6", "--audit"]) == 2


class TestExhaustiveScanLimits:
    """The scan's float64 range surfaces through the CLI exit codes."""

    @pytest.fixture
    def h16_file(self, tmp_path):
        path = tmp_path / "h16.txt"
        save_set(hadamard_set(16), path)
        return str(path)

    @staticmethod
    def use_matrix(monkeypatch, entries):
        matrix = CorrelationMatrix(entries)
        monkeypatch.setattr(sigforge.sphere, "correlation_matrix", lambda _: matrix)

    def test_beyond_float_limit_exits_2(self, h16_file, capsys, monkeypatch):
        self.use_matrix(monkeypatch, np.eye(16, dtype=np.int64) * (1 << 49))
        assert main(["extend", h16_file, "--method", "ml"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "L=16" in err and "9007199254740992" in err

    def test_inexact_scan_exits_3(self, h16_file, capsys, monkeypatch):
        monkeypatch.setattr(sigforge.sphere, "EXACT_SCAN_LIMIT", 1 << 63)
        entries = np.eye(16, dtype=np.int64) * (1 << 58)
        entries[0, 1] = entries[1, 0] = 1
        self.use_matrix(monkeypatch, entries)
        assert main(["extend", h16_file, "--method", "ml"]) == 3
        err = capsys.readouterr().err
        assert "internal consistency failure" in err and "float minimum" in err


class TestInt64Limits:
    """Inputs beyond the exact int64 range exit 2 through the CLI."""

    def test_tsc_beyond_range_exits_2(self, h4_file, capsys, monkeypatch):
        monkeypatch.setattr(sigforge.sigcore, "INT64_LIMIT", 256)
        assert main(["tsc", h4_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_matrix_beyond_range_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "h16.txt"
        save_set(hadamard_set(16), path)
        huge = np.eye(16, dtype=np.int64) << 59  # sum |R_ij| = 2^63
        monkeypatch.setattr(
            sigforge.sphere, "correlation_matrix", lambda _: CorrelationMatrix(huge)
        )
        assert main(["extend", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "sum |R_ij|" in err


class TestCompareCommand:
    def test_csv_on_stdout(self, h4_file, capsys):
        assert main(["compare", h4_file]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("path,k_after,")
        assert lines[1].split(",")[1] == "5"

    def test_empty_batch_succeeds(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n") == [out.strip()]  # header only

    def test_partial_failure_exit_code(self, h4_file, capsys):
        assert main(["compare", h4_file, "/nope.txt"]) == 2
        out = capsys.readouterr().out
        assert "/nope.txt" in out  # error row still emitted

    def test_set_above_cap_keeps_the_batch(self, tmp_path, capsys):
        rng = np.random.default_rng(70)
        ok, big = str(tmp_path / "ok8.txt"), str(tmp_path / "big25.txt")
        save_set(SignatureSet.from_rows(rng.choice([-1, 1], size=(10, 8)).tolist()), ok)
        save_set(SignatureSet.from_rows(rng.choice([-1, 1], size=(30, 25)).tolist()), big)
        assert main(["compare", ok, big, ok]) == 2
        header, first, capped, last = capsys.readouterr().out.strip().split("\n")
        assert first.startswith(ok + ",11,8,") and first.endswith(",")
        assert last == first
        assert capped.startswith(big + ",,") and "cap of 24" in capped

    def test_cap_env_lands_in_error_column(self, h4_file, capsys, monkeypatch):
        monkeypatch.setenv(ML_CAP_ENV, "3")
        assert main(["compare", h4_file]) == 2
        (row,) = capsys.readouterr().out.strip().split("\n")[1:]
        assert row.startswith(h4_file + ",,") and "cap of 3" in row


class TestReportCommand:
    def test_csv_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["report", "--hadamard", "4", "--to", "8", "--format", "csv"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"step,k_before,")

    def test_json_document(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(
            ["report", "--hadamard", "4", "--to", "6", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_bytes())
        assert doc["kind"] == "chain" and len(doc["steps"]) == 2

    def test_file_start(self, h4_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["report", h4_file, "--to", "6", "--format", "csv", "--out", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reference_run_matches_golden_file(self, fmt, tmp_path, capsys):
        # The default run (Hadamard 16 -> 32, sd, audited) pins lambda_min,
        # radius_c, fp_bound and nodes_visited, so eigensolver drift fails.
        # Its fp_bound reads the same from R factored in either index order;
        # the overloaded L = 8 chain (K 12 -> 20, audited) pins which factor
        # fp_bound reads.
        runs = {
            "reference_report": [],
            "overloaded_report": [str(DATA / "compare_overloaded.txt"), "--to", "20"],
        }
        for golden, args in runs.items():
            out = tmp_path / f"{golden}.{fmt}"
            assert main(["report", *args, "--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == (DATA / f"{golden}.{fmt}").read_bytes()

    def test_format_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--out", str(tmp_path / "x.csv")])
