"""Exit codes, output shapes, and determinism of the command-line surface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sigforge.harness
import sigforge.sigcore
import sigforge.sphere
from sigforge import (CorrelationMatrix, EigenFailure, SignatureSet, hadamard_set, load_set,
                      save_set)
from sigforge.cli import _build_parser, main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def h4_file(tmp_path):
    path = tmp_path / "h4.txt"
    save_set(hadamard_set(4), path)
    return str(path)


@pytest.fixture
def h16_file(tmp_path):
    path = tmp_path / "h16.txt"
    save_set(hadamard_set(16), path)
    return str(path)


class TestParseContract:
    """What each command hands its handler: one argv per command, with every
    option the handler reads, defaults included."""

    CASES = (
        (["tsc", "a.txt"], dict(set_file="a.txt")),
        (["bound", "--k", "19", "--l", "16"], dict(k=19, length=16)),
        (["extend", "a.txt", "--method", "ml", "--audit", "--save-set", "b.txt"],
         dict(set_file="a.txt", method="ml", audit=True, save_set="b.txt")),
        (["chain", "--hadamard", "4", "--to", "6"],
         dict(set_file=None, hadamard=4, target=6, method="sd", audit=False, save_set=None)),
        (["compare", "a.txt", "b.txt"], dict(set_files=["a.txt", "b.txt"])),
        (["report", "--format", "json", "--out", "x.json"],
         dict(set_file=None, hadamard=None, target=32, method="sd", audit=False, fmt="json",
              out="x.json")),
    )

    def test_parsed_namespaces(self):
        for argv, expected in self.CASES:
            parsed = vars(_build_parser().parse_args(argv))
            parsed.pop("handler", None)
            assert parsed == dict(expected, command=argv[0])

    def test_every_audit_flag_is_explained(self, capsys):
        for command in ("extend", "chain", "report"):
            with pytest.raises(SystemExit):
                _build_parser().parse_args([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert "force the sphere-vs-exhaustive equality check" in text, command


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

    @pytest.mark.parametrize(
        "k",
        ["1_0", "\u0661\u0660", " 10", "10\n"],
        ids=["underscore", "arabic_indic", "leading_space", "trailing_newline"],
    )
    def test_integer_options_take_ascii_digits_only(self, k, capsys):
        # int() alone reads each as 10.
        with pytest.raises(SystemExit) as exited:
            main(["bound", "--k", k, "--l", "4"])
        assert exited.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err


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

    def test_singular_r_prints_no_fp_bound(self, tmp_path, capsys):
        path = tmp_path / "underloaded.txt"
        rng = np.random.default_rng(69)
        save_set(SignatureSet.from_rows(rng.choice([-1, 1], size=(5, 12)).tolist()), path)
        assert main(["extend", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fp_bound n/a\n" in out
        assert "jitter_applied true\n" in out

    def test_descent_prints_its_stand_in_label(self, h4_file, capsys):
        assert main(["extend", h4_file, "--method", "descent"]) == 0
        assert "method descent(stand-in)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["sd", "ml", "quant", "descent"])
    def test_audited_run_matches_golden_file(self, method, capsys):
        # The overloaded L = 8 set (K 12 -> 13), audited: every printed
        # line, byte for byte.
        args = [str(DATA / "compare_overloaded.txt"), "--audit", "--method", method]
        assert main(["extend", *args]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (DATA / f"extend_overloaded_{method}.txt").read_bytes()


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

    def test_reference_chain_saves_golden_set(self, tmp_path, capsys):
        # No other check pins saved-set bytes; the tie-break fixes every
        # appended signature, so the file may never change.
        out = tmp_path / "chain.txt"
        assert main(["chain", "--hadamard", "16", "--to", "32", "--save-set", str(out)]) == 0
        assert out.read_bytes() == (DATA / "reference_chain_set.txt").read_bytes()

    def test_underloaded_run_matches_golden_file(self, capsys):
        # The K = 3, L = 8 start grown to K = 10: every printed line.
        assert main(["chain", str(DATA / "underloaded_start.txt"), "--to", "10"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (DATA / "chain_underloaded.txt").read_bytes()

    def test_start_must_be_unambiguous(self, h4_file, capsys):
        assert main(["chain", h4_file, "--hadamard", "4", "--to", "8"]) == 2
        assert main(["chain", "--to", "8"]) == 2

    def test_target_takes_ascii_digits_only(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["chain", "--hadamard", "4", "--to", "0_6"])
        assert exited.value.code == 2
        assert "argument --to: invalid integer value: '0_6'" in capsys.readouterr().err

    def test_target_below_start(self, h4_file, capsys):
        assert main(["chain", h4_file, "--to", "3"]) == 2


class TestExhaustiveScanLimits:
    """The scan's float64 range surfaces through the CLI exit codes."""

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


class TestRefusedAllocation:
    """Memory the input needs but cannot get is bad input: exit 2, no
    traceback, and in a compare batch an error row for that file only."""

    @staticmethod
    def _refuse_l16(monkeypatch, error):
        build = sigforge.sphere.correlation_matrix

        def refused(signature_set):
            if signature_set.length == 16:
                raise error
            return build(signature_set)

        monkeypatch.setattr(sigforge.sphere, "correlation_matrix", refused)

    @pytest.fixture
    def refuse_l16(self, monkeypatch):
        self._refuse_l16(monkeypatch, MemoryError("Unable to allocate R"))

    @pytest.fixture
    def refuse_l16_bare(self, monkeypatch):
        # CPython's own allocation failures carry no message.
        self._refuse_l16(monkeypatch, MemoryError())

    def test_extend_exits_2(self, h16_file, capsys, refuse_l16):
        assert main(["extend", h16_file]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate R\n"
        assert "Traceback" not in err

    def test_compare_keeps_the_batch(self, h16_file, capsys, refuse_l16):
        h4_file = str(DATA / "compare_h4.txt")
        assert main(["compare", h16_file, h4_file]) == 2
        captured = capsys.readouterr()
        header, refused, computed = captured.out.strip().split("\n")
        assert refused == h16_file + "," * 14 + "Unable to allocate R"
        # The next file's row is the golden batch's, path aside.
        golden = (DATA / "reference_compare.csv").read_text().split("\n")[1]
        assert golden.startswith("tests/data/compare_h4.txt,5,4,")
        assert computed.split(",", 1)[1] == golden.split(",", 1)[1]
        assert "Traceback" not in captured.err

    def test_bare_error_is_named(self, h16_file, capsys, refuse_l16_bare):
        assert main(["extend", h16_file]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert main(["compare", h16_file]) == 2
        refused = capsys.readouterr().out.strip().split("\n")[1]
        assert refused == h16_file + "," * 14 + "MemoryError"


EXPORTED_ERRORS = [
    value for value in map(sigforge.__dict__.get, sigforge.__all__)
    if isinstance(value, type) and issubclass(value, BaseException)
]


class TestExportedErrorExitCodes:
    """The exit code is read off the class: every exported ValueError exits 2
    and every InternalConsistencyError 3, each with one line, no traceback."""

    @pytest.fixture(params=EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
    def refusal(self, request, monkeypatch):
        """The step analysis raises one exported class; True when it is a ValueError."""
        cls = request.param
        error = cls("boom", residual=1.0) if cls is EigenFailure else cls("boom")

        def fail(_):
            raise error

        monkeypatch.setattr(sigforge.harness, "analyse_step", fail)
        return issubclass(cls, ValueError)

    def test_extend(self, refusal, h4_file, capsys):
        assert main(["extend", h4_file]) == (2 if refusal else 3)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: boom\n" if refusal else "internal consistency failure: boom\n")

    def test_compare(self, refusal, h4_file, capsys):
        assert main(["compare", h4_file]) == (2 if refusal else 3)
        captured = capsys.readouterr()
        if refusal:
            assert captured.out.split("\n")[1:] == [h4_file + "," * 14 + "boom", ""]
            assert captured.err == ""
        else:
            assert captured.out == ""
            assert captured.err == "internal consistency failure: boom\n"


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_descent_run_matches_golden_file(self, fmt, tmp_path, capsys):
        # The overloaded L = 8 chain by descent pins the stand-in label.
        out = tmp_path / f"descent_report.{fmt}"
        args = [str(DATA / "compare_overloaded.txt"), "--to", "20", "--method", "descent"]
        assert main(["report", *args, "--format", fmt, "--out", str(out)]) == 0
        golden = (DATA / f"descent_report.{fmt}").read_bytes()
        assert out.read_bytes() == golden
        assert golden.count(b"descent(stand-in)") == (8 if fmt == "csv" else 9)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_underloaded_run_matches_golden_file(self, fmt, tmp_path, capsys):
        # A K = 3, L = 8 start grown to K = 10: singular steps (null fp_bound,
        # jitter applied), then nonsingular ones, under both bound kinds.
        out = tmp_path / f"underloaded_report.{fmt}"
        args = [str(DATA / "underloaded_start.txt"), "--to", "10"]
        assert main(["report", *args, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"underloaded_report.{fmt}").read_bytes()
        steps = json.loads((DATA / "underloaded_report.json").read_text())["steps"]
        assert [s["jitter_applied"] for s in steps] == [True] * 5 + [False] * 2
        assert [s["fp_bound"] is None for s in steps] == [True] * 5 + [False] * 2
        kinds = {s["binary_bound_after"]["kind"] for s in steps}
        assert kinds == {"welch", "binary_fallback_welch"}

    def test_format_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--out", str(tmp_path / "x.csv")])


class TestStdoutEncoding:
    """A finished run exits 0 whatever stdout's encoding: the CLI writes
    UTF-8 bytes, a character UTF-8 cannot hold backslash-escaped, so a file
    name that an ASCII or a strict UTF-8 stdout cannot encode still prints."""

    @staticmethod
    def sigforge(cwd, encoding, *args):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING=encoding)
        return subprocess.run([sys.executable, "-m", "sigforge.cli", *args], cwd=cwd, env=env,
                              capture_output=True, timeout=120)

    NOT_UTF8 = os.fsdecode(b"bad\xff")

    @pytest.mark.parametrize(
        "encoding, stem",
        [("ascii", "\u00e9"), ("ascii", NOT_UTF8), ("utf-8", NOT_UTF8)],
        ids=["e_acute-ascii", "not_utf8-ascii", "not_utf8-utf8"],
    )
    def test_file_names_print(self, tmp_path, encoding, stem):
        try:
            shutil.copyfile(DATA / "compare_h4.txt", tmp_path / f"{stem}.txt")
        except (OSError, UnicodeError):
            pytest.skip(f"the file system refuses the name {stem!r}")
        spelled = stem.encode("utf-8", errors="backslashreplace")

        done = self.sigforge(tmp_path, encoding, "compare", f"{stem}.txt")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[1].startswith(spelled + b".txt,5,4,")

        done = self.sigforge(tmp_path, encoding, "report", "--hadamard", "4", "--to", "6",
                             "--format", "csv", "--out", f"{stem}.csv")
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"wrote " + spelled + b".csv\n"
        assert (tmp_path / f"{stem}.csv").read_bytes().startswith(b"step,")

        done = self.sigforge(tmp_path, encoding, "extend", f"{stem}.txt", "--save-set",
                             f"{stem}2.txt")
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith(b"\nsaved " + spelled + b"2.txt\n")
        assert load_set(tmp_path / f"{stem}2.txt").k == 5


class TestClosedStdout:
    """Python sets sys.stdout to None when fd 1 is closed. A run then exits 2
    with a message, as on a broken pipe, not with a traceback."""

    def test_exits_2_with_a_message(self, h4_file, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["tsc", h4_file]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell")
    def test_report_writes_its_file_first(self, tmp_path):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        out = tmp_path / "r.json"
        done = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "sigforge.cli", "report",
             "--hadamard", "4", "--to", "6", "--format", "json", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path), stderr=subprocess.PIPE, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr == b"error: stdout is closed\n"
        assert json.loads(out.read_bytes())["kind"] == "chain"
