"""Report bytes: the compare golden files, and CSV rows that agree cell by
cell with their JSON objects."""

import contextlib
import csv
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from sigforge import (CompareEntry, CompareReport, SignatureSet, emit_report, hadamard_set,
                      one_shot_experiment, upscale_chain)
from sigforge.cli import main
from sigforge.harness import AUDIT_AUTO_MAX_L, METHODS

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"

# Hadamard 4; an overloaded L = 8 set on which quant, descent and sd differ;
# a ragged file; and an L = 25 set above the exhaustive cap.
COMPARE_SETS = [
    "tests/data/compare_h4.txt",
    "tests/data/compare_overloaded.txt",
    "tests/data/compare_ragged.txt",
    "tests/data/compare_l25.txt",
]


@pytest.fixture
def in_repo_root(monkeypatch):
    """Paths relative to the repository root."""
    monkeypatch.chdir(ROOT)


class TestNoEnvironmentSetting:
    """No environment variable changes a report. SIGFORGE_ML_CAP once set the
    scan's cap; at 3 it turned every audit cell of the reference report null."""

    def test_reference_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIGFORGE_ML_CAP", "3")
        out = tmp_path / "report.json"
        assert main(["report", "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "reference_report.json").read_bytes()

    def test_compare_batch(self, in_repo_root, monkeypatch, capsys):
        monkeypatch.setenv("SIGFORGE_ML_CAP", "3")
        assert main(["compare", *COMPARE_SETS]) == 2
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (DATA / "reference_compare.csv").read_bytes()


class TestCompareGolden:
    def test_cli_csv_matches_golden_file(self, in_repo_root, capsys):
        assert main(["compare", *COMPARE_SETS]) == 2
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (DATA / "reference_compare.csv").read_bytes()

    def test_cli_writes_text_to_a_replaced_stdout(self, in_repo_root):
        # An in-process caller may swap sys.stdout for a text buffer with no
        # .buffer underneath.
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            assert main(["compare", *COMPARE_SETS]) == 2
        assert captured.getvalue().encode("utf-8") == (DATA / "reference_compare.csv").read_bytes()

    def test_json_matches_golden_file(self, in_repo_root):
        out = emit_report(one_shot_experiment(COMPARE_SETS), "json")
        assert out == (DATA / "reference_compare.json").read_bytes()

    def test_golden_rows_cover_every_outcome(self):
        doc = json.loads((DATA / "reference_compare.json").read_text())
        h4, overloaded, ragged, capped = doc["entries"]
        assert h4["tsc_sd"] == 112 and h4["error"] is None
        assert overloaded["tsc_quant"] > overloaded["tsc_descent"] > overloaded["tsc_sd"]
        assert overloaded["tsc_sd"] == overloaded["tsc_ml"]
        assert "expected 4 entries" in ragged["error"]
        assert "exceeds the exhaustive-search cap of 24" in capped["error"]


# A CSV column whose header is not its JSON key reads a nested
# {"value", "kind"} object; every other column reads the key of its header.
CHAIN_NESTED = {
    "welch_after": ("welch_after", "value"),
    "binary_bound_after": ("binary_bound_after", "value"),
    "binary_bound_kind": ("binary_bound_after", "kind"),
}
COMPARE_NESTED = {
    "binary_bound": ("binary_bound", "value"),
    "binary_bound_kind": ("binary_bound", "kind"),
}


def documented_cell(value):
    """null -> empty, booleans -> true/false, floats -> repr, else str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def assert_cells_match(header, rows, objects, nested):
    assert len(rows) == len(objects)
    read = {nested.get(name, (name, None))[0] for name in header}
    assert read == set(objects[0])
    for row, obj in zip(rows, objects):
        for name, cell in zip(header, row):
            key, field = nested.get(name, (name, None))
            value = obj[key] if field is None or obj[key] is None else obj[key][field]
            assert cell == documented_cell(value), (name, cell, value)


def random_l17_start():
    """A seeded K = 17, L = 17 set: above the automatic audit, so an unforced
    chain from it leaves its audit cells empty."""
    rows = np.random.default_rng(17).choice([-1, 1], size=(17, 17)).tolist()
    return SignatureSet.from_rows(rows)


class TestCsvMatchesJson:
    # A Hadamard 4 chain is audited whatever ``audit`` says; an L = 17 chain
    # is audited only when forced. The ids name the ``audit`` argument.
    @pytest.mark.parametrize("start, target, audit", [
        pytest.param(lambda: hadamard_set(4), 7, False, id="False"),
        pytest.param(random_l17_start, 19, False, id="L17-False"),
        pytest.param(random_l17_start, 19, True, id="True"),
    ])
    @pytest.mark.parametrize("method", METHODS)
    def test_chain_cells_equal_json_values(self, method, start, target, audit):
        initial = start()
        report = upscale_chain(initial, target, method, audit=audit)
        header, *rows = csv.reader(io.StringIO(emit_report(report, "csv").decode("utf-8")))
        steps = json.loads(emit_report(report, "json"))["steps"]
        assert len(steps) == target - initial.k
        audited = audit or initial.length <= AUDIT_AUTO_MAX_L
        assert {step["audit_agreement"] for step in steps} == {True if audited else None}
        # The step column is the row's position; the JSON steps are a list.
        assert header[0] == "step"
        assert [row[0] for row in rows] == [str(n) for n in range(1, len(steps) + 1)]
        assert_cells_match(header[1:], [row[1:] for row in rows], steps, CHAIN_NESTED)

    def test_compare_golden_cells_equal_json_values(self):
        with open(DATA / "reference_compare.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        entries = json.loads((DATA / "reference_compare.json").read_text())["entries"]
        assert_cells_match(header, rows, entries, COMPARE_NESTED)


class TestUndecodablePath:
    """A file-name byte that is not UTF-8, such as 0xff, reaches Python as a
    lone surrogate, U+DCFF; both formats spell it as the text \\udcff."""

    def test_csv_spells_it_as_json_does(self):
        path = os.fsdecode(b"bad\xff.txt")
        report = CompareReport(entries=(CompareEntry(path=path, error=f"{path}: empty file"),))
        (row,) = list(csv.reader(io.StringIO(emit_report(report, "csv").decode("utf-8"))))[1:]
        doc = emit_report(report, "json")
        assert row[0] == r"bad\udcff.txt" and row[-1] == r"bad\udcff.txt: empty file"
        assert b'"path": "bad\\udcff.txt"' in doc
        assert json.loads(doc)["entries"][0]["path"] == path

    def test_cli_keeps_the_batch(self, tmp_path, monkeypatch, capsysbinary):
        monkeypatch.chdir(tmp_path)
        try:
            shutil.copyfile(DATA / "compare_h4.txt", b"bad\xff.txt")
        except OSError:
            pytest.skip("the file system refuses a file name that is not UTF-8")
        shutil.copyfile(DATA / "compare_h4.txt", "ok.txt")
        assert main(["compare", os.fsdecode(b"bad\xff.txt"), "ok.txt"]) == 0
        header, bad, ok = capsysbinary.readouterr().out.decode("utf-8").strip().split("\n")
        assert bad.startswith("bad\\udcff.txt,5,4,") and ok.startswith("ok.txt,5,4,")
        assert bad.split(",", 1)[1] == ok.split(",", 1)[1]
