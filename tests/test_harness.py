"""Extension records, chains, comparisons, and report serialization."""

import json

import numpy as np
import pytest

import sigforge.harness
import sigforge.sphere
from sigforge import (
    CapExceeded,
    ChainReport,
    CompareEntry,
    CompareReport,
    ExtensionRecord,
    InternalConsistencyError,
    compare_methods,
    correlation_matrix,
    emit_report,
    extend_once,
    hadamard_set,
    ml_exhaustive,
    one_shot_experiment,
    save_set,
    tsc,
    upscale_chain,
    welch_bound,
)
from sigforge.harness import AUDIT_AUTO_MAX_L
from sigforge.sphere import ML_CAP
from support import random_set


class TestExtendOnce:
    def test_sd_on_hadamard_16(self):
        extended, record, agreement = extend_once(hadamard_set(16), "sd")
        assert extended.k == 17
        assert record.metric == 256
        assert record.tsc_after == 4864
        assert record.welch_after.value == welch_bound(17, 16).value
        assert record.binary_bound_after.kind == "binary_fallback_welch"
        assert agreement is True  # audit auto-on at L = 16

    def test_all_methods_satisfy_recursion(self):
        rng = np.random.default_rng(61)
        s = random_set(rng, 7, 6)
        for method in ("sd", "ml", "quant", "descent"):
            extended, record, _ = extend_once(s, method)
            assert record.method == method
            assert record.tsc_after == tsc(extended)
            assert record.tsc_after == record.tsc_before + 36 + 2 * record.metric

    def test_optimal_methods_agree_baselines_trail(self):
        rng = np.random.default_rng(62)
        s = random_set(rng, 9, 7)
        metrics = {}
        for method in ("sd", "ml", "quant", "descent"):
            _, record, _ = extend_once(s, method)
            metrics[method] = record.metric
        assert metrics["sd"] == metrics["ml"]
        assert metrics["descent"] >= metrics["sd"]
        assert metrics["quant"] >= metrics["descent"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            extend_once(hadamard_set(4), "magic")

    def test_forced_audit_beyond_cap_fails_loudly(self):
        rng = np.random.default_rng(64)
        s = random_set(rng, 30, 25)
        with pytest.raises(CapExceeded):
            extend_once(s, "sd", audit=True)

    def test_audit_covers_non_optimal_methods_too(self):
        rng = np.random.default_rng(65)
        s = random_set(rng, 6, 5)
        _, record, agreement = extend_once(s, "descent", audit=True)
        assert agreement is True  # sphere vs scan, not descent vs scan
        assert record.method == "descent"

    def test_underloaded_result_keeps_welch_bound(self):
        rng = np.random.default_rng(66)
        s = random_set(rng, 2, 6)  # K+1 = 3 < L = 6
        _, record, _ = extend_once(s, "sd")
        assert record.binary_bound_after.kind == "welch"

    def test_record_invariants_enforced(self):
        sane = dict(
            k_before=4,
            length=4,
            tsc_before=64,
            tsc_after=112,
            method="sd",
            metric=16,
            radius_c=16.0,
            lambda_min=4.0,
            nodes_visited=3,
            candidates_enumerated=1,
            fp_bound=100.0,
            jitter_applied=False,
        )
        ExtensionRecord(**sane)
        with pytest.raises(InternalConsistencyError):
            ExtensionRecord(**{**sane, "tsc_after": 113})
        # The recursion holds (0 + 16 + 2 * 0), but the Welch bound at K = 5,
        # L = 4 is 100, and the record computes it rather than taking it.
        with pytest.raises(InternalConsistencyError, match="below the Welch bound 100"):
            ExtensionRecord(**{**sane, "tsc_before": 0, "tsc_after": 16, "metric": 0})
        with pytest.raises(ValueError):
            ExtensionRecord(**{**sane, "method": "sdm"})
        assert ExtensionRecord(**sane).audit_agreement is None
        assert ExtensionRecord(**sane, audit_agreement=True).audit_agreement is True
        for verdict in (False, 1, "pass"):
            with pytest.raises(ValueError, match="audit_agreement"):
                ExtensionRecord(**sane, audit_agreement=verdict)

    def test_record_carries_the_returned_verdict(self):
        above_auto = random_set(np.random.default_rng(73), 21, AUDIT_AUTO_MAX_L + 1)
        for s, audit, verdict in ((hadamard_set(4), True, True), (above_auto, False, None)):
            _, record, agreement = extend_once(s, "quant", audit=audit)
            assert record.audit_agreement is agreement
            assert agreement is verdict

    def test_singular_r_has_no_fp_bound(self):
        # K < L: R is singular, and a bound on the jittered factor of
        # R + jitter*I says nothing about R.
        rng = np.random.default_rng(68)
        _, record, _ = extend_once(random_set(rng, 5, 12), "sd")
        assert record.jitter_applied is True
        assert record.fp_bound is None


class TestUpscaleChain:
    def test_hadamard_4_to_8(self):
        report = upscale_chain(hadamard_set(4), 8)
        assert len(report.records) == 4
        assert report.final_set.k == 8
        previous = None
        for record in report.records:
            if previous is not None:
                assert record.tsc_before == previous.tsc_after
            assert record.tsc_after >= welch_bound(record.k_after, 4).value
            previous = record
        assert all(flag is True for flag in report.audit)

    def test_first_hadamard_16_step(self):
        report = upscale_chain(hadamard_set(16), 17)
        assert report.records[0].tsc_after == 4864

    def test_target_must_grow(self):
        with pytest.raises(ValueError):
            upscale_chain(hadamard_set(4), 4)

    def test_chain_validation_catches_breaks(self):
        report = upscale_chain(hadamard_set(4), 6)
        with pytest.raises(InternalConsistencyError):
            ChainReport((report.records[1], report.records[0]), report.final_set)

    def test_final_set_must_follow_the_last_step(self):
        # The steps grow a K = 4, L = 4 set to K = 6; Hadamard 16 is not their end.
        report = upscale_chain(hadamard_set(4), 6)
        with pytest.raises(InternalConsistencyError, match="final set"):
            ChainReport(report.records, hadamard_set(16))

    def test_steps_share_one_method(self):
        sd = upscale_chain(hadamard_set(4), 6, "sd")
        quant = upscale_chain(sd.final_set, 8, "quant")
        with pytest.raises(InternalConsistencyError, match="chain break at K=6"):
            ChainReport(sd.records + quant.records, quant.final_set)

    def test_empty_report_refused(self):
        with pytest.raises(ValueError, match="at least one step"):
            ChainReport((), hadamard_set(4))


class TestCompareMethods:
    def test_hadamard_16_all_methods_tie(self):
        row = compare_methods(hadamard_set(16))
        assert row.k_after == 17
        assert row.tsc_quant == row.tsc_descent == row.tsc_sd == row.tsc_ml == 4864

    def test_baselines_never_beat_optimal(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            length = int(rng.integers(2, 9))
            s = random_set(rng, int(rng.integers(length, 2 * length)), length)
            row = compare_methods(s)
            assert row.tsc_sd == row.tsc_ml
            assert row.tsc_descent >= row.tsc_sd
            assert row.tsc_quant >= row.tsc_descent

    def test_one_factorization_per_set(self, monkeypatch):
        # Only the sphere walk factors a compared set; the jitter flag and the
        # operation bound, which need a factor of R, belong to extension records.
        calls = []
        original = sigforge.sphere.cholesky
        for module in (sigforge.sphere, sigforge.harness):
            monkeypatch.setattr(module, "cholesky",
                                lambda entries: calls.append(entries) or original(entries))
        compare_methods(random_set(np.random.default_rng(21), 32, 21))
        assert len(calls) == 1

    def test_cap_precondition(self):
        rng = np.random.default_rng(68)
        s = random_set(rng, 30, 25)
        with pytest.raises(CapExceeded):
            compare_methods(s)


class TestOneShot:
    def test_empty_batch(self):
        report = one_shot_experiment([])
        assert report.entries == ()

    def test_good_and_bad_paths(self, tmp_path):
        good = tmp_path / "h16.txt"
        save_set(hadamard_set(16), good)
        report = one_shot_experiment([good, tmp_path / "missing.txt"])
        ok, bad = report.entries
        assert ok.error is None
        assert ok.row.tsc_sd == 4864
        assert bad.error is not None and bad.row is None
        ok_json, bad_json = json.loads(emit_report(report, "json"))["entries"]
        assert ok_json["binary_bound"]["kind"] == "binary_fallback_welch"
        assert ok_json["gap_sd"] == 4864 - welch_bound(17, 16).value
        assert bad_json["binary_bound"] is None and bad_json["gap_sd"] is None

    def test_entry_holds_a_row_or_an_error(self):
        # Neither would serialize a row of empty cells that counts as a success.
        row = compare_methods(hadamard_set(4))
        with pytest.raises(ValueError, match="exactly one"):
            CompareEntry("x")
        with pytest.raises(ValueError, match="exactly one"):
            CompareEntry("x", error="bad", row=row)

    def test_gap_columns_match_rows(self, tmp_path):
        path = tmp_path / "h4.txt"
        save_set(hadamard_set(4), path)
        entry = json.loads(emit_report(one_shot_experiment([path]), "json"))["entries"][0]
        assert entry["binary_bound"] == {"value": 100, "kind": "binary_fallback_welch"}
        for method in ("quant", "descent", "sd", "ml"):
            assert entry[f"gap_{method}"] == entry[f"tsc_{method}"] - 100
        assert entry["gap_sd"] == 12

    def test_set_above_cap_is_a_per_file_error(self, tmp_path):
        rng = np.random.default_rng(69)
        ok, big = tmp_path / "ok8.txt", tmp_path / "big25.txt"
        save_set(random_set(rng, 10, 8), ok)
        save_set(random_set(rng, 30, 25), big)
        first, capped, last = one_shot_experiment([ok, big, ok]).entries
        assert first.error is None and first.row.tsc_sd == first.row.tsc_ml
        assert last.row == first.row
        assert capped.row is None
        assert "cap of 24" in capped.error


class TestEmitReport:
    def test_single_step_csv_shape(self):
        report = upscale_chain(hadamard_set(4), 5)
        text = emit_report(report, "csv").decode("utf-8")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("step,k_before,k_after,length,method,")
        assert lines[1].split(",")[:8] == ["1", "4", "5", "4", "sd", "16", "64", "112"]

    def test_descent_label_is_marked_as_stand_in(self):
        report = upscale_chain(hadamard_set(4), 5, "descent")
        assert "descent(stand-in)" in emit_report(report, "csv").decode("utf-8")
        doc = json.loads(emit_report(report, "json"))
        assert doc["method"] == "descent(stand-in)"

    def test_byte_identical_serialization(self):
        report = upscale_chain(hadamard_set(4), 7)
        assert emit_report(report, "csv") == emit_report(report, "csv")
        assert emit_report(report, "json") == emit_report(report, "json")

    def test_json_round_trip_integers(self):
        report = upscale_chain(hadamard_set(4), 6)
        doc = json.loads(emit_report(report, "json"))
        assert doc["schema"] == "sigforge.report/1"
        assert doc["kind"] == "chain"
        for record, step in zip(report.records, doc["steps"]):
            assert step["metric"] == record.metric
            assert step["tsc_after"] == record.tsc_after
            assert step["nodes_visited"] == record.nodes_visited
            assert step["welch_after"]["value"] == record.welch_after.value

    def test_compare_report_formats(self, tmp_path):
        path = tmp_path / "h4.txt"
        save_set(hadamard_set(4), path)
        report = one_shot_experiment([path, tmp_path / "nope.txt"])
        csv_text = emit_report(report, "csv").decode("utf-8")
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("path,k_after,length,")
        assert len(lines) == 3
        doc = json.loads(emit_report(report, "json"))
        assert doc["kind"] == "compare"
        assert doc["entries"][0]["tsc_sd"] == 112
        assert doc["entries"][1]["error"] is not None

    def test_unknown_format_rejected(self):
        report = upscale_chain(hadamard_set(4), 5)
        with pytest.raises(ValueError):
            emit_report(report, "xml")
        with pytest.raises(ValueError):
            emit_report(CompareReport(entries=()), "yaml")
        with pytest.raises(ValueError):
            emit_report("not a report", "csv")


class TestAuditEndToEnd:
    def test_audit_on_by_default_up_to_L16(self):
        assert AUDIT_AUTO_MAX_L == 16
        report = upscale_chain(hadamard_set(8), 12)
        assert all(flag is True for flag in report.audit)

    def test_audit_cannot_be_switched_off(self):
        report = upscale_chain(hadamard_set(8), 10, audit=False)
        assert all(flag is True for flag in report.audit)

    def test_unforced_step_at_l16_carries_the_scan_proof(self):
        s = random_set(np.random.default_rng(74), 20, AUDIT_AUTO_MAX_L)
        _, record, agreement = extend_once(s, "sd", audit=False)
        assert agreement is True and record.audit_agreement is True


class TestCapAndAuditBoundaries:
    """The automatic audit ends at L = 16 and the scan at the fixed cap of
    L = 24; no argument or environment variable moves either."""

    def test_automatic_audit_ends_at_l16(self):
        rng = np.random.default_rng(71)
        for length, expected in ((AUDIT_AUTO_MAX_L, True), (AUDIT_AUTO_MAX_L + 1, None)):
            _, _, agreement = extend_once(random_set(rng, length + 4, length), "sd")
            assert agreement is expected

    def test_forced_audit_ends_at_the_cap(self):
        assert ML_CAP == 24
        rng = np.random.default_rng(72)
        _, _, agreement = extend_once(random_set(rng, 36, ML_CAP), "sd", audit=True)
        assert agreement is True
        with pytest.raises(CapExceeded, match="L=25 exceeds the exhaustive-search cap of 24"):
            extend_once(random_set(rng, 36, ML_CAP + 1), "sd", audit=True)

    def test_scan_takes_no_cap(self):
        with pytest.raises(TypeError):
            ml_exhaustive(correlation_matrix(hadamard_set(4)), cap=ML_CAP)


class TestAuditMismatch:
    """A sphere-vs-scan disagreement is fatal wherever the audit runs."""

    @pytest.mark.parametrize("method", ["sd", "ml", "quant", "descent"])
    def test_extend_once_raises(self, wrong_scan, method):
        with pytest.raises(InternalConsistencyError) as caught:
            extend_once(hadamard_set(4), method, audit=True)
        assert f"K=4, L=4, method {method}:" in str(caught.value)

    def test_compare_methods_raises(self, wrong_scan):
        with pytest.raises(InternalConsistencyError) as caught:
            compare_methods(hadamard_set(8))
        assert "K=8, L=8, method sd:" in str(caught.value)
