import json

import numpy as np
import pytest

from spincavity import (DataValidationError, FormatError, ScanConfig,
                        SchemaError, SystemParams, TrionLevels,
                        lorentzian_spectrum)
from spincavity.dataio import (fit_report_record, load_fit_report,
                               load_levels, load_params, load_spectrum,
                               save_fit_report, save_params, save_spectrum,
                               sha256_of)

PARAMS_RECORD = {
    "kappa": 31.79, "g3": 7.2, "g4": 17.2,
    "gamma_d3": 3.1, "gamma_d4": 1.4,
    "omega_c": 321855.66, "omega_x": 321867.66, "delta_h": 12.0,
}


class TestSpectrumFiles:
    def test_round_trip(self, tmp_path):
        cfg = ScanConfig(-100, 100, 1001, scale=123.456, background=0.0789)
        spec = lorentzian_spectrum(31.79, 3.21, cfg,
                                   meta={"label": "bare", "field_T": 6.2})
        path = tmp_path / "spec.csv"
        save_spectrum(spec, path)
        back = load_spectrum(path)
        assert np.max(np.abs(back.freq_ghz - spec.freq_ghz)) == 0.0
        assert np.max(np.abs(back.reflectivity - spec.reflectivity)) == 0.0
        assert np.max(np.abs(back.weight - spec.weight)) == 0.0
        assert back.meta["field_T"] == 6.2
        assert back.meta["label"] == "bare"

    def test_weight_column_optional(self, tmp_path):
        path = tmp_path / "two_col.csv"
        path.write_text("freq_ghz,reflectivity\n1.0,0.5\n2.0,0.6\n3.0,0.7\n")
        spec = load_spectrum(path)
        assert np.all(spec.weight == 1.0)

    def test_shuffled_rows_name_offending_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_ghz,reflectivity,weight\n"
                        "1.0,0.5,1\n3.0,0.6,1\n2.0,0.7,1\n")
        with pytest.raises(DataValidationError, match=r"bad\.csv:4"):
            load_spectrum(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("1.0,0.5,1\n2.0,0.6,1\n3.0,0.7,1\n")
        with pytest.raises(FormatError):
            load_spectrum(path)

    def test_nan_and_negative_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("freq_ghz,reflectivity,weight\n"
                        "1.0,nan,1\n2.0,0.6,1\n3.0,0.7,1\n")
        with pytest.raises(DataValidationError, match="nan.csv:2"):
            load_spectrum(path)
        path2 = tmp_path / "neg.csv"
        path2.write_text("freq_ghz,reflectivity,weight\n"
                         "1.0,-0.5,1\n2.0,0.6,1\n3.0,0.7,1\n")
        with pytest.raises(DataValidationError, match="neg.csv:2"):
            load_spectrum(path2)

    def test_non_numeric_row(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("freq_ghz,reflectivity,weight\n"
                        "1.0,0.5,1\nabc,0.6,1\n3.0,0.7,1\n")
        with pytest.raises(DataValidationError, match="text.csv:3"):
            load_spectrum(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe" + "freq_ghz,reflectivity\n".encode("utf-16-le"))
        with pytest.raises(FormatError, match="utf16.csv"):
            load_spectrum(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("freq_ghz,reflectivity,weight\n1.0,0.5,1\n2.0,0.6,1\n")
        with pytest.raises(DataValidationError):
            load_spectrum(path)


class TestParamsFiles:
    def test_round_trip_with_levels(self, tmp_path):
        params = SystemParams(**PARAMS_RECORD, gamma3=0.2, gamma4=0.3,
                              drive_amp=0.5, fock_dim=5)
        levels = TrionLevels(zero_field_frequency=321838.42, electron_g=0.478,
                             hole_g=0.143, diamagnetic_coeff=1.15, field=6.2)
        path = tmp_path / "params.json"
        save_params(params, path, levels)
        p2, l2 = load_params(path)
        assert p2 == params
        assert l2 == levels

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(PARAMS_RECORD))
        params, levels = load_params(path)
        assert params.gamma3 == 0.1 and params.gamma4 == 0.1
        assert params.fock_dim == 4
        assert params.drive_amp == pytest.approx(31.79 / 100)
        assert levels is None

    def test_invalid_value(self, tmp_path):
        record = dict(PARAMS_RECORD, kappa=-1.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        with pytest.raises(DataValidationError, match="bad.json"):
            load_params(path)

    def test_unknown_key_listed(self, tmp_path):
        record = dict(PARAMS_RECORD, gamma5=0.1)
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(record))
        with pytest.raises(SchemaError, match="gamma5"):
            load_params(path)

    def test_missing_required_key(self, tmp_path):
        record = dict(PARAMS_RECORD)
        del record["kappa"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(record))
        with pytest.raises(SchemaError, match="kappa"):
            load_params(path)

    def test_partial_levels_rejected(self, tmp_path):
        record = dict(PARAMS_RECORD, electron_g=0.478)
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(record))
        with pytest.raises(SchemaError):
            load_params(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="garbage.json"):
            load_params(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(FormatError, match="binary.json"):
            load_params(path)

    def test_levels_only_file(self, tmp_path):
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({
            "zero_field_frequency": 321838.42, "electron_g": 0.478,
            "hole_g": 0.143, "diamagnetic_coeff": 1.15}))
        levels = load_levels(path)
        assert levels.electron_g == 0.478
        assert levels.field == 0.0
        bad = tmp_path / "bad_levels.json"
        bad.write_text(json.dumps({"electron_g": 0.478}))
        with pytest.raises(SchemaError):
            load_levels(bad)


class TestFitReports:
    def test_round_trip_lossless(self, tmp_path):
        from spincavity import FitResult
        result = FitResult(
            params={"kappa": 31.79123456789, "scale": 1.0e4 / 3.0},
            ci95={"kappa": 0.123456789e-3, "scale": 45.6},
            residual_rms=1.2345678901234e-5,
            n_iterations=17, converged=True,
            derived={"cooperativity": 12.319926059710673,
                     "strong_coupling": True},
            ci_method={"kappa": "covariance", "scale": "covariance"})
        record = fit_report_record(result, provenance={
            "input_sha256": "ab" * 32, "seed": 7, "tool_version": "0.1.0"})
        path = tmp_path / "report.json"
        save_fit_report(record, path)
        back = load_fit_report(path)
        assert back == record
        # floats survive exactly through the JSON layer
        assert back["params"]["kappa"] == 31.79123456789
        assert back["derived"]["strong_coupling"] is True

    def test_hash_helper(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"payload")
        assert sha256_of(path) == (
            "239f59ed55e737c77147cf55ad0c1b030b6d7ee748a7426952f9b852d5a935e5")


class TestAtomicWrites:
    def test_no_partial_file_on_failure(self, tmp_path, monkeypatch):
        cfg = ScanConfig(-10, 10, 5)
        spec = lorentzian_spectrum(5.0, 0.0, cfg)
        target = tmp_path / "out.csv"
        import spincavity.dataio as dio
        original = dio.atomic_write_text

        def exploding(path, text):
            raise OSError("disk full")

        monkeypatch.setattr(dio, "atomic_write_text", exploding)
        with pytest.raises(OSError):
            dio.save_spectrum(spec, target)
        assert not target.exists()
        monkeypatch.setattr(dio, "atomic_write_text", original)
        dio.save_spectrum(spec, target)
        assert target.exists()
        assert not list(tmp_path.glob("*.tmp"))
