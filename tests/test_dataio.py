import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spincavity import (DataValidationError, DomainError, FormatError,
                        ScanConfig, SchemaError, Spectrum, SystemParams,
                        TrionLevels, lorentzian_spectrum)
from spincavity.dataio import (atomic_write_text, fit_report_record,
                               load_fit_report, load_levels, load_params,
                               load_spectrum, save_params, sha256_of,
                               spectrum_to_text)

# Finite and awkward values alike, so drawn rows break each point rule.
POINT_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 2.0]),
    st.floats(allow_nan=True, allow_infinity=True))


def first_broken_row(rows):
    """Index of the first (freq, refl, weight) row breaking a point rule."""
    for i, (f, r, w) in enumerate(rows):
        rising = i == 0 or f > rows[i - 1][0]
        if not (math.isfinite(f) and rising and math.isfinite(f - rows[0][0])
                and math.isfinite(r) and r >= 0 and math.isfinite(w) and w > 0):
            return i
    return None


# Values whose text is easy to get wrong: signed zeros, subnormals, the
# largest magnitudes and numbers with 17 significant digits.
NON_NEGATIVE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                     1.7976931348623157e308, 0.1, 1 / 3]),
    st.floats(min_value=0.0, allow_infinity=False))
AWKWARD_ROW = st.tuples(st.one_of(NON_NEGATIVE, NON_NEGATIVE.map(lambda x: -x)),
                        NON_NEGATIVE, NON_NEGATIVE.filter(lambda w: w > 0))
META = st.dictionaries(
    st.from_regex(r"[a-z][a-z_]{0,8}", fullmatch=True),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.from_regex(r"[a-z]{1,8}", fullmatch=True).filter(
                  lambda s: s not in ("inf", "nan", "infinity"))),
    max_size=3)


def reference_text(spec) -> str:
    """The CSV text written one element at a time with repr(float(x))."""
    lines = [f"# {key}={spec.meta[key]}" for key in sorted(spec.meta)]
    lines.append("freq_ghz,reflectivity,weight")
    for i in range(spec.n_points):
        lines.append(",".join(repr(float(column[i])) for column in
                              (spec.freq_ghz, spec.reflectivity, spec.weight)))
    return "\n".join(lines) + "\n"


PARAMS_RECORD = {
    "kappa": 31.79, "g3": 7.2, "g4": 17.2,
    "gamma_d3": 3.1, "gamma_d4": 1.4,
    "omega_c": 321855.66, "omega_x": 321867.66, "delta_h": 12.0,
}


class TestSpectrumFiles:
    def test_round_trip(self, tmp_path):
        cfg = ScanConfig(-100, 100, 1001, scale=123.456, background=0.0789)
        spec = replace(lorentzian_spectrum(31.79, 3.21, cfg),
                       meta={"label": "bare", "field_T": 6.2})
        path = tmp_path / "spec.csv"
        atomic_write_text(path, spectrum_to_text(spec))
        back = load_spectrum(path)
        assert np.max(np.abs(back.freq_ghz - spec.freq_ghz)) == 0.0
        assert np.max(np.abs(back.reflectivity - spec.reflectivity)) == 0.0
        assert np.max(np.abs(back.weight - spec.weight)) == 0.0
        assert back.meta["field_T"] == 6.2
        assert back.meta["label"] == "bare"

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(AWKWARD_ROW, min_size=3, max_size=8,
                         unique_by=lambda row: row[0]),
           meta=META)
    def test_text_is_the_repr_of_each_value(self, rows, meta):
        rows.sort(key=lambda row: row[0])
        # the largest magnitudes of both signs span more than a float holds
        assume(math.isfinite(rows[-1][0] - rows[0][0]))
        spec = Spectrum(*zip(*rows), meta=meta)
        text = spectrum_to_text(spec)
        assert text == reference_text(spec)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.csv"
            atomic_write_text(path, text)
            assert path.read_text() == text
            back = load_spectrum(path)
        for got, want in ((back.freq_ghz, spec.freq_ghz),
                          (back.reflectivity, spec.reflectivity),
                          (back.weight, spec.weight)):
            assert got.tobytes() == want.tobytes()
        assert back.meta == meta

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

    @pytest.mark.parametrize("text, message", [
        ("freq_ghz,reflectivity,weight\n1.0,0.5,1,9\n2.0,0.6,1\n3.0,0.7,1\n",
         r"layout\.csv:2: expected 3 comma-separated values"),
        ("freq_ghz,reflectivity\n1.0,0.5\n2.0,0.6,1\n3.0,0.7\n",
         r"layout\.csv:3: expected 2 comma-separated values"),
        ("# seed=1\n\n", "missing header"),
        ("", "missing header")])
    def test_extra_columns_or_no_header_refused(self, tmp_path, text, message):
        path = tmp_path / "layout.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
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

    @pytest.mark.parametrize("freq, line", [("nan", 3), ("1e999", 5),
                                            ("-inf", 2)])
    def test_nonfinite_frequency_names_its_line(self, tmp_path, freq, line):
        rows = ["1.0,0.5", "2.0,0.6", "3.0,0.7"]
        rows.insert(line - 2, f"{freq},0.8")
        path = tmp_path / "freq.csv"
        path.write_text("freq_ghz,reflectivity\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataValidationError, match=rf"freq\.csv:{line}: "
                                                      "frequency must be finite"):
            load_spectrum(path)

    # The loader applies Spectrum's point rules: it refuses exactly the
    # rows Spectrum refuses, naming the first offending row's line.
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(POINT_VALUES, POINT_VALUES, POINT_VALUES),
                         min_size=3, max_size=8),
           ordered=st.booleans())
    def test_loader_refuses_what_spectrum_refuses(self, rows, ordered):
        if ordered:
            rows.sort(key=lambda row: row[0])
        bad = first_broken_row(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            path.write_text("freq_ghz,reflectivity,weight\n" + "".join(
                f"{f!r},{r!r},{w!r}\n" for f, r, w in rows))
            if bad is None:
                loaded = load_spectrum(path)
                for got, want in zip((loaded.freq_ghz, loaded.reflectivity,
                                      loaded.weight), zip(*rows)):
                    assert np.array_equal(got, want)
                Spectrum(*zip(*rows))
                return
            with pytest.raises(DataValidationError,
                               match=rf"rows\.csv:{bad + 2}: "):
                load_spectrum(path)
        with pytest.raises(DomainError, match=f"spectrum point {bad}: "):
            Spectrum(*zip(*rows))

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

    def test_top_level_array_refused(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([PARAMS_RECORD]))
        with pytest.raises(SchemaError, match="JSON object"):
            load_params(path)

    def test_integral_float_fock_dim_accepted(self, tmp_path):
        path = tmp_path / "fock.json"
        path.write_text(json.dumps(dict(PARAMS_RECORD, fock_dim=4.0)))
        params, _ = load_params(path)
        assert params.fock_dim == 4 and type(params.fock_dim) is int

    def test_fractional_fock_dim_refused(self, tmp_path):
        path = tmp_path / "fock.json"
        path.write_text(json.dumps(dict(PARAMS_RECORD, fock_dim=4.5)))
        with pytest.raises(SchemaError, match="fock_dim must be an integer"):
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
        # the text the fit command writes
        atomic_write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")
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
        text = spectrum_to_text(lorentzian_spectrum(5.0, 0.0, cfg))
        target = tmp_path / "out.csv"
        import spincavity.dataio as dio
        original = dio.os.replace

        def exploding(src, dst):
            raise OSError("disk full")

        # the rename fails after the temporary file was written
        monkeypatch.setattr(dio.os, "replace", exploding)
        with pytest.raises(OSError):
            dio.atomic_write_text(target, text)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(dio.os, "replace", original)
        dio.atomic_write_text(target, text)
        assert target.read_text() == text
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_write_removes_its_temporary_file(self, tmp_path):
        # UTF-8 cannot encode a lone surrogate, so the write itself fails
        import spincavity.dataio as dio
        target = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            dio.atomic_write_text(target, "\ud800")
        assert list(tmp_path.iterdir()) == []
