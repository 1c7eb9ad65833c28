import argparse
import json
import math
import re
import shlex
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spincavity import cli, errors
from spincavity.cli import _numbers, _parse_fields, build_parser, main
from spincavity.dataio import (atomic_write_text, load_fit_report,
                               load_levels, load_params, load_spectrum,
                               save_params, spectrum_to_text)
from spincavity import (ScanConfig, Spectrum, SystemParams, TrionLevels,
                        dit_spectrum, fit, fit_thermal_pup, lorentzian_spectrum,
                        max_relative_difference, mixed_spectrum,
                        synthesize_noisy, two_transition_spectrum)
from spincavity.fitkit import problem_from_params
from spincavity.spectra import FringeModel
from conftest import (CAVITY_NM, DELTA_H, DIAMAGNETIC, DOT_0T_NM, ELECTRON_G,
                      G3, G4, G_TOTAL, GAMMA_D3, GAMMA_D4, HOLE_G, KAPPA)
from spincavity.physcalc import wavelength_to_frequency
from spincavity.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_T

SCALE = (np.pi * KAPPA) ** 2


@pytest.fixture
def params_file(tmp_path):
    params = SystemParams(kappa=KAPPA, g3=G3, g4=G4, gamma_d3=GAMMA_D3,
                          gamma_d4=GAMMA_D4, omega_c=0.0, omega_x=DELTA_H,
                          delta_h=DELTA_H)
    path = tmp_path / "params.json"
    save_params(params, path)
    return path


@pytest.fixture
def levels_file(tmp_path):
    params = SystemParams(kappa=KAPPA, g3=G3, g4=G4, gamma_d3=GAMMA_D3,
                          gamma_d4=GAMMA_D4,
                          omega_c=wavelength_to_frequency(CAVITY_NM),
                          omega_x=wavelength_to_frequency(CAVITY_NM) + DELTA_H,
                          delta_h=DELTA_H)
    levels = TrionLevels(zero_field_frequency=wavelength_to_frequency(DOT_0T_NM),
                         electron_g=ELECTRON_G, hole_g=HOLE_G,
                         diamagnetic_coeff=DIAMAGNETIC)
    path = tmp_path / "full.json"
    save_params(params, path, levels)
    return path


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    atomic_write_text(path, spectrum_to_text(
        lorentzian_spectrum(KAPPA, 0.0, ScanConfig(-60, 60, 21))))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (error class, exit code, stderr prefix) for an error raised by a command.
ERROR_ROWS = [
    (errors.DomainError, 2, "spincavity: error"),
    (errors.StateError, 3, "spincavity: numerical error"),
    (errors.NumericalError, 3, "spincavity: numerical error"),
    (errors.SpinCavityError, 2, "spincavity: error"),
    (FileNotFoundError, 2, "spincavity: error"),
]


class TestSimulate:
    def test_two_transition_dip_near_cavity(self, tmp_path, params_file, capsys):
        out = tmp_path / "two.csv"
        code, stdout, _ = run(capsys, "simulate", "--params", str(params_file),
                              "--model", "two", "--scan", "-60,60,241",
                              "--out", str(out))
        assert code == 0
        spec = load_spectrum(out)
        dip = spec.freq_ghz[int(np.argmin(spec.reflectivity))]
        assert abs(dip - 0.0) <= 2.8
        summary = json.loads(stdout)
        assert summary["version"]
        assert str(params_file) in summary["inputs"]

    def test_mixed_pup_one_is_bare(self, tmp_path, params_file, capsys):
        out = tmp_path / "mixed.csv"
        code, _, _ = run(capsys, "simulate", "--params", str(params_file),
                         "--model", "mixed", "--pup", "1.0",
                         "--scan", "-60,60,121", "--out", str(out))
        assert code == 0
        spec = load_spectrum(out)
        cfg = ScanConfig(-60, 60, 121)
        bare = lorentzian_spectrum(KAPPA, 0.0, cfg)
        assert np.max(np.abs(spec.reflectivity - bare.reflectivity)) < 1e-14

    # transition 4 without loss (gamma4 = gamma_d4 = 0) and a probe point
    # on it: the closed form gives the response's limit there, 0
    @pytest.mark.parametrize("model, scan, point", [
        ("two", "-60,60,241", 120), ("master", "-60,60,5", 2)])
    def test_lossless_line(self, tmp_path, params_file, capsys, model, scan,
                           point):
        lossless = tmp_path / "lossless.json"
        lossless.write_text(json.dumps(dict(json.loads(params_file.read_text()),
                                            gamma4=0.0, gamma_d4=0.0)))
        out = tmp_path / "lossless.csv"
        code, stdout, err = run(capsys, "simulate", "--params", str(lossless),
                                "--model", model, "--scan", scan,
                                "--out", str(out))
        assert (code, err) == (0, "")
        spec = load_spectrum(out)
        assert spec.freq_ghz[point] == 0.0
        if model == "two":
            assert spec.reflectivity[point] == 0.0
        else:
            assert json.loads(stdout)["max_rel_diff_master_vs_two"] < 1e-3

    # fock_dim 20 is admitted, but the convergence check's fock_dim 22 is
    # not: it is refused before any steady state of the scan is solved
    def test_master_refuses_the_larger_cutoff_before_the_scan(
            self, tmp_path, params_file, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a steady state was solved")

        monkeypatch.setattr(cli.hilbert, "steady_state", never)
        big = tmp_path / "big.json"
        big.write_text(json.dumps(dict(json.loads(params_file.read_text()),
                                       fock_dim=20)))
        out = tmp_path / "never.csv"
        code, stdout, err = run(capsys, "simulate", "--params", str(big),
                                "--model", "master", "--scan", "-60,60,5",
                                "--out", str(out))
        assert (code, stdout, err) == (
            2, "", "spincavity: error: fock_dim=22 needs a 290 MiB generator, "
                   "above the 256 MiB limit\n")
        assert not out.exists()

    def test_mixed_requires_pup(self, tmp_path, params_file, capsys):
        out = tmp_path / "never.csv"
        code, _, err = run(capsys, "simulate", "--params", str(params_file),
                           "--model", "mixed", "--scan", "-60,60,121",
                           "--out", str(out))
        assert code == 2
        assert "pup" in err
        assert not out.exists()

    def test_master_cross_check_in_summary(self, tmp_path, params_file, capsys):
        out = tmp_path / "master.csv"
        code, stdout, _ = run(capsys, "simulate", "--params", str(params_file),
                              "--model", "master", "--scan", "-60,60,41",
                              "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["max_rel_diff_master_vs_two"] <= 0.01
        assert summary["fock_convergence_shift"] < 1e-3

    def test_plot_svg(self, tmp_path, params_file, capsys):
        out = tmp_path / "s.csv"
        plot = tmp_path / "s.svg"
        code, _, _ = run(capsys, "simulate", "--params", str(params_file),
                         "--model", "dit", "--scan", "-60,60,121",
                         "--out", str(out), "--plot", str(plot))
        assert code == 0
        body = plot.read_text()
        assert body.startswith("<?xml")
        assert "<svg" in body and "polyline" in body

    def test_wavelength_axis_scan(self, tmp_path, levels_file, capsys):
        out = tmp_path / "wl.csv"
        plot = tmp_path / "wl.svg"
        code, _, _ = run(capsys, "simulate", "--params", str(levels_file),
                         "--model", "two", "--scan", "931.40,931.50,101",
                         "--wavelength-axis", "--out", str(out),
                         "--plot", str(plot))
        assert code == 0
        spec = load_spectrum(out)
        lo = wavelength_to_frequency(931.50)
        hi = wavelength_to_frequency(931.40)
        assert spec.freq_ghz[0] == pytest.approx(lo, rel=1e-12)
        assert spec.freq_ghz[-1] == pytest.approx(hi, rel=1e-12)
        assert "wavelength (nm)" in plot.read_text()

    def test_bad_scan_flag(self, tmp_path, params_file, capsys):
        code, _, err = run(capsys, "simulate", "--params", str(params_file),
                           "--model", "two", "--scan", "10,20",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "START,STOP,N" in err


def _converts(kind, part):
    try:
        value = kind(part)
    except ValueError:
        return False
    return kind is int or math.isfinite(value)


NUMBER_TEXT = st.lists(
    st.one_of(st.floats().map(repr), st.integers().map(str),
              st.text(max_size=4)), max_size=4).map(",".join)
FORMS = st.sampled_from([(float, float, int), (int, float),
                         (float, float, float)])


def _axis_ticks(svg_path):
    """Each axis's tick labels, and the y-axis tick rows, of a written plot."""
    root = ET.parse(svg_path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    where = {("y", f"{HEIGHT - MARGIN_B + 20:.1f}"): "x",
             ("x", f"{MARGIN_L - 9:.1f}"): "y",
             ("y", f"{MARGIN_T - 9:.1f}"): "nm"}
    labels = {"x": [], "y": [], "nm": []}
    for text in root.iter(ns + "text"):
        for (attr, value), axis in where.items():
            if text.get(attr) == value and text.get("font-size") in ("10", "11"):
                labels[axis].append(text.text)
    rows = [float(line.get("y1")) for line in root.iter(ns + "line")
            if line.get("x1") == str(MARGIN_L - 5)]
    return labels, rows


class TestPlotAxes:
    """Tick labels are distinct and exact, and ticks sit on the canvas."""

    def _plot(self, capsys, tmp_path, params, *flags):
        plot = tmp_path / "axes.svg"
        code, _, err = run(capsys, "simulate", "--params", str(params),
                           *flags, "--out", str(tmp_path / "axes.csv"),
                           "--plot", str(plot))
        assert code == 0, err
        return _axis_ticks(plot)

    def test_picometre_zoom_on_the_cavity(self, tmp_path, levels_file, capsys):
        # +-1 pm around 931.45 nm: 0.2 GHz steps near 321 856 GHz
        labels, _ = self._plot(capsys, tmp_path, levels_file, "--model", "two",
                               "--scan", "931.449,931.451,21",
                               "--wavelength-axis")
        assert labels["x"] == ["321855.4", "321855.6", "321855.8", "321856"]
        assert labels["nm"] == ["931.4508", "931.4502", "931.4496", "931.449"]

    def test_small_range_above_a_background(self, tmp_path, params_file, capsys):
        labels, _ = self._plot(capsys, tmp_path, params_file, "--model",
                               "mixed", "--pup", "0.3", "--scan", "-60,60,241",
                               "--scale", "3.2", "--background", "0.01")
        assert labels["y"] == ["0.01005", "0.0101", "0.01015", "0.0102"]

    def test_tiny_reflectivities(self, tmp_path, capsys):
        # README's cavity sits near 321 856 GHz, so at -60..60 GHz the
        # reflectivity is about 2.4e-13
        params = tmp_path / "params.json"
        params.write_text(_readme_blocks("json")[0], encoding="utf-8")
        labels, rows = self._plot(capsys, tmp_path, params, "--model", "two",
                                  "--scan", "-60,60,241")
        assert labels["y"] == ["2.4445e-13", "2.445e-13", "2.4455e-13",
                               "2.446e-13"]
        assert all(MARGIN_T <= row <= HEIGHT - MARGIN_B for row in rows)

    # a scan span whose tick step underflows gets one tick, at its start
    @pytest.mark.parametrize("scan", ["0,1e-323,3", "0,3e-323,3"])
    def test_subnormal_scan_span(self, tmp_path, params_file, capsys, scan):
        labels, _ = self._plot(capsys, tmp_path, params_file, "--model", "two",
                               "--scan", scan)
        assert labels["x"] == ["0"]


class TestNumbers:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(NUMBER_TEXT, FORMS)
    def test_values_of_the_right_count_or_cli_error(self, text, types):
        parts = text.split(",")
        valid = len(parts) == len(types) and all(
            _converts(kind, part) for kind, part in zip(types, parts))
        try:
            values = _numbers("--flag", text, "FORM", types)
        except errors.DomainError as exc:
            assert not valid
            assert "--flag" in str(exc)
        else:
            assert valid
            assert values == tuple(kind(p) for kind, p in zip(types, parts))
            assert [type(v) for v in values] == list(types)


class TestSynth:
    def test_zero_noise_equals_simulate(self, tmp_path, params_file, capsys):
        sim = tmp_path / "sim.csv"
        syn = tmp_path / "syn.csv"
        run(capsys, "simulate", "--params", str(params_file), "--model", "two",
            "--scan", "-60,60,121", "--out", str(sim))
        code, _, _ = run(capsys, "synth", "--params", str(params_file),
                         "--model", "two", "--scan", "-60,60,121",
                         "--noise", "0", "--fringe", "0,1,0", "--seed", "1",
                         "--out", str(syn))
        assert code == 0
        a = load_spectrum(sim)
        b = load_spectrum(syn)
        assert np.array_equal(a.reflectivity, b.reflectivity)

    def test_same_seed_identical_files(self, tmp_path, params_file, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "synth", "--params", str(params_file),
                             "--model", "two", "--scan", "-60,60,121",
                             "--noise", "0.01", "--fringe", "0.02,60,0.7",
                             "--seed", "42", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def _synth_single(self, tmp_path, seed=0, noise=0.01):
        cfg = ScanConfig(-80, 80, 241, scale=SCALE, background=0.05)
        from spincavity import dit_spectrum
        clean = dit_spectrum(G_TOTAL, KAPPA, 1.78, 0.0, 0.0, cfg)
        data = synthesize_noisy(clean, noise, FringeModel(0.0, 1.0), seed=seed)
        path = tmp_path / "single.csv"
        atomic_write_text(path, spectrum_to_text(data))
        return path

    def test_single_fit_reports_cooperativity(self, tmp_path, params_file,
                                              capsys):
        data = self._synth_single(tmp_path)
        report_path = tmp_path / "report.json"
        plot = tmp_path / "fit.svg"
        code, stdout, _ = run(capsys, "fit", "--data", str(data),
                              "--params", str(params_file),
                              "--model", "single",
                              "--free", "g,gamma,delta,scale,background",
                              "--out", str(report_path), "--plot", str(plot))
        assert code == 0
        report = load_fit_report(report_path)
        assert report["converged"]
        assert report["derived"]["cooperativity"] == pytest.approx(12.32, abs=0.6)
        assert report["derived"]["strong_coupling"] is True
        assert report["provenance"]["tool_version"]
        assert plot.exists()

    def _fit_lorentzian(self, tmp_path, params_file, data_file, capsys):
        out = tmp_path / "lor.json"
        code, stdout, _ = run(capsys, "fit", "--data", str(data_file),
                              "--params", str(params_file),
                              "--model", "lorentzian",
                              "--free", "kappa,omega_c,scale,background",
                              "--out", str(out))
        assert code == 0
        return load_fit_report(out), json.loads(stdout)

    def test_lorentzian_fit_is_the_library_fit(self, tmp_path, params_file,
                                               data_file, capsys):
        report, _ = self._fit_lorentzian(tmp_path, params_file, data_file,
                                         capsys)
        library = fit(problem_from_params(
            load_spectrum(data_file), "lorentzian", load_params(params_file)[0],
            ("kappa", "omega_c", "scale", "background")))
        assert report["params"] == library.params
        assert report["ci95"] == library.ci95

    def test_each_input_hashed_once(self, tmp_path, params_file, data_file,
                                    capsys, monkeypatch):
        import spincavity.cli as cli_mod
        hashed = []
        sha256_of = cli_mod.dataio.sha256_of

        def counted(path):
            hashed.append(str(path))
            return sha256_of(path)

        monkeypatch.setattr(cli_mod.dataio, "sha256_of", counted)
        report, summary = self._fit_lorentzian(tmp_path, params_file,
                                               data_file, capsys)
        digests = report["provenance"]
        assert summary["inputs"] == {str(data_file): digests["data_sha256"],
                                     str(params_file): digests["params_sha256"]}
        assert sorted(hashed) == sorted([str(data_file), str(params_file)])

    def test_infeasible_constraint_exits_2(self, tmp_path, params_file, capsys):
        data = self._synth_single(tmp_path)
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "fit", "--data", str(data),
                           "--params", str(params_file), "--model", "mixed",
                           "--free", "p_up,g4,scale,background",
                           "--constraint", "gtotal=10.0",
                           "--init", "g4=17.2",
                           "--out", str(out))
        assert code == 2
        assert "infeasible" in err
        assert not out.exists()

    def test_pup_only_fit(self, tmp_path, params_file, capsys):
        cfg = ScanConfig(-60, 60, 301, scale=SCALE, background=0.05)
        params = SystemParams(kappa=KAPPA, g3=G3, g4=G4, gamma_d3=GAMMA_D3,
                              gamma_d4=GAMMA_D4, omega_c=0.0, omega_x=DELTA_H,
                              delta_h=DELTA_H)
        up = lorentzian_spectrum(KAPPA, 0.0, cfg)
        down = two_transition_spectrum(params, cfg)
        clean = mixed_spectrum(0.52, up, down)
        noisy = synthesize_noisy(clean, 0.01, FringeModel(0.0, 1.0), seed=3)
        data_path = tmp_path / "thermal.csv"
        atomic_write_text(data_path, spectrum_to_text(noisy))
        out = tmp_path / "pup.json"
        code, _, _ = run(capsys, "fit", "--data", str(data_path),
                         "--params", str(params_file), "--model", "mixed",
                         "--free", "p_up,scale,background",
                         "--out", str(out))
        assert code == 0
        report = load_fit_report(out)
        assert 0.48 <= report["params"]["p_up"] <= 0.56
        # the library's stage two builds the same problem, to the last bit
        library = fit_thermal_pup(load_spectrum(data_path),
                                  load_params(params_file)[0])
        assert report["params"] == library.params
        assert report["ci95"] == library.ci95

    def test_profile_with_nothing_left_free(self, tmp_path, params_file,
                                            capsys):
        # p_up alone is free and finishes on its bound, so its profile
        # re-optimizes an empty parameter vector
        data = tmp_path / "down.csv"
        out = tmp_path / "pup.json"
        scale = repr(SCALE)
        assert run(capsys, "synth", "--params", str(params_file),
                   "--model", "two", "--seed", "2", "--scan", "-60,60,301",
                   "--scale", scale, "--background", "0.05",
                   "--noise", "0.01", "--out", str(data))[0] == 0
        code, _, _ = run(capsys, "fit", "--data", str(data),
                         "--params", str(params_file), "--model", "mixed",
                         "--free", "p_up", "--set", f"scale={scale}",
                         "--set", "background=0.05", "--out", str(out))
        assert code == 0
        report = load_fit_report(out)
        assert report["params"]["p_up"] == 0.0
        assert report["ci_method"]["p_up"] == "profile"
        assert report["ci95"]["p_up"] == pytest.approx(0.0012, abs=1e-4)


class TestExitCodes:
    @pytest.mark.parametrize("key, value", [
        ("kappa", "31.79"),
        ("g3", float("nan")),
        ("omega_c", float("nan")),
        ("gamma_d4", float("inf")),
        ("delta_h", None),
        ("drive_amp", "0.3"),
        ("fock_dim", "4"),
    ])
    def test_mistyped_or_nonfinite_param_exits_2(self, tmp_path, params_file,
                                                 capsys, key, value):
        record = json.loads(params_file.read_text())
        record[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        out = tmp_path / "never.csv"
        code, _, err = run(capsys, "simulate", "--params", str(bad),
                           "--model", "two", "--scan", "-10,10,11",
                           "--out", str(out))
        assert code == 2
        assert key in err
        assert not out.exists()

    # Each flag value is checked before anything runs: exit 2, nothing
    # written, and the flag or the offending name in the message.
    @pytest.mark.parametrize("argv, named", [
        (["fit", "--center-weight", "3,x"], "--center-weight"),
        (["fit", "--center-weight", "3.5,10"], "--center-weight"),
        (["fit", "--set", "bogus=1"], "bogus"),
        (["fit", "--init", "bogus=1"], "bogus"),
        (["fit", "--free", "nonsense"], "nonsense"),
        (["fit", "--set", "kappa=nan"], "kappa"),
        (["fit", "--init", "g4=inf"], "g4"),
        (["fit", "--constraint", "gtotal=inf"], "g_total"),
        (["synth", "--fringe", "0.1,2"], "--fringe"),
        (["synth", "--fringe", "0.1,x,0"], "--fringe"),
        (["simulate", "--scan", "0,1,100000000000000"], "100000000000000"),
        (["synth", "--seed", "-1"], "seed"),
        (["synth", "--noise", "nan"], "noise"),
        (["simulate", "--scale", "nan"], "scale"),
        (["simulate", "--background", "inf"], "background"),
        (["fit", "--init", "g4=17"], "g4"),
        (["fit", "--set", "p_up=0.1"], "p_up"),
        # 1e-320 nm is an infinite frequency: refused before any grid
        pytest.param(["simulate", "--scan", "1e-320,1,5", "--wavelength-axis"],
                     "stop", marks=pytest.mark.filterwarnings(
                         "error::RuntimeWarning")),
        (["fit", "--constraint", "g=1"], "--constraint"),
        (["fit", "--free", ","], "--free"),
        (["simulate", "--scan", "-1e308,1e308,5"], "span"),
    ])
    def test_malformed_flag_exits_2(self, tmp_path, params_file, data_file,
                                    capsys, argv, named):
        base = {"fit": ["--data", str(data_file), "--model", "mixed",
                        "--free", "p_up"],
                "synth": ["--model", "two", "--scan", "-10,10,11",
                          "--noise", "0"],
                "simulate": ["--model", "two", "--scan", "-10,10,11"]}
        command, *flags = argv
        out = tmp_path / "never.out"
        code, stdout, err = run(capsys, command, "--params", str(params_file),
                                *base[command], *flags, "--out", str(out))
        assert code == 2
        assert named in err
        assert stdout == ""
        assert not out.exists()

    def test_undecodable_data_exits_2(self, tmp_path, params_file, capsys):
        data = tmp_path / "utf16.csv"
        data.write_bytes(b"\xff\xfe" + "freq_ghz,reflectivity\n".encode("utf-16-le"))
        out = tmp_path / "never.json"
        code, _, err = run(capsys, "fit", "--data", str(data),
                           "--params", str(params_file), "--model", "lorentzian",
                           "--free", "kappa,omega_c,scale,background",
                           "--out", str(out))
        assert code == 2
        assert "utf16.csv" in err
        assert not out.exists()

    # Each broken point rule names the file and line, with no numpy warning.
    @pytest.mark.parametrize("rows, line", [
        ("1.0,0.5\nnan,0.6\n3.0,0.7\n4.0,0.8\n", 3),
        ("1.0,0.5\n2.0,0.6\n3.0,0.7\n1e999,0.8\n", 5),
        ("-inf,0.5\n2.0,0.6\n3.0,0.7\n4.0,0.8\n", 2),
        ("1.0,0.5\n3.0,0.6\n2.0,0.7\n4.0,0.8\n", 4),
        ("1.0,nan\n2.0,0.6\n3.0,0.7\n4.0,0.8\n", 2),
        ("1.0,-0.5\n2.0,0.6\n3.0,0.7\n4.0,0.8\n", 2),
        ("1.0,0.5\nabc,0.6\n3.0,0.7\n4.0,0.8\n", 3),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_spectrum_file_exits_2(self, tmp_path, params_file,
                                             capsys, rows, line):
        data = tmp_path / "spec.csv"
        data.write_text("freq_ghz,reflectivity\n" + rows)
        out = tmp_path / "never.json"
        code, stdout, err = run(capsys, "fit", "--data", str(data),
                                "--params", str(params_file), "--model",
                                "mixed", "--free", "p_up,scale,background",
                                "--out", str(out))
        assert code == 2
        assert f"spec.csv:{line}:" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_frequency_span_exits_2(self, tmp_path, params_file,
                                                capsys):
        # each frequency is finite, but the span between them is not
        data = tmp_path / "span.csv"
        data.write_text("freq_ghz,reflectivity\n-1e308,1\n0,2\n1e308,1\n")
        out = tmp_path / "never.json"
        code, stdout, err = run(capsys, "fit", "--data", str(data),
                                "--params", str(params_file), "--model",
                                "lorentzian", "--free", "kappa",
                                "--out", str(out))
        assert code == 2
        assert err == (f"spincavity: error: {data}:4: frequency span from the "
                       "first point must be finite, got 1e+308 from -1e+308\n")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_fit_exits_3(self, tmp_path, params_file, capsys):
        # the residuals of a spectrum near 1e250 overflow, so the summary
        # would carry an infinite residual RMS
        spec = lorentzian_spectrum(KAPPA, 0.0, ScanConfig(-60, 60, 41))
        data = tmp_path / "huge.csv"
        atomic_write_text(data, spectrum_to_text(
            Spectrum(spec.freq_ghz, spec.reflectivity * 1e250)))
        out = tmp_path / "never.json"
        code, stdout, err = run(capsys, "fit", "--data", str(data),
                                "--params", str(params_file), "--model",
                                "lorentzian", "--free",
                                "kappa,omega_c,scale,background",
                                "--out", str(out))
        assert code == 3
        assert "residual RMS" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("zero_field_frequency", "321838.42"), ("hole_g", float("nan")),
        ("electron_g", True)])
    def test_mistyped_or_nonfinite_level_exits_2(self, tmp_path, levels_file,
                                                 capsys, key, value):
        record = json.loads(levels_file.read_text())
        record[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        outdir = tmp_path / "never"
        code, _, err = run(capsys, "sweep", "--params", str(bad),
                           "--fields", "0:1:0.5", "--scan", "321795,321915,11",
                           "--out", str(outdir))
        assert code == 2
        assert key in err
        assert not outdir.exists()

    # The square of such a field overflows, so its transition
    # frequencies are not finite.
    @pytest.mark.parametrize("field, shown", [("1e200", "1e+200"),
                                              ("1e308", "1e+308")])
    def test_overflowing_field_exits_2(self, tmp_path, levels_file, capsys,
                                       field, shown):
        outdir = tmp_path / "never"
        code, stdout, err = run(capsys, "sweep", "--params", str(levels_file),
                                "--fields", field, "--scan", "321795,321915,11",
                                "--out", str(outdir))
        assert code == 2
        assert err == (f"spincavity: error: transition frequencies at field "
                       f"{shown} T are not finite\n")
        assert stdout == ""
        assert not outdir.exists()

    def test_numerical_failure_exits_3(self, tmp_path, params_file, capsys,
                                       monkeypatch):
        # numerical failures map to exit 3 and leave no output behind
        import spincavity.cli as cli_mod
        from spincavity.errors import NumericalError

        def exploding(*args, **kwargs):
            raise NumericalError("solve failed", condition_estimate=1e16)

        monkeypatch.setattr(cli_mod.spectra, "master_equation_spectrum",
                            exploding)
        out = tmp_path / "never.csv"
        code, _, err = run(capsys, "simulate", "--params", str(params_file),
                           "--model", "master", "--scan", "-10,10,11",
                           "--out", str(out))
        assert code == 3
        assert "numerical" in err
        assert not out.exists()


    # Finite inputs whose generator, or whose default drive of kappa/100
    # squared, overflows.
    @pytest.mark.parametrize("key, value, named", [
        ("omega_x", 1e308, "steady-state"),
        ("kappa", 1e200, "drive"),
    ])
    def test_overflowing_master_inputs_exit_3(self, tmp_path, params_file,
                                              capsys, key, value, named):
        record = json.loads(params_file.read_text())
        del record["drive_amp"]
        record[key] = value
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(record))
        out = tmp_path / "never.csv"
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "simulate", "--params", str(bad),
                               "--model", "master", "--scan", "-10,10,5",
                               "--out", str(out))
        assert code == 3
        assert named in err
        assert not out.exists()


    def test_overflowing_generator_is_refused_quietly(self, tmp_path,
                                                     params_file, capsys):
        record = json.loads(params_file.read_text())
        record["omega_x"] = 1e308
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(record))
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "simulate", "--params", str(bad),
                               "--model", "master", "--scan", "-10,10,5",
                               "--out", str(out))
        assert code == 3
        assert "generator L0 overflows" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_overflowing_probe_is_refused_quietly(self, tmp_path, params_file,
                                                  capsys):
        # ||L(omega)||_F overflows at every probe of this scan
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, err = run(capsys, "simulate", "--params",
                                    str(params_file), "--model", "master",
                                    "--scan", "1e307,1.7e308,3", "--out", str(out))
        assert code == 3
        assert stdout == ""
        assert err.splitlines() == [
            "spincavity: numerical error: the generator L overflows at "
            "probe_freq=1e+307; no steady-state solve can use it"]
        assert sorted(tmp_path.iterdir()) == [params_file]

    def test_plot_under_a_regular_file_writes_nothing(self, tmp_path,
                                                      params_file, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        code, _, err = run(capsys, "simulate", "--params", str(params_file),
                           "--model", "two", "--scan", "-10,10,11",
                           "--out", str(tmp_path / "spec.csv"),
                           "--plot", str(afile / "x.svg"))
        assert code == 2
        assert "afile" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile",
                                                              "params.json"]

    def test_sweep_with_a_bad_plot_creates_no_directory(self, tmp_path,
                                                        levels_file, capsys):
        code, _, err = run(capsys, "sweep", "--params", str(levels_file),
                           "--fields", "0:1:0.5", "--scan", "321795,321915,11",
                           "--out", str(tmp_path / "outdir"),
                           "--plot", str(tmp_path / "nodir" / "map.svg"))
        assert code == 2
        assert "nodir" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["full.json"]

    @pytest.mark.parametrize("out, plot", [
        ("same.txt", "same.txt"), ("same.txt", "sub/../same.txt"),
        ("sub/same.txt", "link/same.txt")])
    def test_two_outputs_to_one_file_exit_2(self, tmp_path, params_file,
                                            capsys, out, plot):
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "sub")
        code, _, err = run(capsys, "simulate", "--params", str(params_file),
                           "--model", "two", "--scan", "-10,10,11",
                           "--out", str(tmp_path / out),
                           "--plot", str(tmp_path / plot))
        assert code == 2
        assert err == (f"spincavity: error: two outputs would be written to "
                       f"{tmp_path / plot}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link", "params.json", "sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    # One bounds rule for every fit value: a fixed value outside its
    # parameter's default box is refused, as a free one is kept inside it.
    @pytest.mark.parametrize("model, free, value, message", [
        ("mixed", "g4,omega_x,scale,background", "p_up=2",
         "p_up must lie inside [0, 1], got 2"),
        ("mixed", "g4,omega_x,scale,background", "kappa=-5",
         "kappa must lie inside [1e-06, inf], got -5"),
        ("mixed", "g4,omega_x,scale,background", "gamma_d3=-2",
         "gamma_d3 must lie inside [0, inf], got -2"),
        ("single", "delta,scale,background", "g=-3",
         "g must lie inside [0, inf], got -3"),
        ("single", "delta,scale,background", "gamma=-1",
         "gamma must lie inside [1e-09, inf], got -1"),
        ("single", "delta,scale,background", "gamma=0",
         "gamma must lie inside [1e-09, inf], got 0"),
    ], ids=["p_up=2", "kappa=-5", "gamma_d3=-2", "g=-3", "gamma=-1", "gamma=0"])
    def test_fixed_value_outside_its_bounds_exits_2(
            self, tmp_path, params_file, data_file, capsys, model, free,
            value, message):
        out = tmp_path / "never.json"
        code, stdout, err = run(capsys, "fit", "--data", str(data_file),
                                "--params", str(params_file), "--model", model,
                                "--free", free, "--set", value,
                                "--out", str(out))
        assert (code, stdout, err) == (2, "", f"spincavity: error: {message}\n")
        assert not out.exists()

    # Finite inputs whose square overflows are refused before squaring,
    # where Python's float ** would raise OverflowError and numpy warn.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case, message", [
        ("simulate g4=1e200", "{params}: 2 pi g4 = 6.28319e+200"),
        ("fit kappa=1e200", "pi * kappa = 3.14159e+200"),
        ("fit wide data", "pi * peak width = 6.28319e+300"),
        ("fit gtotal=1e308", "g_total = 1e+308"),
    ], ids=["g4", "kappa", "peak_width", "gtotal"])
    def test_overflowing_square_exits_2(self, tmp_path, params_file,
                                        data_file, capsys, case, message):
        record = json.loads(params_file.read_text())
        record.update({"simulate g4=1e200": {"g4": 1e200},
                       "fit kappa=1e200": {"kappa": 1e200}}.get(case, {}))
        params = tmp_path / "huge.json"
        params.write_text(json.dumps(record))
        wide = tmp_path / "wide.csv"
        wide.write_text("freq_ghz,reflectivity\n" + "".join(
            f"{k}e300,{r}\n" for k, r in enumerate((1, 2, 3, 2, 1, 1))))
        fit_argv = ["fit", "--params", str(params), "--data", str(data_file)]
        argv = {
            "simulate g4=1e200": ["simulate", "--params", str(params),
                                  "--model", "two", "--scan", "-60,60,11"],
            "fit kappa=1e200": [*fit_argv, "--model", "single",
                                "--free", "g,scale,background"],
            "fit wide data": ["fit", "--params", str(params),
                              "--data", str(wide), "--model", "lorentzian",
                              "--free", "kappa,omega_c,scale,background"],
            "fit gtotal=1e308": [*fit_argv, "--model", "mixed",
                                 "--free", "g4,scale,background",
                                 "--constraint", "gtotal=1e308"],
        }[case]
        out = tmp_path / "never.out"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout, err) == (
            2, "", f"spincavity: error: {message.format(params=params)} is too "
                   "large: its square overflows\n")
        assert not out.exists()

    def test_every_package_error_has_a_row(self):
        classes = {row[0] for row in ERROR_ROWS}
        assert set(errors.SpinCavityError.__subclasses__()) <= classes

    # every bad input, whether a file, a value or a flag, raises exactly
    # DomainError, with a message naming what is wrong
    @pytest.mark.parametrize("case", ["csv header", "json key", "utf-8",
                                      "level range", "grids", "mixed grids",
                                      "flag"])
    def test_bad_input_raises_exactly_domain_error(self, tmp_path, case):
        path = tmp_path / "input"
        content, call, message = {
            "csv header": (
                b"freq,refl\n1,1\n", load_spectrum,
                f"{path}:1: expected header 'freq_ghz,reflectivity,weight' "
                "(weight optional), got 'freq,refl'"),
            "json key": (b'{"gamma5": 0.1}', load_params,
                         f"{path}: unknown keys ['gamma5']"),
            "utf-8": (b"\xff\xfe", load_spectrum,
                      f"{path}: not UTF-8 text: 'utf-8' codec can't decode "
                      "byte 0xff in position 0: invalid start byte"),
            "level range": (
                b'{"zero_field_frequency": 1, "electron_g": 0.5, '
                b'"hole_g": 0.1, "field": -1}', load_levels,
                f"{path}: field must be >= 0, got -1"),
            "grids": (b"", lambda _: max_relative_difference(
                lorentzian_spectrum(KAPPA, 0.0, ScanConfig(-60, 60, 21)),
                lorentzian_spectrum(KAPPA, 0.0, ScanConfig(-60, 60, 11))),
                "the two spectra are on different frequency grids"),
            "mixed grids": (b"", lambda _: mixed_spectrum(
                0.5, lorentzian_spectrum(KAPPA, 0.0, ScanConfig(-60, 60, 21)),
                lorentzian_spectrum(KAPPA, 0.0, ScanConfig(-60, 60, 11))),
                "the two spectra are on different frequency grids"),
            "flag": (b"", lambda _: _numbers("--scan", "a,1,3", "START,STOP,N",
                                             (float, float, int)),
                     "--scan expects START,STOP,N, got 'a,1,3' (could not "
                     "convert string to float: 'a')"),
        }[case]
        path.write_bytes(content)
        with pytest.raises(errors.DomainError) as info:
            call(path)
        assert type(info.value) is errors.DomainError
        assert str(info.value) == message

    @pytest.mark.parametrize("error, code, prefix", ERROR_ROWS,
                             ids=[row[0].__name__ for row in ERROR_ROWS])
    def test_error_class_picks_exit_code_and_prefix(self, capsys, monkeypatch,
                                                    error, code, prefix):
        def raising(*args):
            raise error("boom")

        monkeypatch.setattr(cli, "cooperativity", raising)
        assert run(capsys, "derive", "--what", "cooperativity", "g=1",
                   "kappa=1", "gamma=1") == (code, "", f"{prefix}: boom\n")

    def test_unbounded_plot_range_exits_3(self, tmp_path, params_file, capsys):
        # the 5% pad above a background near the float limit overflows
        code, _, err = run(capsys, "simulate", "--params", str(params_file),
                           "--model", "two", "--scan", "-60,60,5",
                           "--background", "1.75e308",
                           "--out", str(tmp_path / "x.csv"),
                           "--plot", str(tmp_path / "x.svg"))
        assert code == 3
        assert err.startswith("spincavity: numerical error: plot range is not "
                              "finite")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json"]


class TestSweep:
    def test_field_range(self, tmp_path, levels_file, capsys):
        outdir = tmp_path / "sweep"
        plot = tmp_path / "map.svg"
        code, stdout, _ = run(capsys, "sweep", "--params", str(levels_file),
                              "--fields", "0:6.5:0.5",
                              "--scan", "321795,321915,201",
                              "--out", str(outdir), "--plot", str(plot))
        assert code == 0
        files = sorted(outdir.glob("field_*.csv"))
        assert len(files) == 14
        assert json.loads(stdout)["n_fields"] == 14
        spec = load_spectrum(files[0])
        assert spec.meta["field_T"] == 0.0
        assert plot.exists()

    def test_fields_a_tenth_of_a_millitesla_apart(self, tmp_path, levels_file,
                                                  capsys):
        # each name keeps the fewest decimals, from 3, that give back its
        # field, so fields on a mT grid keep their three-decimal names
        outdir = tmp_path / "outdir"
        code, stdout, _ = run(capsys, "sweep", "--params", str(levels_file),
                              "--fields", "0:0.001:0.0001",
                              "--scan", "321795,321915,11",
                              "--out", str(outdir))
        assert code == 0
        assert json.loads(stdout)["n_fields"] == 11
        names = sorted(p.name for p in outdir.iterdir())
        assert names == sorted(["field_00.000T.csv", "field_00.001T.csv"] + [
            f"field_00.000{k}T.csv" for k in range(1, 10)])
        for name in names:
            field = float(name[len("field_"):-len("T.csv")])
            assert load_spectrum(outdir / name).meta["field_T"] == field

    def test_map_labels_tell_close_fields_apart(self, tmp_path, levels_file,
                                                capsys):
        # five fields 0.1 uT apart: five files and five distinct labels
        outdir = tmp_path / "outdir"
        plot = tmp_path / "map.svg"
        code, _, _ = run(capsys, "sweep", "--params", str(levels_file),
                         "--fields", "6.2:6.2000004:0.0000001",
                         "--scan", "321795,321915,11", "--out", str(outdir),
                         "--plot", str(plot))
        assert code == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == sorted(["field_06.200T.csv"] + [
            f"field_06.200000{k}T.csv" for k in range(1, 5)])
        texts = [t.text for t in ET.fromstring(plot.read_text()).iter(
            "{http://www.w3.org/2000/svg}text")]
        assert [t for t in texts if t.endswith(" T")] == [
            "6.2 T"] + [f"6.200000{k} T" for k in range(1, 5)]

    def test_single_field_name_gives_back_its_field(self, tmp_path,
                                                    levels_file, capsys):
        # one field is rounded to 9 decimals, as a range's fields are
        outdir = tmp_path / "outdir"
        code, _, _ = run(capsys, "sweep", "--params", str(levels_file),
                         "--fields", "0.123456789123",
                         "--scan", "321795,321915,11", "--out", str(outdir))
        assert code == 0
        (path,) = outdir.iterdir()
        assert path.name == "field_00.123456789T.csv"
        assert load_spectrum(path).meta["field_T"] == 0.123456789

    def test_anticrossing_gap_on_output_files(self, tmp_path, levels_file,
                                              capsys):
        # fields around the transition-4 crossing near 6.2 T; the gap
        # between the two tallest peaks of each written spectrum stays
        # at or above twice the coupling
        outdir = tmp_path / "cross"
        code, _, _ = run(capsys, "sweep", "--params", str(levels_file),
                         "--fields", "6.0:6.4:0.2",
                         "--scan", "321775,321935,1601", "--out", str(outdir))
        assert code == 0
        gaps = []
        for path in sorted(outdir.glob("field_*.csv")):
            spec = load_spectrum(path)
            y = spec.reflectivity
            peaks = np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1
            two = peaks[np.argsort(y[peaks])[-2:]]
            gaps.append(abs(spec.freq_ghz[two[1]] - spec.freq_ghz[two[0]]))
        assert len(gaps) == 3
        assert min(gaps) >= 2 * G4

    def test_levels_from_their_own_file(self, tmp_path, levels_file, capsys):
        system = tmp_path / "system.json"
        save_params(load_params(levels_file)[0], system)
        argv = ["--fields", "6.0:6.4:0.2", "--scan", "321775,321935,101"]
        code, stdout, _ = run(capsys, "sweep", "--params", str(system),
                              "--levels", str(levels_file), *argv,
                              "--out", str(tmp_path / "split"))
        assert code == 0
        assert str(levels_file) in json.loads(stdout)["inputs"]
        assert run(capsys, "sweep", "--params", str(levels_file), *argv,
                   "--out", str(tmp_path / "joined"))[0] == 0
        split = sorted((tmp_path / "split").iterdir())
        assert len(split) == 3
        for path in split:
            joined = tmp_path / "joined" / path.name
            assert path.read_bytes() == joined.read_bytes()

    def test_single_field_and_step_overrun(self, tmp_path, levels_file, capsys):
        outdir = tmp_path / "one"
        code, _, _ = run(capsys, "sweep", "--params", str(levels_file),
                         "--fields", "2.0:3.0:5.0",
                         "--scan", "321795,321915,101", "--out", str(outdir))
        assert code == 0
        assert len(list(outdir.glob("field_*.csv"))) == 1

    @pytest.mark.parametrize("text, count, last", [
        ("0:6.5:0.5", 14, 6.5), ("0:1000:0.01", 100001, 1000.0),
        ("0:1000:0.03", 33334, 999.99), ("2.0:3.0:5.0", 1, 2.0),
        ("1.5", 1, 1.5), ("0.123456789123", 1, 0.123456789)])
    def test_fields_from_a_count(self, text, count, last):
        fields = _parse_fields(text)
        assert len(fields) == count
        assert fields[-1] == last
        assert fields == sorted(set(fields))

    def test_field_count_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(errors.DomainError, match="--fields"):
                _parse_fields("0:2:1e-6")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    # No infinite upper bound: a parser that accumulates b += step never
    # returns on one, and this table must fail against such code, not hang.
    @pytest.mark.parametrize("text", ["0:nan:0.5", "0:1:inf", "0:1:0", "0:1",
                                      "5:1:0.5", "0:1e308:1e-10", "nan"])
    def test_bad_fields_exit_2(self, tmp_path, levels_file, capsys, text):
        code, _, err = run(capsys, "sweep", "--params", str(levels_file),
                           "--fields", text, "--scan", "321795,321915,11",
                           "--out", str(tmp_path / "nope"))
        assert code == 2
        assert "--fields" in err

    def test_missing_levels(self, tmp_path, params_file, capsys):
        code, _, err = run(capsys, "sweep", "--params", str(params_file),
                           "--fields", "0:1:0.5", "--scan", "-60,60,101",
                           "--out", str(tmp_path / "nope"))
        assert code == 2
        assert "level" in err


class TestDerive:
    def test_gfactor(self, capsys):
        code, stdout, _ = run(capsys, "derive", "--what", "gfactor",
                              "splitting_nm=0.12", "center_nm=931.4",
                              "field=6.2")
        assert code == 0
        out = json.loads(stdout)
        assert out["g_factor"] == pytest.approx(0.478, abs=0.005)

    def test_pup(self, capsys):
        code, stdout, _ = run(capsys, "derive", "--what", "pup",
                              "delta_e_mev=0.165", "temp=4.2")
        assert code == 0
        assert json.loads(stdout)["p_up"] == pytest.approx(0.388, abs=0.001)

    def test_cooperativity(self, capsys):
        code, stdout, _ = run(capsys, "derive", "--what", "cooperativity",
                              "g=18.67", "kappa=31.79", "gamma=1.78")
        assert code == 0
        assert json.loads(stdout)["cooperativity"] == pytest.approx(12.32,
                                                                    abs=0.05)

    def test_strong(self, capsys):
        code, stdout, _ = run(capsys, "derive", "--what", "strong",
                              "g=18.67", "kappa=31.79", "gamma=1.78")
        assert code == 0
        assert json.loads(stdout)["strong_coupling"] is True

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_value_exits_2(self, capsys, value):
        code, stdout, err = run(capsys, "derive", "--what", "gfactor",
                                f"splitting_ghz={value}", "field=1")
        assert code == 2
        assert "splitting_ghz" in err
        assert stdout == ""

    # Each quotient whose denominator underflows to 0 or whose value
    # overflows is refused, not raised out of main.
    @pytest.mark.parametrize("what, values, named", [
        ("cooperativity", ["g=1", "kappa=1e-320", "gamma=1e-10"], "cooperativity"),
        ("cooperativity", ["g=1e200", "kappa=1", "gamma=1"], "cooperativity"),
        ("gfactor", ["splitting_ghz=1", "field=1e-320"], "g-factor"),
        ("gfactor", ["splitting_nm=1", "center_nm=1e-200", "field=1"], "splitting"),
        ("pup", ["delta_e_mev=1", "temp=1e-320"], "dE / kT"),
    ])
    def test_nonfinite_result_exits_2(self, capsys, what, values, named):
        code, stdout, err = run(capsys, "derive", "--what", what, *values)
        assert code == 2
        assert named in err
        assert stdout == ""

    # An output that overflows from finite inputs would print Infinity,
    # which is not JSON.
    @pytest.mark.parametrize("values, named", [
        (["g=1e308", "kappa=1", "gamma=1"], "coherent_side_4g"),
        (["g=1", "kappa=1e308", "gamma=1e308"], "loss_side_kappa_plus_gamma"),
    ])
    def test_overflowing_output_exits_3(self, capsys, values, named):
        code, stdout, err = run(capsys, "derive", "--what", "strong", *values)
        assert code == 3
        assert named in err
        assert stdout == ""

    # An intermediate that overflows has a finite limit here.
    @pytest.mark.parametrize("what, values, key, limit", [
        ("pup", ["delta_e_mev=-1", "temp=1e-300"], "p_up", 1.0),
        ("gfactor", ["splitting_nm=0.12", "center_nm=1e200", "field=6.2"],
         "g_factor", 0.0),
    ])
    def test_overflowing_intermediate_gives_its_limit(self, capsys, what,
                                                      values, key, limit):
        code, stdout, _ = run(capsys, "derive", "--what", what, *values)
        assert code == 0
        assert json.loads(stdout)[key] == limit

    # A negative coupling is refused by both coupling derivations.
    @pytest.mark.parametrize("what", ["cooperativity", "strong"])
    def test_negative_coupling_exits_2(self, capsys, what):
        code, stdout, err = run(capsys, "derive", "--what", what,
                                "g=-18.67", "kappa=31.79", "gamma=1.78")
        assert code == 2
        assert "must be" in err
        assert stdout == ""

    def test_missing_key(self, capsys):
        code, _, err = run(capsys, "derive", "--what", "pup")
        assert code == 2
        assert "delta_e_mev" in err

    # A key its --what does not read is refused, not ignored: "temperature"
    # would otherwise leave the 4.2 K default in force.
    @pytest.mark.parametrize("what, values, unknown", [
        ("pup", ["delta_e_mev=0.165", "temperature=1.0"], "temperature"),
        ("cooperativity", ["g=18.67", "kappa=31.79", "gama=5"], "gama"),
        ("strong", ["g=1", "kappa=1", "gamma=1", "temp=4", "x=1"], "temp, x"),
        ("gfactor", ["splitting_ghz=1", "field=1", "g=1"], "g"),
    ])
    def test_unknown_key_exits_2(self, capsys, what, values, unknown):
        code, stdout, err = run(capsys, "derive", "--what", what, *values)
        assert code == 2
        assert err.startswith(f"spincavity: error: --what {what} does not "
                              f"read {unknown}; it reads ")
        assert stdout == ""

    # a splitting given twice is refused, not silently taken from GHz
    @pytest.mark.parametrize("values, named", [
        (["splitting_ghz=1", "splitting_nm=0.12", "center_nm=931.4"],
         "splitting_nm, center_nm"),
        (["splitting_ghz=1", "center_nm=931.4"], "center_nm"),
        (["splitting_ghz=1", "splitting_nm=0.12"], "splitting_nm"),
    ])
    def test_splitting_given_twice_exits_2(self, capsys, values, named):
        code, stdout, err = run(capsys, "derive", "--what", "gfactor",
                                *values, "field=6.2")
        assert code == 2
        assert err.startswith("spincavity: error: --what gfactor takes the "
                              "splitting once")
        assert err.endswith(f"got splitting_ghz and {named}\n")
        assert stdout == ""


class TestParserReuse:
    """``main`` parses every call with one parser, built on first use."""

    FLAGS = ("--set", "delta=0.5", "--init", "g=15")

    @pytest.fixture
    def single_data(self, tmp_path):
        cfg = ScanConfig(-80, 80, 121, scale=SCALE, background=0.05)
        data = tmp_path / "single.csv"
        atomic_write_text(data, spectrum_to_text(synthesize_noisy(
            dit_spectrum(G_TOTAL, KAPPA, 1.78, 0.0, 0.0, cfg), 0.01, seed=0)))
        return data

    @pytest.fixture
    def fit_report(self, tmp_path, params_file, single_data, capsys):
        data = single_data
        outs = (tmp_path / f"report{k}.json" for k in range(100))

        def report(*flags, fresh=False):
            """Report bytes of a single-transition fit with extra flags."""
            if fresh:
                cli._parser.cache_clear()
            out = next(outs)
            code, _, err = run(capsys, "fit", "--data", str(data),
                               "--params", str(params_file),
                               "--model", "single",
                               "--free", "g,gamma,scale,background",
                               *flags, "--out", str(out))
            assert code == 0, err
            return out.read_bytes()

        return report

    def test_fit_flags_do_not_leak_into_later_calls(self, fit_report):
        first = {flags: fit_report(*flags, fresh=True)
                 for flags in (self.FLAGS, ())}
        assert first[self.FLAGS] != first[()]
        for order in ((self.FLAGS, ()), ((), self.FLAGS)):
            for flags in order:
                assert fit_report(*flags) == first[flags]

    def test_refused_calls_leave_later_calls_alone(self, fit_report, tmp_path,
                                                   params_file, single_data,
                                                   capsys):
        first = {flags: fit_report(*flags, fresh=True)
                 for flags in (self.FLAGS, ())}
        with pytest.raises(SystemExit) as exc:
            main(["fit", *self.FLAGS, "--model", "nonesuch"])
        assert exc.value.code == 2
        assert fit_report() == first[()]
        never = tmp_path / "never.json"
        code, _, err = run(capsys, "fit", "--data", str(single_data),
                           "--params", str(params_file), "--model", "single",
                           "--free", "g", *self.FLAGS, "--set", "gamma",
                           "--out", str(never))
        assert code == 2 and "KEY=VALUE" in err
        assert not never.exists()
        assert fit_report(*self.FLAGS) == first[self.FLAGS]
        assert fit_report() == first[()]

    def test_build_parser_gives_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_main_builds_the_parser_tree_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser()
        per_tree = len(built)
        assert per_tree == 6   # the top level and five subcommands
        built.clear()
        cli._parser.cache_clear()
        for _ in range(5):
            code, _, _ = run(capsys, "derive", "--what", "pup",
                             "delta_e_mev=0.1")
            assert code == 0
        assert len(built) == per_tree


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang: str) -> list[str]:
    """The bodies of README's fenced code blocks in ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```",
                      README.read_text(encoding="utf-8"), flags=re.M | re.S)


def _readme_commands() -> list[list[str]]:
    """The arguments of every ``spincavity`` command in README's sh blocks."""
    commands = []
    for block in _readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["spincavity"]:
                commands.append(words[1:])
    return commands


class TestReadme:
    def test_walkthrough_runs_and_recovers_the_occupation(self, tmp_path,
                                                          monkeypatch, capsys):
        (params_json,) = _readme_blocks("json")
        monkeypatch.chdir(tmp_path)
        Path("params.json").write_text(params_json, encoding="utf-8")
        summaries = []
        for argv in _readme_commands():
            code, stdout, err = run(capsys, *argv)
            assert code == 0, f"{argv}: {err}"
            summaries.append(json.loads(stdout))
        (master,) = [s for s in summaries if "max_rel_diff_master_vs_two" in s]
        assert master["max_rel_diff_master_vs_two"] <= 0.01
        stage1, stage2 = [load_fit_report(s["outputs"][0]) for s in summaries
                          if s.get("command") == "fit"]
        for report in (stage1, stage2):
            assert report["converged"] and report["n_iterations"] > 1
        assert stage2["params"]["p_up"] == pytest.approx(0.52, abs=0.1)
