import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanostat import (DataFormatError, FPBackground, MeasurementSet,
                      ModelCurves, PhysicalParams, detuning_to_delta,
                      fp_background, g1_general, g2_tau_general,
                      load_measurements, merge_measurements, params_from_config,
                      read_config, tau_to_dimensionless, write_series)
from fanostat.cli import SCAN_MODES, ScanRequest, main, oracle_check, run_scan

from analytic import reference_write_series


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("# reference configuration\n"
                       "lifetime = 125\n"
                       "t0 = 0.62\n"
                       "beta = 0.99\n\n"
                       "sigma_wander = 4.7\n")
        params = params_from_config(cfg)
        assert params.lifetime == 125.0
        assert params.t0 == 0.62

    def test_bad_line_reports_location(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lifetime = 125\nt0 0.62\n")
        with pytest.raises(DataFormatError, match="bad.cfg:2"):
            read_config(cfg)

    def test_non_numeric_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("t0 = fast\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            read_config(cfg)

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("t00 = 0.5\n")
        with pytest.raises(DataFormatError, match="unknown"):
            params_from_config(cfg)

    def test_overrides_take_precedence(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("t0 = 0.62\n")
        params = params_from_config(cfg, {"t0": 0.5})
        assert params.t0 == 0.5

    def test_repeated_key_is_refused(self, tmp_path, capsys):
        # one of the two values would be dropped silently; --set still overrides
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("lifetime = 125\nt0 = 0.62\nlifetime = 200\n")
        with pytest.raises(DataFormatError, match=r"twice.cfg:3: key 'lifetime' .* line 1"):
            read_config(cfg)
        code = main(["scan", "--mode", "transmission", "--grid=-40:40:3",
                     "--config", str(cfg), "--set", "lifetime=150",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3 and "lifetime" in capsys.readouterr().err
        cfg.write_text("lifetime = 125\nt0 = 0.62\n")
        assert params_from_config(cfg, {"lifetime": 200.0}).lifetime == 200.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            read_config(tmp_path / "nope.cfg")


class TestLoadMeasurements:
    def test_simple_table(self, tmp_path):
        f = tmp_path / "trans.csv"
        f.write_text("detuning_uev,transmission,uncertainty\n"
                     "-9.0,1.2,0.03\n0.0,0.8,0.03\n9.0,0.45,0.03\n")
        rep = load_measurements(f, "transmission")
        assert rep.rejected == ()
        assert rep.data.transmission.shape == (3, 3)

    def test_nan_row_rejected_with_diagnostic(self, tmp_path):
        f = tmp_path / "trans.csv"
        f.write_text("detuning_uev,transmission,uncertainty\n"
                     "-9.0,1.2,0.03\n0.0,nan,0.03\n9.0,0.45,0.03\n")
        rep = load_measurements(f, "transmission")
        assert rep.data.transmission.shape == (2, 3)
        assert len(rep.rejected) == 1
        assert rep.rejected[0][0] == 3    # 1-based line number
        assert "non-finite" in rep.rejected[0][1]

    def test_non_numeric_cell_rejected(self, tmp_path):
        f = tmp_path / "trans.csv"
        f.write_text("detuning_uev,transmission,uncertainty\n"
                     "-9.0,oops,0.03\n9.0,0.45,0.03\n")
        rep = load_measurements(f, "transmission")
        assert len(rep.rejected) == 1

    def test_missing_column(self, tmp_path):
        f = tmp_path / "trans.csv"
        f.write_text("detuning_uev,value\n1.0,2.0\n")
        with pytest.raises(DataFormatError, match="missing columns"):
            load_measurements(f, "transmission")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_measurements(f, "transmission")

    def test_histogram_needs_detuning_metadata(self, tmp_path):
        f = tmp_path / "hist.csv"
        f.write_text("tau_ps,counts\n-100,50\n0,120\n100,50\n")
        with pytest.raises(DataFormatError, match="detuning_uev"):
            load_measurements(f, "g2_histogram")
        f.write_text("# detuning_uev: 9.0\ntau_ps,counts\n-100,50\n0,120\n100,50\n")
        rep = load_measurements(f, "g2_histogram")
        hist = rep.data.g2_histograms[0]
        assert hist.detuning == 9.0
        assert hist.counts[1] == 120.0

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            load_measurements(tmp_path / "x.csv", "spectra")


class TestWriteSeries:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        det = rng.uniform(-40, 40, 17)
        val = rng.standard_normal(17) * np.pi
        unc = np.abs(rng.standard_normal(17)) + 1e-3
        out = tmp_path / "series.csv"
        write_series(("detuning_uev", "transmission", "uncertainty"),
                     list(zip(det, val, unc)), out, "csv",
                     {"convention_reduced_time": "tau_t = tau * gamma / 2"})
        rep = load_measurements(out, "transmission")
        assert np.array_equal(rep.data.transmission,
                              np.column_stack([det, val, unc]))

    def test_metadata_block_and_determinism(self, tmp_path):
        rows = [(1.0, 2.0)]
        meta = {"b_key": 1, "a_key": "x", "convention_reduced_time": "tau_t"}
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series(("x", "y"), rows, f1, "csv", meta)
        write_series(("x", "y"), rows, f2, "csv", meta)
        assert f1.read_bytes() == f2.read_bytes()
        text = f1.read_text()
        assert text.startswith("# a_key: x\n# b_key: 1\n")
        assert "convention_reduced_time" in text

    def test_empty_series_header_only(self, tmp_path):
        f = tmp_path / "empty.csv"
        write_series(("x", "y"), [], f, "csv")
        assert f.read_text() == "x,y\n"

    def test_json_structure(self, tmp_path):
        f = tmp_path / "s.json"
        write_series(("x", "y"), [(1.5, -2.0)], f, "json", {"k": "v"})
        doc = json.loads(f.read_text())
        assert doc["metadata"] == {"k": "v"}
        assert doc["columns"] == ["x", "y"]
        assert doc["rows"] == [[1.5, -2.0]]

    def test_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            write_series(("x",), [(1.0, 2.0)], tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_format_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            write_series(("x",), [(1.0,)], tmp_path / "x.txt", "txt")
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_path_is_a_data_error(self, tmp_path, fmt):
        with pytest.raises(DataFormatError, match="cannot write series"):
            write_series(("x",), [(1.0,)], tmp_path / "missing" / f"x.{fmt}", fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mixed_column_is_the_cell_by_cell_column(self, tmp_path, fmt):
        # keys that are equal but write differently: -0.0 and 0.0, and
        # np.True_ (a string) beside 1, 1.0 and True (the float 1.0 in JSON)
        cells = ["divergent", "", -0.0, 0.0, math.nan, np.float64("nan"), 1, 1.0,
                 True, np.True_, np.int64(-3), "divergent", "-0.0", math.inf,
                 np.float32(0.5), -0.0, ""]
        rows = [(c, i) for i, c in enumerate(cells)]
        write_series(("mixed", "i"), rows, tmp_path / "got", fmt)
        reference_write_series(("mixed", "i"), rows, tmp_path / "want", fmt)
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
        if fmt == "json":
            got = [r[0] for r in json.loads((tmp_path / "got").read_text())["rows"]]
            assert list(map(repr, got)) == [
                "'divergent'", "''", "-0.0", "0.0", "'nan'", "'nan'", "1.0", "1.0",
                "1.0", "'True'", "-3.0", "'divergent'", "'-0.0'", "'inf'", "0.5",
                "-0.0", "''"]

    @pytest.mark.parametrize("average", [True, False], ids=["REF", "average-off"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_scan_file_is_the_cell_by_cell_file(self, tmp_path, mode, fmt, average):
        # run_scan's rows of Python floats give the file that the
        # cell-by-cell writer gives on the same rows of NumPy scalars
        start, stop = (-600.0, 600.0) if mode == "g2trace" else (-40.0, 40.0)
        req = ScanRequest(mode=mode, params=PhysicalParams(), grid_start=start,
                          grid_stop=stop, grid_count=81, out_path=str(tmp_path / "got"),
                          out_format=fmt, average=average,
                          detuning=9.0 if mode == "g2trace" else None)
        columns, rows, meta = run_scan(req)
        assert {type(v) for r in rows for v in r} <= {float, str}
        write_series(columns, rows, req.out_path, fmt, meta)
        scalars = [tuple(np.float64(v) if isinstance(v, float) else v for v in r)
                   for r in rows]
        reference_write_series(columns, scalars, tmp_path / "want", fmt, meta)
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


class TestMerge:
    def test_merge(self):
        a = MeasurementSet(transmission=np.array([[0.0, 1.0, 0.1]]))
        b = MeasurementSet(g2zero=np.array([[9.0, 2.0, 0.1]]))
        m = merge_measurements(a, b)
        assert m.transmission.shape == (1, 3)
        assert m.g2zero.shape == (1, 3)


class TestRunScan:
    def test_transmission_extrema_locations(self, tmp_path):
        req = ScanRequest(mode="transmission", params=PhysicalParams(),
                          grid_start=-40.0, grid_stop=40.0, grid_count=401,
                          out_path=str(tmp_path / "t.csv"))
        cols, rows, meta = run_scan(req)
        det = np.array([r[0] for r in rows])
        val = np.array([r[1] for r in rows])
        assert 5.0 < det[np.argmin(val)] < 13.0
        assert -13.0 < det[np.argmax(val)] < -2.0
        assert 0.3 < val.min() < 0.5
        assert meta["param_t0"] == 0.62

    def test_decompose_identity_and_signs(self):
        req = ScanRequest(mode="decompose", params=PhysicalParams(t0=math.sqrt(0.15)),
                          grid_start=-20.0, grid_stop=20.0, grid_count=101,
                          out_path="unused")
        cols, rows, _ = run_scan(req)
        assert cols[:2] == ("detuning_uev", "delta")
        arr = np.array([r[2:6] for r in rows], dtype=float)
        fin = np.isfinite(arr[:, 3])
        assert np.allclose(arr[fin, 0] + arr[fin, 1] + arr[fin, 2], arr[fin, 3],
                           atol=1e-12)
        assert np.all(arr[fin, 2] <= 0)     # T0 < 1/2: destructive interference

    def test_ideal_bunching_only_at_full_transmission(self):
        p = PhysicalParams(t0=1.0, beta=1.0, dephasing_time=1e12, sigma_wander=0.0)
        req = ScanRequest(mode="g2zero", params=p, grid_start=-40.0,
                          grid_stop=40.0, grid_count=201, out_path="unused",
                          average=False, convolve=False)
        _, rows, _ = run_scan(req)
        vals = np.array([r[1] for r in rows])
        assert np.all(vals[np.isfinite(vals)] >= 1.0)

    def test_divergent_rows_flagged(self):
        # at full background transmission the zero sits exactly on resonance
        p = PhysicalParams(t0=1.0, beta=1.0, dephasing_time=math.inf,
                           sigma_wander=0.0)
        req = ScanRequest(mode="g2zero", params=p, grid_start=0.0,
                          grid_stop=1.0, grid_count=2, out_path="unused",
                          average=False, convolve=False)
        _, rows, _ = run_scan(req)
        assert rows[0][2] == "divergent"
        assert rows[1][2] == ""

    @pytest.mark.parametrize("mode", ["transmission", "g2zero", "g2trace"])
    def test_unaveraged_is_the_bare_closed_form(self, mode):
        p = PhysicalParams(omega0=1.5, t0=0.45, lifetime=150.0)
        start, stop = (-600.0, 600.0) if mode == "g2trace" else (-40.0, 40.0)
        req = ScanRequest(mode=mode, params=p, grid_start=start, grid_stop=stop,
                          grid_count=161, out_path="unused", average=False,
                          detuning=9.0 if mode == "g2trace" else None)
        got = np.array([r[1] for r in run_scan(req)[1]])
        d = ModelCurves(p)
        delta = detuning_to_delta(req.grid() - p.omega0, p.lifetime)
        if mode == "transmission":
            want = g1_general(delta, d.zeta, p.beta, d.phi, d.alpha)
        elif mode == "g2zero":
            want = g2_tau_general(0.0, delta, d.zeta, p.beta, d.phi)
        else:
            want = g2_tau_general(tau_to_dimensionless(req.grid(), p.lifetime),
                                  d.delta(9.0), d.zeta, p.beta, d.phi)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["transmission", "g2zero", "g2trace"])
    def test_convolve_off_is_the_ideal_detector(self, mode):
        # average=on, convolve=off keeps the wandering and drops the detector
        p = PhysicalParams(omega0=1.5, t0=0.45, lifetime=150.0)
        start, stop = (-600.0, 600.0) if mode == "g2trace" else (-40.0, 40.0)
        vals = {}
        for convolve in (True, False):
            req = ScanRequest(mode=mode, params=p, grid_start=start, grid_stop=stop,
                              grid_count=161, out_path="unused", convolve=convolve,
                              detuning=9.0 if mode == "g2trace" else None)
            vals[convolve] = np.array([r[1] for r in run_scan(req)[1]])
        ideal = ModelCurves(p.replace(detector_resp=0.0))
        want = {"transmission": lambda: ideal.transmission(req.grid()),
                "g2zero": lambda: ideal.g2zero(req.grid()),
                "g2trace": lambda: ideal.g2_trace(9.0, req.grid())}[mode]()
        assert np.array_equal(vals[False], want)
        if mode == "transmission":
            assert np.array_equal(vals[True], vals[False])
        else:
            assert np.max(np.abs(vals[True] - vals[False])) > 1e-3

    def test_finite_drive_enters_transmission_at_zero_width(self):
        p = PhysicalParams(drive_amp=0.05, sigma_wander=0.0, detector_resp=0.0)
        vals = {}
        for average in (True, False):
            req = ScanRequest(mode="transmission", params=p, grid_start=-2.0,
                              grid_stop=2.0, grid_count=5, out_path="unused",
                              average=average)
            vals[average] = np.array([r[1] for r in run_scan(req)[1]])
        d = ModelCurves(p)
        want = g1_general(detuning_to_delta(req.grid() - p.omega0, p.lifetime),
                          d.zeta, p.beta, d.phi, d.alpha)
        assert d.alpha > 0
        assert np.array_equal(vals[True], vals[False])
        assert np.array_equal(vals[False], want)
        assert want[0] == pytest.approx(1.8734, abs=1e-4)

    def test_g2trace_needs_detuning(self):
        with pytest.raises(ValueError, match="detuning"):
            ScanRequest(mode="g2trace", params=PhysicalParams(),
                        grid_start=-500.0, grid_stop=500.0, grid_count=11,
                        out_path="unused")

    def test_g2trace_values(self):
        req = ScanRequest(mode="g2trace", params=PhysicalParams(),
                          grid_start=-600.0, grid_stop=600.0, grid_count=49,
                          out_path="unused", detuning=9.0)
        _, rows, _ = run_scan(req)
        vals = np.array([r[1] for r in rows])
        mid = vals[len(vals) // 2]
        assert 1.8 < mid < 2.4
        assert vals[0] < mid

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanRequest(mode="transmission", params=PhysicalParams(),
                        grid_start=0.0, grid_stop=-1.0, grid_count=10,
                        out_path="x")
        with pytest.raises(ValueError):
            ScanRequest(mode="transmission", params=PhysicalParams(),
                        grid_start=0.0, grid_stop=1.0, grid_count=1,
                        out_path="x")
        with pytest.raises(ValueError):
            ScanRequest(mode="everything", params=PhysicalParams(),
                        grid_start=0.0, grid_stop=1.0, grid_count=5,
                        out_path="x")

    @pytest.mark.parametrize("start,stop", [(0.0, math.inf), (-math.inf, 0.0),
                                            (math.nan, 1.0), (-1e308, 1e308)],
                             ids=["inf-stop", "inf-start", "nan-start", "span-overflow"])
    def test_non_finite_grid(self, start, stop):
        with pytest.raises(ValueError, match="finite"):
            ScanRequest(mode="transmission", params=PhysicalParams(), grid_start=start,
                        grid_stop=stop, grid_count=3, out_path="x")


class TestFPBackground:
    def test_no_mirrors_full_transmission(self):
        fp = FPBackground(reflectivity=0.0, fsr_nm=2.0)
        lam = np.linspace(910, 920, 101)
        t0, T = fp_background(fp, lam)
        assert np.allclose(T, 1.0)
        assert np.allclose(t0, 1.0)

    def test_unity_on_resonance_any_reflectivity(self):
        for R in (0.1, 0.5, 0.9):
            fp = FPBackground(reflectivity=R, fsr_nm=2.0)
            lam_res = fp.roundtrip_nm / round(fp.roundtrip_nm / 915.0)
            _, T = fp_background(fp, np.array([lam_res]))
            assert T[0] == pytest.approx(1.0, abs=1e-9)

    def test_fsr_spacing(self):
        fp = FPBackground(reflectivity=0.6, fsr_nm=2.0, wavelength_ref_nm=915.0)
        lam = np.linspace(910, 920, 20001)
        _, T = fp_background(fp, lam)
        peaks = [i for i in range(1, len(lam) - 1)
                 if T[i] > T[i - 1] and T[i] > T[i + 1] and T[i] > 0.99]
        spacings = np.diff(lam[peaks])
        assert np.all(np.abs(spacings - 2.0) / 2.0 < 0.01)

    def test_length_parametrization(self):
        fp = FPBackground(reflectivity=0.3, length_um=100.0, group_index=4.0)
        assert fp.roundtrip_nm == pytest.approx(8.0e5)

    def test_validation(self):
        with pytest.raises(ValueError):
            FPBackground(reflectivity=1.0, fsr_nm=2.0)
        with pytest.raises(ValueError):
            FPBackground(reflectivity=0.5)

    @pytest.mark.parametrize("fields", [
        {"fsr_nm": math.nan}, {"fsr_nm": math.inf}, {"fsr_nm": -2.0},
        {"length_um": -1.0, "group_index": 3.0},
        {"length_um": math.inf, "group_index": 3.0},
        {"length_um": 100.0, "group_index": 0.0},
        {"length_um": 100.0, "group_index": math.nan},
        {"fsr_nm": 2.0, "wavelength_ref_nm": -915.0},
        {"fsr_nm": 2.0, "wavelength_ref_nm": math.inf},
        {"fsr_nm": 1e-300, "wavelength_ref_nm": 1e200},
        {"length_um": 1e300, "group_index": 1e10}])
    def test_non_finite_or_non_positive_field(self, fields):
        with pytest.raises(ValueError, match="finite"):
            FPBackground(reflectivity=0.4, **fields)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, 1e-310])
    def test_non_finite_or_non_positive_wavelength(self, bad):
        # 1e-310 nm is positive, but the round-trip phase overflows there
        with pytest.raises(ValueError, match="finite and positive|overflows"):
            fp_background(FPBackground(reflectivity=0.4, fsr_nm=2.0), [910.0, bad])


class TestCLI:
    def test_module_run_is_silent(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fanostat.cli",
                               "--version"], capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"
        assert proc.stderr == ""

    def test_scan_end_to_end_and_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "scan1.csv"
        out2 = tmp_path / "scan2.csv"
        for out in (out1, out2):
            code = main(["scan", "--mode", "transmission",
                         "--grid=-40:40:81", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "# convention_reduced_time: tau_t = tau * gamma / 2" in text

    def test_scan_with_config_and_set(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("t0 = 0.5\nbeta = 0.9\n")
        out = tmp_path / "scan.json"
        code = main(["scan", "--mode", "g2zero", "--config", str(cfg),
                     "--set", "t0=0.62", "--grid=-20:20:21",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["param_t0"] == 0.62

    def test_fit_end_to_end(self, tmp_path):
        from fanostat import ModelCurves
        p = PhysicalParams()
        model = ModelCurves(p)
        det = np.linspace(-40, 40, 21)
        tr = model.transmission(det)
        f_t = tmp_path / "trans.csv"
        write_series(("detuning_uev", "transmission", "uncertainty"),
                     list(zip(det, tr, np.full_like(det, 0.02))), f_t)
        det_g = np.linspace(-18, 18, 7)
        g2 = np.asarray(model.g2zero(det_g))
        f_g = tmp_path / "g2.csv"
        write_series(("detuning_uev", "g2zero", "uncertainty"),
                     list(zip(det_g, g2, np.full_like(det_g, 0.02))), f_g)
        out = tmp_path / "report.json"
        code = main(["fit", "--transmission", str(f_t), "--g2zero", str(f_g),
                     "--set", "t0=0.55", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["converged"]
        assert abs(rep["parameters"]["t0"] - 0.62) < 0.02
        assert rep["conventions"]["frequency"].startswith("ordinary")

    @pytest.mark.parametrize("mode", ["g2zero", "g2trace"])
    def test_finite_drive_g2_refused(self, tmp_path, capsys, mode):
        code = main(["scan", "--mode", mode, "--set", "drive_amp=0.05",
                     "--grid=-20:20:5", "--detuning", "9",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "drive_amp" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("drive", ["1e154", "1e200"])
    def test_huge_drive_exit_code(self, tmp_path, capsys, drive):
        # drive_amp^2 overflows at 1e200, alpha at 1e154: both name drive_amp
        code = main(["scan", "--mode", "transmission", "--grid=-40:40:3",
                     "--set", f"drive_amp={drive}", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "drive_amp" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("setting,field", [("t0=1", "t0"), ("beta=1", "beta"),
                                               ("sigma_wander=0", "sigma_wander"),
                                               ("beta=0", "beta")])
    def test_fit_start_outside_bounds(self, tmp_path, capsys, setting, field):
        det = np.linspace(-40, 40, 9)
        f_t = tmp_path / "trans.csv"
        write_series(("detuning_uev", "transmission", "uncertainty"),
                     list(zip(det, ModelCurves(PhysicalParams()).transmission(det),
                              np.full_like(det, 0.02))), f_t)
        code = main(["fit", "--transmission", str(f_t), "--set", setting,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"initial {field} = " in err and "outside the fit bounds" in err
        assert "Traceback" not in err

    def test_fit_report_is_strict_json(self, tmp_path):
        # a singular curvature gives no stderr figure; null, not Infinity
        det = np.linspace(-40, 40, 4)
        f_t = tmp_path / "trans.csv"
        write_series(("detuning_uev", "transmission", "uncertainty"),
                     list(zip(det, ModelCurves(PhysicalParams()).transmission(det),
                              np.full_like(det, 0.01))), f_t)
        out = tmp_path / "r.json"
        assert main(["fit", "--transmission", str(f_t), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-finite constant {name} in the report")

        rep = json.loads(out.read_text(), parse_constant=reject)
        assert set(rep["parameter_stderr"].values()) == {None}

    def test_scan_json_is_strict(self, tmp_path):
        # the divergent row on the Fano zero and the infinite dephasing time
        # are written as CSV's tokens, not as Infinity
        out = tmp_path / "scan.json"
        assert main(["scan", "--mode", "g2zero", "--set", "t0=1.0", "--set", "beta=1.0",
                     "--set", "dephasing_time=inf", "--average", "off", "--grid=-1:1:3",
                     "--out", str(out), "--format", "json"]) == 0

        def reject(name):
            raise ValueError(f"non-finite constant {name} in the series")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["rows"][1][1:] == ["inf", "divergent"]
        assert doc["metadata"]["param_dephasing_time"] == "inf"
        series = tmp_path / "s.json"
        write_series(("x", "y"), [(math.nan, -math.inf)], series, "json", {"k": math.nan})
        doc = json.loads(series.read_text(), parse_constant=reject)
        assert doc["rows"] == [["nan", "-inf"]] and doc["metadata"] == {"k": "nan"}

    def test_fit_non_finite_g2_weight(self, tmp_path, capsys):
        det = np.linspace(-40, 40, 9)
        f_t = tmp_path / "trans.csv"
        write_series(("detuning_uev", "transmission", "uncertainty"),
                     list(zip(det, ModelCurves(PhysicalParams()).transmission(det),
                              np.full_like(det, 0.02))), f_t)
        code = main(["fit", "--transmission", str(f_t), "--g2-weight", "nan",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "g2_weight must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_rejected_histogram_row_reported(self, tmp_path, capsys):
        model = ModelCurves(PhysicalParams())
        det = np.linspace(-40, 40, 21)
        f_t = tmp_path / "trans.csv"
        write_series(("detuning_uev", "transmission", "uncertainty"),
                     list(zip(det, model.transmission(det), np.full_like(det, 0.02))),
                     f_t)
        tau = np.linspace(-600, 600, 49)
        lines = ["# detuning_uev: 9.0", "tau_ps,counts,uncertainty"]
        lines += [f"{t:.17g},{1000.0 * g:.17g},20.0" for t, g in
                  zip(tau, model.g2_trace(9.0, tau))]
        lines.insert(4, "12.5,many,20.0")        # file line 5
        f_h = tmp_path / "hist.csv"
        f_h.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        code = main(["fit", "--transmission", str(f_t), "--histogram", str(f_h),
                     "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert f"note: {f_h}:5: rejected row (non-numeric cell)" in err
        assert json.loads(out.read_text())["rejected_rows"] == 1

    def test_oracle_check_small_grid(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", "--alpha", "1e-4",
                     "--deltas=-2.0,3.0,5.0", "--t0s", "0.55,1.0",
                     "--zetas", "1.0,1.2", "--betas", "0.95",
                     "--out", str(out), "--tol-g2", "2e-3"])
        assert code == 0
        assert out.exists()

    def test_oracle_check_defaults(self):
        # 13 deltas x 3 t0 x 2 zeta x 2 beta; the closed form diverges on the
        # ideal Fano zero delta = -tan(phi) at zeta = beta = 1: delta = 1 for
        # t0^2 = 0.5 and delta = 0 for t0 = 1
        rows, summary = oracle_check(tau_points=2)
        assert summary["n_points"] == len(rows) == 156
        flagged = [r for r in rows if r[6] == "divergent"]
        assert summary["n_divergent"] == len(flagged) == 2
        assert summary["max_g1_error"] == max(r[4] for r in rows) < 1e-6
        assert summary["max_g2_error"] == max(r[5] for r in rows if not r[6])
        # alpha = 0 is the weak-drive limit itself: rounding alone
        assert summary["max_g2_error"] < 1e-9

    def test_oracle_check_near_a_transmission_zero(self):
        # g2 peaks near 1e12 just off the zero delta = tan(0.3); the g2 error
        # is scaled by max(1, |g2|), so a correct solver passes there
        grid = {"deltas": (math.tan(0.3) + 1e-3,), "t0s": (math.cos(0.3),),
                "zetas": (1.0,), "betas": (1.0,)}
        _, summary = oracle_check(**grid)
        assert summary["n_divergent"] == 0
        assert summary["max_g2_error"] <= 1e-8
        assert main(["oracle-check"] + [f"--{k}={v[0]!r}" for k, v in grid.items()]) == 0

    def test_oracle_check_default_grid(self, tmp_path):
        # the grid flags not given keep their defaults: 3 t0 x 2 zeta x 2 beta.
        # The default drive is alpha = 0, where the solver is the weak-drive
        # limit itself, so even near the zero at t0 = 1 it meets the default
        # tolerance
        out = tmp_path / "oracle.csv"
        assert main(["oracle-check", "--deltas=0", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0].startswith("T0,zeta,beta,delta")
        assert len(lines) == 1 + 12

    def test_oracle_check_tolerance_exit_code(self):
        code = main(["oracle-check", "--alpha", "1e-4",
                     "--deltas", "0.5", "--t0s", "1.0", "--zetas", "1.0",
                     "--betas", "1.0", "--tol-g2", "1e-12"])
        assert code == 4

    @pytest.mark.parametrize("flag", ["--zetas=1e160", "--alpha=1e200"],
                             ids=["closed-form-overflow", "propagation-overflow"])
    def test_oracle_check_overflow_exit_code(self, flag, capsys):
        # a typed error (exit 2), not a traceback or a NaN that reads as
        # "tolerance exceeded"
        assert main(["oracle-check", "--deltas=0", flag]) == 2
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-3"])
    @pytest.mark.parametrize("flag", ["--tol-g1", "--tol-g2"])
    def test_oracle_check_rejects_a_tolerance_that_cannot_pass(self, flag, tol):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--deltas=0", f"{flag}={tol}"])
        assert exc.value.code == 2

    def test_fp_background_cli(self, tmp_path):
        out = tmp_path / "fp.csv"
        code = main(["fp-background", "--reflectivity", "0.4",
                     "--fsr-nm", "2.0", "--grid", "910:920:101",
                     "--out", str(out)])
        assert code == 0

    def test_missing_data_file_exit_code(self, tmp_path):
        code = main(["fit", "--transmission", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3

    @pytest.mark.parametrize("flag,text", [
        ("--transmission", "detuning_uev,transmission,uncertainty\n"
                           "-9.0,1.2,0.03\n0.0,0.8,0.0\n9.0,0.45,0.03\n"),
        ("--histogram", "# detuning_uev: 9.0\ntau_ps,counts,uncertainty\n"
                        "-100,50,7\n0,120,0\n100,50,7\n"),
        ("--histogram", "# detuning_uev: 9.0\ntau_ps,counts\n-100,50\n0,-1\n100,50\n"),
        ("--histogram", "# detuning_uev: 9.0\ntau_ps,counts\n-100,0\n0,0\n100,0\n"),
    ], ids=["zero-transmission-uncertainty", "zero-histogram-uncertainty",
            "negative-count", "no-positive-count"])
    def test_bad_values_in_a_data_file_exit_code(self, tmp_path, capsys, flag, text):
        f = tmp_path / "data.csv"
        f.write_text(text)
        code = main(["fit", flag, str(f), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {f}: ") and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_scan_into_a_missing_directory_exit_code(self, tmp_path, capsys):
        code = main(["scan", "--mode", "transmission", "--grid=-1:1:5",
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "cannot write series" in err

    @pytest.mark.parametrize("argv", [
        ["fp-background", "--fsr-nm", "nan"],
        ["fp-background", "--fsr-nm", "inf"],
        ["fp-background", "--length-um", "-1", "--group-index", "3"],
        ["fp-background", "--length-um", "100", "--group-index", "0"],
        ["fp-background", "--fsr-nm", "2", "--wavelength-ref-nm=-915"],
        ["fp-background", "--fsr-nm", "2", "--grid", "900:inf:3"],
        ["fp-background", "--fsr-nm", "2", "--grid", "1e-310:1e-300:3"],
        ["scan", "--mode", "g2zero", "--grid", "0:inf:3"],
        ["scan", "--mode", "g2zero", "--grid=-1e308:1e308:3"],
    ], ids=["fsr-nan", "fsr-inf", "negative-length", "zero-group-index",
            "negative-reference-wavelength", "fp-infinite-grid", "fp-subnormal-grid",
            "scan-infinite-grid",
            "scan-overflowing-span"])
    def test_non_finite_input_exit_code(self, tmp_path, argv):
        # refused as a usage or config error (2), with no file and no
        # warning, not written as NaN rows or raised as a traceback
        if argv[0] == "fp-background":
            argv = argv[:1] + ["--reflectivity", "0.4"] + argv[1:]
            argv += [] if "--grid" in argv else ["--grid", "910:920:3"]
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as exc:       # refused by the argument parser
                code = exc.code
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["910:920:0", "910:920:1", "920:910:5",
                                      "915:915:5", "910:920:-3"],
                             ids=["count-0", "count-1", "descending", "empty-span",
                                  "negative-count"])
    @pytest.mark.parametrize("command", ["fp-background", "scan"])
    def test_degenerate_grid_exit_code(self, tmp_path, capsys, command, grid):
        # one grid rule for both commands: at least two points, start < stop
        argv = {"fp-background": ["fp-background", "--reflectivity", "0.4",
                                  "--fsr-nm", "2"],
                "scan": ["scan", "--mode", "transmission"]}[command]
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--grid", grid, "--out", str(out)])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("t0 = 2.0\n")
        code = main(["scan", "--mode", "transmission", "--config", str(cfg),
                     "--grid=-1:1:5", "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_bad_reflectivity_exit_code(self, tmp_path):
        code = main(["fp-background", "--reflectivity", "1.0",
                     "--fsr-nm", "2.0", "--grid", "910:920:11",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2


# one measurement file: its kind, the detunings (ueV, on a 0.5 ueV grid)
# and, for a histogram, its delays (ps), plus the defect of one row: none,
# dropped or rejected. The grid keeps the 25 examples clear of the slow,
# underdetermined fit that test_underdetermined_fit_stops_early records
_DETUNING = st.integers(-80, 80).map(lambda k: 0.5 * k)
_DETUNINGS = st.lists(_DETUNING, min_size=1, max_size=12, unique=True)
_DEFECTS = st.sampled_from(["none", "dropped", "non-numeric", "nan", "short"])


@st.composite
def _fit_files(draw):
    files = [("transmission", draw(_DETUNINGS), None, draw(_DEFECTS))]
    if draw(st.booleans()):
        files.append(("g2zero", draw(_DETUNINGS), None, draw(_DEFECTS)))
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 40))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        tau = sign * 25.0 * (np.arange(n) - draw(st.integers(0, n - 1)))
        files.append(("g2_histogram", [draw(_DETUNING)], tau, draw(_DEFECTS)))
    return files


def _write_fit_file(path, kind, det, tau, defect, model):
    if kind == "g2_histogram":
        lines = [f"# detuning_uev: {det[0]:.17g}", "tau_ps,counts,uncertainty"]
        counts = 1000.0 * model.g2_trace(det[0], tau)
        lines += [f"{t:.17g},{c:.17g},{0.03 * c:.17g}" for t, c in zip(tau, counts)]
    else:
        curve = np.atleast_1d(getattr(model, kind)(det))
        lines = [f"detuning_uev,{kind},uncertainty"]
        lines += [f"{d:.17g},{v:.17g},{0.03 * abs(v):.17g}" for d, v in zip(det, curve)]
    if defect == "dropped":
        del lines[-1]
    elif defect != "none":
        lines.append({"non-numeric": "1.0,many,0.1", "nan": "1.0,nan,0.1",
                      "short": "1.0,0.5"}[defect])
    path.write_text("\n".join(lines) + "\n")


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(_fit_files())
def test_fit_on_well_formed_files_exits_cleanly(files):
    # any well-formed set of files, with a dropped or rejected row, fits,
    # or is refused as a config (2) or data (3) error; never a traceback
    model = ModelCurves(PhysicalParams())
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["fit", "--set", "t0=0.55", "--out", str(Path(tmp) / "r.json")]
        for i, (kind, det, tau, defect) in enumerate(files):
            path = Path(tmp) / f"{i}.csv"
            _write_fit_file(path, kind, det, tau, defect, model)
            argv += [{"g2_histogram": "--histogram"}.get(kind, f"--{kind}"), str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:       # and the report is strict JSON
            json.loads((Path(tmp) / "r.json").read_text(), parse_constant=_refuse)


def _refuse(name):
    raise ValueError(f"non-finite constant {name} in the report")


# series cells: floats of every kind, including the edges of repr, and the
# other types a series may hold, in columns of floats only or of anything
_FLOAT = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0,
                                                 5e-324, 1.7976931348623157e308]))
_FLOAT_CELL = st.one_of(_FLOAT, _FLOAT.map(np.float64),
                        st.floats(width=32).map(np.float32))
_TEXT = st.text(st.characters(codec="utf-8"), max_size=6)
_ANY_CELL = st.one_of(_FLOAT_CELL, st.integers(-2**64, 2**64),
                      st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans(),
                      st.booleans().map(np.bool_),
                      st.sampled_from(["", "divergent", "é€"]), _TEXT)
_META = st.dictionaries(_TEXT, st.one_of(_FLOAT, _TEXT, st.integers(-2**64, 2**64)),
                        max_size=4)


@st.composite
def _series(draw):
    kinds = draw(st.lists(st.sampled_from([_FLOAT_CELL, _ANY_CELL]), max_size=4))
    rows = draw(st.lists(st.tuples(*kinds), max_size=30))
    return tuple(draw(_TEXT) for _ in kinds), rows, draw(_META)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_series())
def test_series_bytes_are_the_cell_by_cell_bytes(series):
    columns, rows, meta = series
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            got, want = Path(tmp) / f"got.{fmt}", Path(tmp) / f"want.{fmt}"
            write_series(columns, rows, got, fmt, meta)
            reference_write_series(columns, rows, want, fmt, meta)
            assert got.read_bytes() == want.read_bytes(), fmt
