"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import run

assert run.use_checkout_source()

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

from fanostat.correlators import g1_general, g2_tau_parts  # noqa: E402


def test_reference_self_check_passes_at_the_reference_configuration():
    p = workloads.REF
    assert np.all(np.isfinite(reference.transmission(p, workloads.DET_T)))
    assert np.all(np.isfinite(reference.g2zero(p, workloads.DET_G)))
    assert np.all(np.isfinite(reference.g2_trace(p, 9.0, workloads.TAU_H)))


def test_reference_self_check_rejects_a_coarse_rule(monkeypatch):
    monkeypatch.setattr(reference, "STEP", 1.5)
    monkeypatch.setattr(reference, "SIGMA_STEPS", 0.5)
    with pytest.raises(reference.ReferenceNotConverged):
        reference.transmission(workloads.REF, workloads.DET_T)


def test_reference_average_matches_adaptive_quadrature():
    p = workloads.REF
    r = reference.Reduced.of(p)
    det = np.array([-9.0, 0.0, 9.0])
    got = reference.transmission(p, det)
    for d, value in zip(r.delta(det), got):
        want = quad(lambda x: g1_general(d + x, r.zeta, r.beta, r.phi)
                    * math.exp(-0.5 * (x / r.sigma) ** 2) / (math.sqrt(2 * math.pi) * r.sigma),
                    -12 * r.sigma, 12 * r.sigma, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(value - want) < 1e-10


def test_reference_convolution_matches_adaptive_quadrature():
    # no wandering, so the convolution of the kinked g2(tau) is checked alone
    p = workloads.REF.replace(sigma_wander=0.0)
    r = reference.Reduced.of(p)
    d = float(r.delta(9.0))
    t = r.t_resp

    def g2(s):
        num, den = g2_tau_parts(s, d, r.zeta, r.beta, r.phi)
        return num / den

    def integrand(s):
        return g2(s) * math.exp(-0.5 * (s / t) ** 2) / (math.sqrt(2 * math.pi) * t)

    want = sum(quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13)[0]
               for a, b in ((-12 * t, 0.0), (0.0, 12 * t)))
    assert abs(reference.g2zero(p, np.array([9.0]))[0] - want) < 1e-10


def test_reference_without_averaging_is_the_closed_form():
    p = workloads.REF.replace(sigma_wander=0.0, detector_resp=0.0)
    r = reference.Reduced.of(p)
    det = np.linspace(-20.0, 20.0, 9)
    assert np.array_equal(reference.transmission(p, det),
                          g1_general(r.delta(det), r.zeta, r.beta, r.phi))


def test_workload_inputs_are_deterministic_per_seed(tmp_path):
    a, b, c = (workloads.Scan(s, str(tmp_path)) for s in (5, 5, 6))
    assert a.probe() == b.probe()
    orders = [[w.items() for _ in range(3)] for w in (a, b, c)]
    assert orders[0] == orders[1] != orders[2]
    for ref_a, ref_b in zip(a.refs, b.refs):
        for mode in ref_a:
            assert np.array_equal(ref_a[mode], ref_b[mode])
    o1, o2 = workloads.Oracle(3), workloads.Oracle(3)
    assert o1.grid == o2.grid
    assert sorted(o1.grid["deltas"]) == sorted(workloads.ORACLE_GRID["deltas"])


def test_fit_trials_are_deterministic():
    truth = workloads.Fit(0).truth
    d1, s1 = workloads.criterion7_trial(4, truth)
    d2, s2 = workloads.criterion7_trial(4, truth)
    assert s1 == s2
    assert np.array_equal(d1.transmission, d2.transmission)
    assert np.array_equal(d1.g2_histograms[1].counts, d2.g2_histograms[1].counts)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),      # overlaps a: union of a and b is 1..6
        Span("c", 2.0, 3.0, 1, 0),      # grandchild: counts against a, not root
        Span("d", 9.0, 12.0, 0, 0),     # runs past its parent: clipped to 9..10
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_missing_wrapped_function_reads_as_absent(monkeypatch):
    import fanostat.averaging as averaging
    import fanostat.bloch as bloch
    monkeypatch.delattr(averaging, "convolve_detector")
    monkeypatch.delattr(bloch, "solve_ivp")
    original_g2zero = averaging.ModelCurves.g2zero
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        assert {"averaging.convolve_detector", "bloch.solve_ivp"} <= set(tracer.absent)
        assert averaging.ModelCurves.g2zero is not original_g2zero
        with tracer.operation("op.test"):
            averaging.ModelCurves(workloads.REF).transmission(workloads.DET_T)
    finally:
        patches.restore()
    assert averaging.ModelCurves.g2zero is original_g2zero
    out = layers.metrics(tracer, 1, 1.0)
    assert set(out) == set(layers.PER_LAYER)
    assert out["averaging.convolve_detector.calls"]["value"] == 0
    assert out["averaging.transmission.calls"]["value"] == 1
    assert out["averaging.model_builds"]["value"] == 1
    assert out["bloch.ode_rhs_evals"]["value"] == 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
