import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from scipy.special import roots_hermite

from fanostat import (ModelCurves, PhysicalParams, avg_g1, avg_g2, g1_general,
                      g2_tau_general, hbar_gamma, phi_from_t0)
from fanostat import averaging, correlators
from fanostat.averaging import _wandering_nodes
from fanostat.cli import ScanRequest, run_scan
from fanostat.correlators import _g2_sums, detected_decay, g2_tau_parts
from fanostat.fitting import DEFAULT_BOUNDS, G2Histogram, MeasurementSet, _Objective

PHI15 = phi_from_t0(math.sqrt(0.15))
REF = PhysicalParams()


class TestSpecValidation:
    def test_weights_sum_to_one(self):
        # each detuning's weights on the lattice; their delta and sigma
        # derivatives sum to zero
        delta = np.array([-30.0, -0.4, 0.0, 2.1, 2.2, 40.0])
        step = averaging._step(np.array([0.0, -2.4]), 2.3, 0.136)
        assert step == pytest.approx(2 * math.pi / (2.4 + 6 * 0.136 + 8 / 2.3))
        x, w = _wandering_nodes(delta, step, 2.3, jac=True)
        assert np.allclose(w[0].sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(w[1:].sum(axis=2), 0.0, rtol=0, atol=1e-12)
        assert np.allclose(x / step % 1.0, 0.5, rtol=0, atol=1e-9)
        assert averaging._one_node(delta, 0.0).all()


class TestLattice:
    def test_weight_derivatives_are_exact(self):
        # against central differences of the weights at fixed nodes
        delta, sigma, h = np.array([0.3, 5.0]), 1.7, 1e-6
        x, w = _wandering_nodes(delta, 1.0, sigma, jac=True)

        def weights(d, s):
            y = (x - d[:, None]) / s
            return (x[1] - x[0]) / (math.sqrt(2 * math.pi) * s) * np.exp(-0.5 * y * y)
        fd_delta = (weights(delta + h, sigma) - weights(delta - h, sigma)) / (2 * h)
        fd_sigma = (weights(delta, sigma + h) - weights(delta, sigma - h)) / (2 * h)
        assert np.allclose(w[1], fd_delta, rtol=0, atol=1e-9)
        assert np.allclose(w[2], fd_sigma, rtol=0, atol=1e-9)

    # lattices about delta = 0 (mirror images of every node), across it
    # (some nodes), wholly above or below it (none), and two windows
    MIRRORS = {"about": [0.0], "across": [3.418], "above": [40.0], "below": [-40.0],
               "two-windows": [-60.0, 6.0]}

    @pytest.mark.parametrize("t_resp", [0.136, 0.0], ids=["detected", "ideal"])
    @pytest.mark.parametrize("jac", [False, True])
    @pytest.mark.parametrize("case", MIRRORS)
    def test_lattice_sums_are_the_node_terms_summed(self, case, jac, t_resp):
        # the lattice takes D(zeta - i x) once per |x| and conjugates it
        # below delta = 0; each node's bare term, weighted, gives the same
        tau, sigma = np.linspace(-2.4, 2.4, 13), 1.7852
        delta = np.array(self.MIRRORS[case])
        x, w = _wandering_nodes(delta, averaging._step(tau, sigma, t_resp), sigma, jac)
        negative = np.sum(x < 0)
        assert {"about": negative == x.size / 2, "across": 0 < negative < x.size / 2,
                "above": negative == 0, "below": negative == x.size,
                "two-windows": 0 < negative < x.size}[case]
        assert_node_sums(tau, x, w, jac, t_resp)

    @pytest.mark.parametrize("jac", [False, True])
    def test_lattice_sums_in_blocks_are_the_node_terms_summed(self, jac, monkeypatch):
        # a call over the budget: each block of detunings has its own
        # lattice, some about delta = 0 and some off it, and its delays come
        # in chunks
        monkeypatch.setattr(averaging, "MAX_EVALUATIONS", 400)
        delta, tau = np.array([-20.0, -9.0, 0.0, 0.5, 9.0]), np.linspace(0.0, 2.4, 25)
        sigma = 1.7852
        step = averaging._step(tau, sigma, 0.136)
        blocks = averaging._blocks(delta, step, sigma, tau.size)
        assert len(blocks) > 1 and any(chunk < tau.size for _, chunk, _ in blocks)
        for rows, chunk, lattice in blocks:
            assert lattice
            x, w = _wandering_nodes(delta[rows], step, sigma, jac)
            for start in range(0, tau.size, chunk):
                assert_node_sums(tau[start:start + chunk], x, w, jac, 0.136)

    def test_no_node_on_zero_detuning(self):
        # the half-step anchor: zeta = 2 has its rate collision at delta = 0
        x, _ = _wandering_nodes(np.array([0.0, 1e-3]),
                                averaging._step(0.0, 1.7852, 0.0), 1.7852)
        assert np.min(np.abs(x)) == pytest.approx(math.pi * 1.7852 / 8.0)

    def test_unresolvable_width_is_the_one_node_rule(self):
        # node rounding eps |x| beyond RESOLUTION sigma: the lattice is not used
        eps = np.finfo(float).eps
        delta = np.array([-9.0, 3.4])
        tiny = 0.5 * eps * 9.0 / averaging.RESOLUTION
        assert averaging._one_node(delta, tiny).tolist() == [True, False]
        assert not averaging._one_node(delta, 4.0 * tiny).any()

    def test_far_detuning_leaves_the_others_on_the_lattice(self):
        # 3e7 ueV is beyond the lattice's resolution at the reference width:
        # that detuning alone takes the one-node rule
        for jac in (False, True):
            m, bare = ModelCurves(REF, jac=jac), ModelCurves(REF.replace(sigma_wander=0.0))
            both = m.g2zero([0.0, 3e7])
            assert np.array_equal(both[0], m.g2zero([0.0])[0])
            assert (both[1, 0] if jac else both[1]) == bare.g2zero([3e7])[0]
            trace = m.g2_trace([3e7, 0.0], [0.0, 50.0])
            assert np.array_equal(trace[1], m.g2_trace(0.0, [0.0, 50.0]))
        assert not np.allclose(m.g2zero([0.0])[0, 0], bare.g2zero([0.0]), rtol=0.1)

    def test_over_the_budget_is_a_typed_error(self):
        # 9 sigma (tau_max + 6 t_resp)/pi + 23 nodes per detuning: one window
        # exceeds the budget even with one delay where sigma (tau_max +
        # 6 t_resp) passes about 9.1e4; zeta does not enter
        with pytest.raises(ValueError, match=r"sigma \(tau_max \+ 6 t_resp\) must stay"):
            avg_g2(0.0, 0.0, 1.0, 0.9, PHI15, 1e5, 1.0)
        wide = ModelCurves(REF.replace(sigma_wander=1e5))     # sigma = 3.8e4
        assert np.isfinite(wide.g2zero([0.0])).all()
        with pytest.raises(ValueError, match="budget"):
            wide.g2_trace([0.0], [1e4])
        # a detector width of 1e300 ps asks for about 1e299 nodes: the count
        # is given in three digits, not in all of them
        huge = ModelCurves(REF.replace(detector_resp=1e300))
        with pytest.raises(ValueError, match=r"needs \d\.\d\de\+299 nodes") as err:
            huge.g2zero([0.0])
        assert len(str(err.value)) < 250


def node_by_node(bare, w):
    """``_g2_sums`` with the weights ``w`` from ``bare``, its bare-path
    terms at each node, summed with them: no node's term comes from
    another's."""
    if len(bare) == 2:
        return [w @ v for v in bare]
    num, den, dnum, dden = bare
    W, W_delta, W_sigma = w

    def along(v):     # the node partials but delta's, summed with the weights
        return np.einsum("nk,k...->n...", W, v[..., 1:])
    return [W @ num, W @ den] + [
        np.concatenate([(W_delta @ v)[..., None], along(dv), (W_sigma @ v)[..., None]],
                       axis=-1) for v, dv in ((num, dnum), (den, dden))]


def assert_node_sums(tau, x, w, jac, t_resp, zeta=1.0066, beta=0.9, phi=PHI15):
    """``_g2_sums`` on a lattice against :func:`node_by_node`, within 1e-14
    of each column's largest sum of magnitudes |W| |term|: the delta and
    sigma weights sum to zero, so their sums cancel, far from resonance to
    1e-3 of their terms."""
    got = _g2_sums(tau, x[:, None], zeta, beta, phi, t_resp, jac, w)
    bare = _g2_sums(tau, x[:, None], zeta, beta, phi, t_resp, jac)
    want = node_by_node(bare, w)
    bound = node_by_node([np.abs(v) for v in bare], np.abs(w))
    assert len(got) == len(want)
    for g, v, b in zip(got, want, bound):
        assert g.shape == v.shape
        scale = b.max(axis=(0, 1)) if b.ndim == 3 else b.max()
        assert np.all(np.abs(g - v) <= 1e-14 * scale)


class TestWorkCounts:
    """How many lattice nodes and delays each curve evaluates."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        g2_sums = averaging._g2_sums

        def counted(tau, x, *args):
            calls.append((np.size(x), np.size(tau)))
            return g2_sums(tau, x, *args)
        monkeypatch.setattr(averaging, "_g2_sums", counted)
        return calls

    @staticmethod
    def nodes_within(delta, sigma, tau=0.0, t_resp=0.0):
        # half-step nodes within 9 sigma of any detuning, counted directly
        h = 2 * math.pi / (np.max(np.abs(tau)) + 6 * t_resp + 8 / sigma)
        x = (np.arange(-20000, 20000) + 0.5) * h
        return int(np.sum(np.any(np.abs(x[:, None] - delta) <= 9.0 * sigma, axis=1)))

    def test_criterion_7_g2zero_is_one_lattice(self, monkeypatch):
        m = ModelCurves(REF)
        det = np.linspace(-20.0, 20.0, 9)
        calls = self.spy(monkeypatch)
        m.g2zero(det)
        want = self.nodes_within(m.delta(det), m.sigma, 0.0, m.t_resp)
        assert calls == [(want, 1)]
        assert 35 <= want <= 45             # not one rule per detuning (9 x 27)

    def test_criterion_7_histograms_share_one_lattice(self, monkeypatch):
        tau = np.arange(-600.0, 600.0 + 1e-9, 12.5)
        det_g = np.linspace(-20.0, 20.0, 9)
        m = ModelCurves(REF)
        hists = tuple(G2Histogram(detuning=d, tau_ps=tau, counts=m.g2_trace(d, tau))
                      for d in (9.0, -9.0))
        g2zero = np.column_stack([det_g, m.g2zero(det_g), np.full(9, 0.01)])
        calls = self.spy(monkeypatch)
        obj = _Objective(MeasurementSet(g2_histograms=hists), REF)
        for jac in (False, True):
            obj.residuals(REF, jac=jac)
        want = self.nodes_within(m.delta([9.0, -9.0]), m.sigma,
                                 tau / (2 * REF.lifetime), m.t_resp)
        assert calls == [(want, 49)] * 2
        assert 43 <= want <= 53             # not one rule per histogram (2 x 40)
        # with the g2(0) scan too: one lattice per evaluation, on the
        # histograms' step, at REF and at sigma_wander 0.2 ueV
        obj = _Objective(MeasurementSet(g2zero=g2zero, g2_histograms=hists), REF)
        for p in (REF, REF.replace(sigma_wander=0.2)):
            m = ModelCurves(p)
            both = np.concatenate([m.delta(det_g), m.delta([9.0, -9.0])])
            shared = self.nodes_within(both, m.sigma, tau / (2 * p.lifetime), m.t_resp)
            calls.clear()
            for jac in (False, True):
                obj.residuals(p, jac=jac)
            assert calls == [(shared, 49)] * 2

    @pytest.mark.parametrize("jac", [False, True])
    def test_criterion_7_coherence_once_per_distinct_rate(self, jac, monkeypatch):
        # the lattice of the criterion-7 requests lies about delta = 0: its
        # 58 nodes hold 29 distinct |x|, and D(zeta - i x, tau) is taken at
        # those alone
        rates, calls = [], TestWorkCounts.spy(monkeypatch)
        detected_decay = correlators.detected_decay

        def counted(a, *args):
            if np.iscomplexobj(a):
                rates.append(np.size(a))
            return detected_decay(a, *args)
        monkeypatch.setattr(correlators, "detected_decay", counted)
        ModelCurves(REF, jac=jac).g2_curves(TestG2Curves.CASES["criterion-7"])
        assert calls == [(58, 49)] and rates == [29]

    def test_sparse_detunings_keep_separate_windows(self, monkeypatch):
        m = ModelCurves(REF)
        det = np.array([-300.0, 0.0, 0.5, 300.0])
        calls = self.spy(monkeypatch)
        together = m.g2zero(det)
        apart = [m.g2zero(d) for d in det]
        assert calls[0][0] == self.nodes_within(m.delta(det), m.sigma, 0.0, m.t_resp)
        assert calls[0][0] < sum(n for n, _ in calls[1:])
        assert np.allclose(together, apart, rtol=1e-14, atol=0)


class TestG2Curves:
    """ModelCurves.g2_curves against one g2zero or g2_trace call per request."""

    TAU = np.arange(-600.0, 600.0 + 1e-9, 12.5)
    HISTS = ([9.0, -9.0], TAU)

    # the criterion-7 g2(0) scan and histograms, histograms on two grids
    # (one without its tau = 0 bin, one at a scalar detuning), and a g2(0)
    # scan that holds both histogram detunings
    CASES = {
        "criterion-7": [(np.linspace(-20.0, 20.0, 9), 0.0), HISTS],
        "two-grids": [(np.linspace(-20.0, 20.0, 9), 0.0),
                      ([-9.0], np.delete(TAU, 48)), (9.0, TAU)],
        "same-detuning": [(np.linspace(-18.0, 18.0, 9), 0.0), HISTS],
    }

    @staticmethod
    def one_call(monkeypatch, m, requests):
        """m.g2_curves(requests), checked to make one avg_g2 call."""
        calls = []
        avg_g2 = averaging.avg_g2

        def counted(*args, **kwargs):
            calls.append(1)
            return avg_g2(*args, **kwargs)
        monkeypatch.setattr(averaging, "avg_g2", counted)
        got = m.g2_curves(requests)
        monkeypatch.undo()
        assert len(calls) == 1
        return got

    @pytest.mark.parametrize("jac", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_equals_separate_calls(self, monkeypatch, case, jac):
        requests = self.CASES[case]
        m = ModelCurves(REF, jac=jac)
        got = self.one_call(monkeypatch, m, requests)
        for curve, (det, tau) in zip(got, requests):
            want = m.g2zero(det) if np.ndim(tau) == 0 else m.g2_trace(det, tau)
            assert curve.shape == want.shape
            if not jac:
                curve, want = curve[..., None], want[..., None]
            # each value within 1e-12 relative, each partial within 1e-12 of
            # its largest magnitude
            err = np.abs(curve - want)
            assert np.all(err[..., 0] <= 1e-12 * want[..., 0])
            scale = np.abs(want[..., 1:]).max(axis=tuple(range(want.ndim - 1)))
            assert np.all(err[..., 1:] <= 1e-12 * scale)

    # single requests: detunings scalar, 1-d and 2-d; delays scalar,
    # negative, repeated, empty and 2-d
    DETUNINGS = (3.0, np.linspace(-20.0, 20.0, 5), np.linspace(-20.0, 20.0, 6).reshape(2, 3))
    DELAYS = (5.0, -40.0, np.array([5.0, -5.0, 5.0, 0.0, 100.0]), np.array([]),
              np.array([[0.0, -12.5, 300.0], [12.5, 12.5, -600.0]]))

    @pytest.mark.parametrize("jac", [False, True])
    @pytest.mark.parametrize("p", [REF, REF.replace(sigma_wander=0.0),
                                   REF.replace(detector_resp=0.0)],
                             ids=["ref", "one-node", "ideal-detector"])
    def test_single_requests_are_one_call_each(self, p, jac):
        m = ModelCurves(p, jac=jac)
        calls = []
        g2_curves = m.g2_curves

        def counted(requests):
            calls.append(len(requests))
            return g2_curves(requests)
        m.g2_curves = counted
        for det in self.DETUNINGS:
            got = [m.g2zero(det)] + [m.g2_trace(det, tau) for tau in self.DELAYS]
            for curve, tau in zip(got, (0.0,) + self.DELAYS):
                assert np.array_equal(curve, g2_curves([(det, tau)])[0])
                # a 0-d curve is a Python float, as transmission gives it
                assert np.ndim(curve) > 0 or type(curve) is float
        assert calls == [1] * (len(self.DELAYS) + 1) * len(self.DETUNINGS)

    def test_narrow_width_no_farther_from_the_reference(self, monkeypatch):
        # at sigma_wander 0.2 ueV (sigma ~ 0.076) a g2(0) call of its own
        # takes the step of tau = 0, and its rounding and aliasing near the
        # 28.8 peak reach 1.4e-12 relative; on the histograms' finer step the
        # shared call is 1.3e-13 from the fine trapezoid rule
        p = REF.replace(sigma_wander=0.2)
        m = ModelCurves(p)
        det = np.linspace(-20.0, 20.0, 9)
        g2zero, hists = self.one_call(monkeypatch, m, [(det, 0.0), self.HISTS])
        assert np.allclose(hists, m.g2_trace(*self.HISTS), rtol=1e-12, atol=0)
        want = fine_trapezoid(np.array([0.0]), m.delta(det), m.zeta, p.beta, m.phi,
                              m.sigma, m.t_resp)[:, 0]
        shared, apart = (np.max(np.abs(g / want - 1.0)) for g in (g2zero, m.g2zero(det)))
        assert shared <= 1e-12 and shared <= apart


def fine_trapezoid(tau, delta, zeta, beta, phi, sigma, t_resp, jac=False):
    """The reference of the g2 average: the trapezoid rule at step
    min(zeta, sigma)/16 over +-12 sigma about the detunings, with no pole
    correction, summed in blocks of nodes."""
    h = min(zeta, sigma) / 16.0
    k = np.arange(np.floor((delta.min() - 12.0 * sigma) / h),
                  np.ceil((delta.max() + 12.0 * sigma) / h) + 1.0) + 0.5
    sums = None
    for x in np.array_split(k * h, max(1, k.size // 4000)):
        y = (x - delta[:, None]) / sigma
        w = h / (math.sqrt(2.0 * math.pi) * sigma) * np.exp(-0.5 * y * y)
        if jac:
            w = np.stack([w, w * y / sigma, w * (y * y - 1.0) / sigma])
        part = _g2_sums(tau, x[:, None], zeta, beta, phi, t_resp, jac, w)
        sums = part if sums is None else [a + b for a, b in zip(sums, part)]
    out, d = averaging._quotient(*sums)
    return (out, d) if jac else out


# (sigma, zeta, t_resp, delays, detunings) in reduced units: the reference
# configuration's histograms and g2(0) scan, the fit-bound corner (lifetime
# 2000 ps, dephasing_time 1e7 ps, sigma_wander 50 ueV) on two of its delays,
# a wide, a wider and a narrow width, a width small enough that the
# closed-form averages take w's asymptotic series, and a case near the rate
# collision
POLE_CASES = {
    "histograms": (1.7852, 1.0066, 0.136, np.arange(0.0, 2.41, 0.1),
                   np.array([-3.418, 3.418])),
    "g2zero": (1.7852, 1.0066, 0.136, np.array([0.0]), np.linspace(-7.6, 7.6, 9)),
    "corner": (303.9, 1.0004, 0.0085, np.array([0.0, 0.15]),
               np.array([-54.7, 54.7])),
    "wide": (6.0, 1.2, 0.136, np.linspace(0.0, 4.0, 9), np.array([-3.418, 3.418])),
    "wider": (15.0, 1.0, 0.0, np.array([0.0]), np.linspace(-10.0, 10.0, 21)),
    "narrow": (0.4, 1.0066, 0.136, np.linspace(0.0, 2.4, 13), np.array([-1.0, 2.0])),
    "small": (0.0038, 1.0066, 0.136, np.linspace(0.0, 2.4, 13), np.array([0.3, 0.32])),
    "collision": (1.0, 2.001, 0.136, np.linspace(0.0, 3.0, 13), np.array([0.0, 3.418])),
}


class TestPoleCorrection:
    """The g2 average on its coarse lattice with the pole parts added, against
    the fine trapezoid rule, which needs no correction."""

    @pytest.mark.parametrize("case", POLE_CASES)
    def test_matches_the_fine_trapezoid_rule(self, case):
        sigma, own, t_resp, tau, delta = POLE_CASES[case]
        for zeta in (own, 1.0, 1.0 + 1e-8, 1.0066, 1.5, 2.0 - 1e-6, 3.0, 41.0):
            args = (tau, delta, zeta, 0.9, PHI15, sigma, t_resp)
            want, d_want = fine_trapezoid(*args, jac=True)
            got = avg_g2(*args)
            value, d = avg_g2(*args, jac=True)
            for v in (got, value):
                assert np.max(np.abs(v - want) / np.abs(want)) <= 1e-11, zeta
            # the weight derivatives alias like ALIAS^2 exp(-ALIAS^2/2)/sigma:
            # below 1e-9 absolute, where the sigma partial itself shrinks
            # like sigma
            scale = np.max(np.abs(d_want), axis=(0, 1))
            assert np.all(np.abs(d - d_want) <= 1e-9 * (scale + 1.0)), zeta

    def test_fit_corner_on_the_criterion_7_delays(self, monkeypatch):
        # sigma ~ 304 and zeta ~ 1: the step comes from the delays and the
        # detector width, so zeta does not multiply the nodes
        p = REF.replace(lifetime=2000.0, dephasing_time=1e7, sigma_wander=50.0)
        m, tau = ModelCurves(p), np.arange(-600.0, 600.0 + 1e-9, 12.5)
        calls = TestWorkCounts.spy(monkeypatch)
        got = m.g2_trace([9.0, -9.0], tau)
        assert len(calls) == 1 and calls[0][0] <= 250
        half = slice(tau.size // 2, None, 3)          # every third |tau|, 0 to 600 ps
        want = fine_trapezoid(tau[half] / (2.0 * p.lifetime),
                              m.delta(np.array([9.0, -9.0])), m.zeta, p.beta, m.phi,
                              m.sigma, m.t_resp)
        assert np.allclose(got[:, half], want, rtol=1e-9, atol=0)


    def test_narrow_width_adds_no_rounding(self):
        # sigma = 0.006 is far below zeta/ALIAS, where the poles lie past the
        # lattice's reach; a correction there would add only its rounding
        # (2.6e-10 relative near the dip at delta ~ 2.2)
        args = (np.array([0.0]), np.linspace(-5.0, 5.0, 201), 1.0066, 0.9, PHI15,
                0.006, 0.136)
        want = fine_trapezoid(*args)
        assert np.max(np.abs(avg_g2(*args) / want - 1.0)) <= 1e-12


class TestBlocks:
    """Calls over the node-evaluation budget, split into blocks of
    detunings and of delays."""

    @staticmethod
    def spy(monkeypatch):
        # (nodes, delays, detunings) of each product with the weights
        calls = []
        g2_sums = averaging._g2_sums

        def counted(tau, x, *args):
            calls.append((np.size(x), np.size(tau), args[-1].shape[-2]))
            return g2_sums(tau, x, *args)
        monkeypatch.setattr(averaging, "_g2_sums", counted)
        return calls

    def test_many_detunings_at_a_small_width(self, monkeypatch):
        # sigma ~ 0.0076 puts 16k nodes under a 481-point g2(0) scan: 7.7e6
        # node evaluations in one product, so the scan runs in blocks
        p = PhysicalParams(lifetime=125.0, sigma_wander=0.02)
        req = ScanRequest(mode="g2zero", params=p, grid_start=-40.0, grid_stop=40.0,
                          grid_count=481, out_path="unused")
        calls = self.spy(monkeypatch)
        det, g2 = np.array([r[:2] for r in run_scan(req)[1]], dtype=float).T
        assert len(calls) > 1
        assert all(n * (t + d) <= averaging.MAX_EVALUATIONS for n, t, d in calls)
        assert sum(d for _, _, d in calls) == 481
        monkeypatch.undo()
        assert np.all(np.isfinite(g2))
        apart = [ModelCurves(p).g2zero(d) for d in det[::40]]
        assert np.allclose(g2[::40], apart, rtol=1e-13, atol=0)

    def test_blocks_agree_with_one_product(self, monkeypatch):
        det, tau = np.array([-20.0, -9.0, 0.0, 0.5, 9.0]), np.arange(-600.0, 601.0, 25.0)
        m = ModelCurves(REF, jac=True)
        whole = m.g2_trace(det, tau), m.g2zero(det)
        monkeypatch.setattr(averaging, "MAX_EVALUATIONS", 400)
        calls = self.spy(monkeypatch)
        blocks = m.g2_trace(det, tau), m.g2zero(det)
        assert len({d for _, _, d in calls}) > 1 and len({t for _, t, _ in calls}) > 1
        assert all(n * (t + d) <= 400 for n, t, d in calls)
        for a, b in zip(whole, blocks):
            assert np.allclose(a, b, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("jac", [False, True])
    @pytest.mark.parametrize("n_delta,n_tau", [(41, 61), (1500, 2)])
    def test_one_node_rule_in_blocks(self, n_delta, n_tau, jac, monkeypatch):
        # at sigma = 0 each detuning is its own node; over the budget the
        # call is split into blocks of detunings and of delays as on the
        # lattice, and each row is g2_tau_parts at its detuning
        delta, tau = np.linspace(-6.0, 6.0, n_delta), np.linspace(0.0, 8.0, n_tau)
        args = (1.2, 0.9, PHI15, 0.0, 0.136)
        whole = avg_g2(tau, delta, *args, jac=jac)
        monkeypatch.setattr(averaging, "MAX_EVALUATIONS", 1000)
        calls = []
        g2_sums = averaging._g2_sums

        def counted(tau, x, *rest):
            calls.append((np.size(x), np.size(tau)))
            return g2_sums(tau, x, *rest)
        monkeypatch.setattr(averaging, "_g2_sums", counted)
        blocks = avg_g2(tau, delta, *args, jac=jac)
        assert len(calls) > 1 and all(n * t <= 1000 for n, t in calls)
        assert sum(n * t for n, t in calls) == delta.size * tau.size
        for a, b in zip(*(x if jac else (x,) for x in (whole, blocks))):
            assert np.array_equal(a, b)
        value = blocks[0] if jac else blocks
        for row, d in zip(value, delta):
            num, den = g2_tau_parts(tau, d, 1.2, 0.9, PHI15, 0.136)
            assert np.array_equal(row, num / den)

    def test_fit_corner_on_many_delays(self):
        # the widest lattice in the fit bounds (22k nodes per detuning) with
        # two histograms on 121 distinct delays: evaluated, not refused
        tau = np.arange(-600.0, 601.0, 5.0)
        counts = ModelCurves(REF).g2_trace(np.array([9.0, -9.0]), tau)
        hists = tuple(G2Histogram(detuning=d, tau_ps=tau, counts=c)
                      for d, c in zip((9.0, -9.0), counts))
        corner = REF.replace(**FIT_CORNERS["upper"])
        res = _Objective(MeasurementSet(g2_histograms=hists), corner).residuals(
            corner, jac=True)
        for r, d in res.values():
            assert np.all(np.isfinite(r)) and np.all(np.isfinite(d))


class TestAvgG1:
    def test_zero_width_identity(self):
        delta = np.linspace(-5, 5, 41)
        assert np.array_equal(avg_g1(delta, 1.1, 0.9, PHI15, 0.0),
                              g1_general(delta, 1.1, 0.9, PHI15))

    def test_far_detuned_limit(self):
        assert avg_g1(1e6, 1.0, 1.0, 0.0, 1.7852) == pytest.approx(1.0, abs=1e-6)

    def test_against_adaptive_quadrature(self):
        # independent oracle for the averaged dip floor at full transmission
        s = 1.7852

        def integrand(x):
            return (x * x / (1 + x * x)) * math.exp(-x * x / (2 * s * s)) \
                / (math.sqrt(2 * math.pi) * s)

        expected, err = quad(integrand, -np.inf, np.inf)
        assert err < 1e-7
        assert expected == pytest.approx(0.527441, abs=1e-6)
        assert avg_g1(0.0, 1.0, 1.0, 0.0, s) == pytest.approx(expected, abs=1e-12)

    def test_voigt_and_hermite_agree(self):
        # the closed form against the 2001-node rule over the detuning nodes
        y, w = roots_hermite(2001)
        x, w = np.sqrt(2.0) * 0.8 * y, w / np.sqrt(np.pi)
        delta = np.linspace(-6, 6, 25)
        for zeta, beta, alpha in ((1.2, 0.95, 0.0), (1.0, 1.0, 0.0), (1.5, 0.7, 0.8)):
            a = avg_g1(delta, zeta, beta, PHI15, 0.8, alpha)
            b = g1_general(delta[:, None] + x, zeta, beta, PHI15, alpha) @ w
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_rejects_negative_widths(self):
        with pytest.raises(ValueError, match="sigma"):
            avg_g1(0.0, 1.0, 1.0, PHI15, -1.0)
        for sigma, t_resp in ((-1.0, 0.0), (1.0, -0.1)):
            with pytest.raises(ValueError, match="must be non-negative"):
                avg_g2(0.0, 0.0, 1.0, 1.0, PHI15, sigma, t_resp)

    def test_linearity_of_the_weighting(self):
        # the average is a fixed linear functional of the curve samples
        x, w = _wandering_nodes(np.array([0.7]), 1.0, 1.2)
        w = w[0]
        f = g1_general(x, 1.0, 1.0, PHI15)
        g = g1_general(x, 1.4, 0.8, PHI15)
        combo = 2.0 * f + 3.0 * g
        assert combo @ w == pytest.approx(2.0 * (f @ w) + 3.0 * (g @ w), rel=1e-14)


class TestAvgG2:
    def test_zero_width_identity(self):
        tau = np.linspace(0, 6, 31)
        assert np.allclose(avg_g2(tau, np.asarray(1.3), 1.1, 0.9, PHI15, 0.0, 0.0),
                           g2_tau_general(tau, 1.3, 1.1, 0.9, PHI15), atol=0)

    def test_long_delay_normalization(self):
        assert avg_g2(50.0, np.asarray(2.0), 1.0066, 0.99, phi_from_t0(0.62),
                      1.7852, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_config_band_before_convolution(self):
        p = REF
        m = ModelCurves(p)
        delta = 2 * 9.0 / hbar_gamma(p.lifetime)
        zeta = 1 + 2 * p.lifetime / p.dephasing_time
        val = avg_g2(0.0, np.asarray(delta), zeta, p.beta, phi_from_t0(p.t0),
                     m.sigma, m.t_resp)
        assert 1.9 <= val <= 2.5

    def test_finite_on_the_transmission_zero(self):
        # the unaveraged value diverges there; the averaged one must not
        phi = phi_from_t0(math.sqrt(0.5))
        bare = g2_tau_general(0.0, -math.tan(phi), 1.0, 1.0, phi)
        smeared = avg_g2(0.0, np.asarray(-math.tan(phi)), 1.0, 1.0, phi, 1.0, 0.0)
        assert not np.isfinite(bare)
        assert np.isfinite(smeared)


def quad_decay(a, t, s):
    """Independent oracle: exp(-a|t - x|) against the Gaussian over +-40 s,
    split at the kink x = t."""
    kink = min(max(t, -40 * s), 40 * s)

    def part(f):
        return sum(quad(lambda x: f(np.exp(-a * abs(t - x)))
                        * math.exp(-0.5 * (x / s) ** 2) / (math.sqrt(2 * math.pi) * s),
                        lo, hi, epsabs=1e-14, epsrel=1e-13, limit=2000)[0]
                   for lo, hi in ((-40 * s, kink), (kink, 40 * s)) if hi > lo)
    return part(np.real) + 1j * part(np.imag)


class TestConvolution:
    def test_zero_width_identity(self):
        tau = np.linspace(-3, 3, 301)
        a = 1.2 - 0.7j
        assert np.array_equal(detected_decay(a, tau, 0.0), np.exp(-a * np.abs(tau)))

    def test_constant_preserved(self):
        # a decoupled emitter (beta = 0) stays exactly coherent after
        # detection; the wandering average sums in its own order
        tau = np.linspace(-3, 3, 301)
        assert np.array_equal(avg_g2(tau, 0.7, 1.2, 0.0, PHI15, 0.0, 0.136),
                              np.ones_like(tau))
        assert np.allclose(avg_g2(tau, 0.7, 1.2, 0.0, PHI15, 1.7852, 0.136), 1.0,
                           rtol=0, atol=1e-15)

    def test_commutes_with_reflection(self):
        tau = np.linspace(-4, 4, 401)
        out = avg_g2(tau, 1.3, 1.1, 0.9, PHI15, 1.2, 0.1)
        assert np.allclose(out, out[::-1], rtol=0, atol=1e-12)

    def test_interior_matches_exact_convolution(self):
        sigma = 0.136
        for a in (2.0, 1.0 - 1.3j, 1.4 + 0.6j):
            for t_chk in (-2.0, -0.5, 0.0, 0.05, 1.0, 2.5):
                got = complex(detected_decay(a, t_chk, sigma))
                assert abs(got - quad_decay(a, t_chk, sigma)) < 1e-10
        assert detected_decay(2.0, 0.0, sigma) < 1.0

    def test_stable_over_the_parameter_grid(self):
        # overflow-prone corners: large |a| s, small s, delays far past s
        worst = 0.0
        for s in (1e-6, 0.01, 0.136, 1.0, 3.0):
            for a in (2.0, 1.0 - 66.0j, 50.0 - 5.0j, 1.0 - 200.0j / s if s >= 1.0
                      else 1.0 - 20.0j):
                for t in (0.0, 0.5 * s, 3.0 * s, 8.9 * s, 9.1 * s, 40.0 * s, 200.0 * s):
                    got = complex(detected_decay(a, t, s))
                    assert np.isfinite(got)
                    worst = max(worst, abs(got - quad_decay(a, t, s)))
        assert worst < 1e-10

    def test_detected_g2_is_the_convolved_curve(self):
        # avg_g2 with a detector equals the quad convolution of its t_resp = 0 curve
        s = 0.136
        for t_chk in (0.0, 0.1, 0.7):
            want = sum(quad(lambda x: avg_g2(t_chk - x, 2.0, 1.05, 0.95, PHI15, 1.7852, 0.0)
                            * math.exp(-0.5 * (x / s) ** 2) / (math.sqrt(2 * math.pi) * s),
                            lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
                       for lo, hi in ((-12 * s, t_chk), (t_chk, 12 * s)))
            assert avg_g2(t_chk, 2.0, 1.05, 0.95, PHI15, 1.7852, s) == pytest.approx(want, abs=1e-9)


    def test_partials_match_central_differences(self):
        # both branches, the dropped Gaussian terms beyond 9 s, and no
        # detector (away from its cusp at tau = 0)
        h = 1e-6
        worst = 0.0
        for s in (0.0, 0.05, 0.136, 1.0):
            for a in (2.0, 1.0 - 3.0j, 1.2 + 0.4j, 6.0 - 20.0j):
                t = np.array([0.0 if s else 0.01, 0.3, 2.0, 8.0, 12.0]) * max(s, 0.1)
                _, da, dt, ds = detected_decay(a, t, s, partials=True)
                fd_a = (detected_decay(a + h, t, s) - detected_decay(a - h, t, s)) / (2 * h)
                fd_t = (detected_decay(a, t + h, s) - detected_decay(a, t - h, s)) / (2 * h)
                worst = max(worst, np.max(np.abs(da - fd_a)), np.max(np.abs(dt - fd_t)))
                if s > 0:
                    fd_s = (detected_decay(a, t, s + h) - detected_decay(a, t, s - h)) / (2 * h)
                    worst = max(worst, np.max(np.abs(ds - fd_s)))
        assert worst < 1e-8

    @pytest.mark.parametrize("t_resp", [0.136, 0.0])
    def test_repeated_delays_evaluated_once(self, t_resp, monkeypatch):
        # g2_trace evaluates a symmetric histogram once per distinct |tau|
        # and expands; values and partials are those of each delay alone on
        # the same lattice (the step depends on the largest |tau|, so each
        # goes with the last delay), up to the summation order of the node
        # sum (a partial within 1e-14 of its largest entry: some are sums
        # that cancel)
        p = REF.replace(detector_resp=t_resp * 2.0 * REF.lifetime)
        tau = np.arange(-600.0, 600.0 + 1e-9, 12.5)
        for jac in (False, True):
            m = ModelCurves(p, jac=jac)
            single = np.array([m.g2_trace(9.0, [t, tau[-1]])[0] for t in tau])
            rows = []
            g2_sums = averaging._g2_sums
            spy = lambda tau, *args: rows.append(np.size(tau)) or g2_sums(tau, *args)
            monkeypatch.setattr(averaging, "_g2_sums", spy)
            grid = m.g2_trace(9.0, tau)
            monkeypatch.undo()
            assert rows == [(tau.size + 1) // 2]
            assert grid.shape == single.shape == tau.shape + ((7,) if jac else ())
            assert np.array_equal(grid, grid[::-1])
            assert np.allclose(grid[..., 0] if jac else grid,
                               single[..., 0] if jac else single, rtol=1e-15, atol=0)
            scale = np.max(np.abs(single), axis=0)
            assert np.all(np.abs(grid - single) <= 1e-14 * scale)


class TestPartials:
    """Partials of the averages in the reduced quantities, against differences.

    Each output depends elementwise on the array argument (delta for the
    transmission, tau for g2), so one shifted array gives all its partials.
    """

    @staticmethod
    def central(f, args, i, h=1e-4):
        def at(k):
            moved = list(args)
            moved[i] = args[i] + k * h
            return f(*moved)
        return (at(-2) - 8 * at(-1) + 8 * at(1) - at(2)) / (12 * h)

    @pytest.mark.parametrize("sigma", [0.0, 1.7852])
    def test_transmission(self, sigma):
        def g1(delta, zeta, beta, phi, alpha, sig):
            return avg_g1(delta, zeta, beta, phi, sig, alpha)

        args = [np.linspace(-6.0, 6.0, 13), 1.05, 0.9, PHI15, 0.3, sigma]
        _, d = avg_g1(*args[:4], sigma, args[4], jac=True)
        # at sigma = 0 the sigma partial is zero (the average is even in sigma)
        want = [self.central(g1, args, i) for i in range(6 if sigma else 5)]
        want += [] if sigma else [np.zeros(13)]
        assert np.allclose(d, np.column_stack(want), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("delta,sigma", [(30.0, 0.005), (3.0, 0.01)])
    def test_transmission_width_partial_far_from_the_pole(self, delta, sigma):
        # |z| ~ 4200 and ~ 220: d<g1>/dsigma = <n dg1/ddelta(delta + sigma n)>
        # over a standard normal n, by adaptive quadrature of the unaveraged
        # partial; a chain rule through w's argument would cancel like |z|^2
        def integrand(n):
            slope = avg_g1(delta + sigma * n, 1.0, 0.9, -0.5, 0.0, jac=True)[1][0]
            return n * slope * math.exp(-0.5 * n * n) / math.sqrt(2.0 * math.pi)

        want, _ = quad(integrand, -np.inf, np.inf, epsabs=0, epsrel=1e-10)
        if delta == 30.0:
            assert want == pytest.approx(-3.8939131831e-7, rel=1e-10)
        value, d = avg_g1(np.array([delta]), 1.0, 0.9, -0.5, sigma, jac=True)
        assert d[0, -1] == pytest.approx(want, rel=1e-9)
        # a 0-d detuning takes w's asymptotic series as the 1-d one does
        scalar = avg_g1(delta, 1.0, 0.9, -0.5, sigma, jac=True)
        assert np.shape(scalar[0]) == () and scalar[1].shape == (6,)
        assert scalar[0] == value[0] and np.array_equal(scalar[1], d[0])

    @pytest.mark.parametrize("sigma", [0.0, 1.7852])
    def test_g2(self, sigma):
        def g2(delta, zeta, beta, phi, tau, t_resp, sig):
            return avg_g2(tau, delta, zeta, beta, phi, sig, t_resp)

        args = [0.7, 1.05, 0.9, PHI15, np.linspace(-1.0, 1.0, 9), 0.136, sigma]
        _, d = avg_g2(args[4], *args[:4], sigma, 0.136, jac=True)
        want = [self.central(g2, args, i) for i in range(7 if sigma else 6)]
        want += [] if sigma else [np.zeros(9)]
        assert np.allclose(d, np.column_stack(want), rtol=0, atol=1e-8)

    def test_scalar_delay_and_detuning(self):
        # 0-d tau and delta give the entries of the 1-d evaluation
        got = g2_tau_parts(0.3, 0.7, 1.05, 0.9, PHI15, 0.136, jac=True)
        want = g2_tau_parts(np.array([0.3]), np.array([0.7]), 1.05, 0.9, PHI15,
                            0.136, jac=True)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)[1:]
            assert np.allclose(g, w[0], rtol=1e-13, atol=0)
        for sigma in (0.0, 1.7852):     # the one-node rule and the lattice
            got = avg_g2(0.3, 0.7, 1.05, 0.9, PHI15, sigma, 0.136, jac=True)
            want = avg_g2(np.array([0.3]), np.array([0.7]), 1.05, 0.9, PHI15, sigma,
                          0.136, jac=True)
            for g, w in zip(got, want):
                assert np.array_equal(g, w[0, 0])

    def test_curves_with_partials_keep_their_values(self):
        # the value column of a curve with partials is the value-only curve
        plain, with_jac = ModelCurves(REF), ModelCurves(REF, jac=True)
        det, tau = np.linspace(-20.0, 20.0, 9), np.arange(-600.0, 601.0, 12.5)
        for name, args in (("transmission", (det,)), ("g2zero", (det,)),
                           ("g2_trace", (9.0, tau))):
            got = getattr(with_jac, name)(*args)
            assert got.shape == np.shape(getattr(plain, name)(*args)) + (7,)
            assert np.array_equal(got[..., 0], getattr(plain, name)(*args)), name


class TestModelCurves:
    def test_widths_come_from_the_params(self):
        m = ModelCurves(REF)
        assert m.sigma == pytest.approx(1.7851392513954498, rel=1e-12)
        assert m.t_resp == pytest.approx(0.136, rel=1e-12)

    def test_reference_g2zero_values(self):
        m = ModelCurves(REF)
        assert m.g2zero(9.0) == pytest.approx(1.961, abs=0.01)
        assert m.g2zero(-9.0) == pytest.approx(0.950, abs=0.01)
        # convolution pulls the bunching peak down
        m_raw = ModelCurves(REF.replace(detector_resp=0.0))
        assert m.g2zero(9.0) < m_raw.g2zero(9.0)

    def test_trace_matches_zero_delay_point(self):
        m = ModelCurves(REF)
        trace = m.g2_trace(9.0, np.array([-30.0, 0.0, 30.0, 4000.0]))
        assert trace[1] == pytest.approx(m.g2zero(9.0), abs=5e-4)
        assert trace[3] == pytest.approx(1.0, abs=1e-3)

    def test_transmission_vectorized(self):
        m = ModelCurves(REF)
        det = np.linspace(-40, 40, 11)
        vals = m.transmission(det)
        assert vals.shape == det.shape
        assert np.all((vals > 0) & (vals < 2.5))

    # dephasing_time = 1e-300 ps is zeta = 2.5e302, where the closed forms
    # overflow; a valid PhysicalParams, so a typed error and no traceback
    def test_overflowing_dephasing_transmission_is_a_typed_error(self):
        with pytest.raises(ValueError, match="zeta"):
            ModelCurves(PhysicalParams(dephasing_time=1e-300)).transmission([0.0])

    def test_overflowing_dephasing_g2zero_is_a_typed_error(self):
        with pytest.raises(ValueError, match="zeta"):
            ModelCurves(PhysicalParams(dephasing_time=1e-300)).g2zero([0.0])

    def test_dephasing_time_past_its_square_is_no_dephasing(self):
        # T2^2 overflows beyond about 1.3e154 ps; at 1e200 ps zeta rounds to
        # 1 and the T2 partial -2L/T2^2 dzeta underflows to 0, as at T2 = inf
        det, tau = np.linspace(-20.0, 20.0, 5), np.array([0.0, 100.0])
        far, inf = (ModelCurves(REF.replace(dephasing_time=t), jac=True)
                    for t in (1e200, math.inf))
        assert np.array_equal(far.transmission(det), inf.transmission(det))
        assert np.array_equal(far.g2_trace(det, tau), inf.g2_trace(det, tau))

    def test_finite_at_the_rate_collision(self):
        # dephasing_time = 250 ps with the default 125 ps lifetime is zeta = 2;
        # no lattice node sits on delta = 0, where the bare closed form is
        # singular, so the average is that of the neighbouring zeta
        g2 = ModelCurves(PhysicalParams(dephasing_time=250.0)).g2zero([0.0, 1.0])
        near = ModelCurves(PhysicalParams(dephasing_time=250.0 * (1 + 5e-10))).g2zero(
            [0.0, 1.0])
        assert np.allclose(g2, [1.5883, 1.6918], rtol=0, atol=1e-4)
        assert np.allclose(g2, near, rtol=1e-8, atol=0)

    def test_histograms_batched_by_detuning(self):
        # several detunings sharing delays give one row each, with partials
        tau = np.arange(-600.0, 601.0, 25.0)
        for jac in (False, True):
            m = ModelCurves(REF, jac=jac)
            rows = m.g2_trace(np.array([9.0, -9.0, 2.0]), tau)
            assert rows.shape == (3,) + tau.shape + ((7,) if jac else ())
            for row, d in zip(rows, (9.0, -9.0, 2.0)):
                assert np.allclose(row, m.g2_trace(d, tau), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("curve", ["g2zero", "transmission"])
    def test_overflowing_detuning_is_a_typed_error(self, curve):
        # a lifetime of 1e200 ps puts 1 ueV at delta = 3e197, where delta^2
        # overflows: a typed error, not a NaN with an overflow warning
        p = PhysicalParams(lifetime=1e200, dephasing_time=math.inf, sigma_wander=0.0,
                           detector_resp=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="detunings"):
                getattr(ModelCurves(p), curve)([1.0])


@pytest.mark.parametrize("lifetime", [1e-3, 1e-10, 1e-20, 1e-40, 1e-100, 1e-160, 1e-200,
                                      1e-300])
def test_small_lifetime_is_the_zero_width_limit(lifetime):
    # a lifetime of L ps makes sigma ~ 0.014 L and t_resp = 17/L, far below
    # and far above the lattice's scales: the average is its sigma = 0 limit
    p = PhysicalParams(lifetime=lifetime)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ModelCurves(p).g2zero([0.0, 0.5])
        want = ModelCurves(p.replace(sigma_wander=0.0)).g2zero([0.0, 0.5])
    assert np.allclose(got, want, rtol=1e-9, atol=0)


def _finite_or_explained(m, curve, det, values):
    """Non-finite g2 only where the closed form itself is: inf on a vanishing
    unaveraged transmission, NaN at the bare rate collision zeta = 2, delta = 0
    (test_bare_closed_form_at_the_rate_collision) under the one-node rule."""
    values = np.reshape(values, (np.size(det), -1))
    if curve == "transmission":
        return np.all(np.isfinite(values))
    T = ModelCurves(m.params).transmission(det)
    for row, d, t in zip(values, np.atleast_1d(det), np.atleast_1d(T)):
        value = row if not m.jac else row.reshape(-1, 7)[:, 0]
        if np.all(np.isfinite(row)):
            continue
        one_node = averaging._one_node(m.delta(d), m.sigma)
        if one_node and t == 0.0 and np.all(value == np.inf):
            continue
        if one_node and m.zeta == 2.0 and m.delta(d) == 0.0:
            continue
        return False
    return True


# corners of the fit bounds: the narrowest lattice, the widest (sigma ~ 300,
# zeta ~ 1: 22k nodes per detuning) and a dephased one (zeta = 41)
FIT_CORNERS = {
    name: {k: DEFAULT_BOUNDS[k][i] for k, i in zip(DEFAULT_BOUNDS, corner)}
    for name, corner in (("lower", (0,) * 6), ("upper", (1,) * 6),
                         ("dephased", (0, 1, 0, 1, 1, 0)))}


def case(**changes):
    """A PhysicalParams example of the property below, as its arguments."""
    fields = REF.replace(**changes).to_mapping()
    del fields["drive_amp"]
    return fields


# every valid PhysicalParams gives finite curves or a typed error
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(omega0=st.floats(-50.0, 50.0),
       lifetime=st.floats(-3.0, 250.0).map(lambda e: 10.0**e),
       dephasing_time=st.just(math.inf) | st.floats(-3.0, 12.0).map(lambda e: 10.0**e),
       beta=st.floats(0.0, 1.0),
       t0=st.floats(0.0, 1.0),
       sigma_wander=st.just(0.0) | st.floats(-25.0, 4.0).map(lambda e: 10.0**e),
       detector_resp=st.just(0.0) | st.floats(-3.0, 5.0).map(lambda e: 10.0**e),
       jac=st.booleans())
@example(**case(dephasing_time=250.0), jac=True)                      # zeta = 2
@example(**case(dephasing_time=250.0, sigma_wander=0.0), jac=False)
@example(**case(sigma_wander=1e-20), jac=True)
@example(**case(sigma_wander=1e-9), jac=True)
@example(**case(t0=1.0, beta=1.0, dephasing_time=math.inf, sigma_wander=0.0),
         jac=False)                                                   # Fano zero
@example(**case(t0=1.0), jac=True)                                    # dphi/dt0 = inf
@example(**case(**FIT_CORNERS["lower"]), jac=True)
@example(**case(**FIT_CORNERS["upper"]), jac=True)
@example(**case(**FIT_CORNERS["dephased"]), jac=True)
def test_curves_finite_or_typed_error(omega0, lifetime, dephasing_time, beta, t0,
                                      sigma_wander, detector_resp, jac):
    p = PhysicalParams(omega0=omega0, lifetime=lifetime, dephasing_time=dephasing_time,
                       beta=beta, t0=t0, sigma_wander=sigma_wander,
                       detector_resp=detector_resp)
    in_fit_bounds = all(lo <= getattr(p, k) <= hi for k, (lo, hi) in DEFAULT_BOUNDS.items())
    try:
        m = ModelCurves(p, jac=jac)
    except ValueError:          # t0 = 0: phi = -pi/2 is singular; t0 = 1 with jac
        assert not in_fit_bounds
        return
    det = omega0 + np.array([-20.0, -9.0, 0.0, 9.0, 20.0])
    tau = np.arange(-600.0, 601.0, 50.0)
    for curve, args in (("transmission", (det,)), ("g2zero", (det,)),
                        ("g2_trace", (det[[1, 3]], tau)), ("g2_trace", (det[2], tau))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = getattr(m, curve)(*args)
            except ValueError:
                assert not in_fit_bounds, curve
                continue
        assert _finite_or_explained(m, curve, args[0], values), curve
