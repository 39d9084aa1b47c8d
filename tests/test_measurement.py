"""Projective disentangling strategy and the optimal measurement bound."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from disentanglers import core, measurement
from disentanglers import (
    BlochQuadrature,
    DickeVector,
    DomainError,
    PureQubit,
    averaged_estimator,
    bloch_average,
    dilute_angle,
    dilution_overlap,
    estimator_output,
    measurement_avg_fidelity,
    moment_integrals,
    optimal_measurement_bound,
    optimal_measurement_bound_numeric,
    projector_pair,
    strategy_integral,
    symmetric_state,
)

QUAD = BlochQuadrature()


def random_dicke(rng, n):
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = c / np.linalg.norm(c)
    return DickeVector(n, c[0], c[1])


class TestProjectorPair:
    def test_polar_orientation(self):
        xi0, xi1 = projector_pair(0.0, 0.0, 4)
        assert np.allclose(xi0.amplitudes(), [1.0, 0.0])
        assert np.allclose(xi1.amplitudes(), [0.0, -1.0])

    def test_orthonormal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            xi0, xi1 = projector_pair(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                                      int(rng.integers(1, 12)))
            # DickeVector already enforces each norm
            assert abs(np.vdot(xi0.amplitudes(), xi1.amplitudes())) < 1e-12

    def test_aligned_input_is_deterministic(self):
        xi0, _ = projector_pair(np.pi / 2, 0.0, 3)
        big = DickeVector(3, np.cos(np.pi / 4), np.sin(np.pi / 4))
        overlap = np.vdot(xi0.amplitudes(), big.amplitudes())
        assert abs(overlap) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_reprepared_qubit_is_outcome_projector(self):
        # the re-preparation rule: along the apparatus axis after outcome 0,
        # along its antipode after outcome 1
        rng = np.random.default_rng(4)
        for _ in range(50):
            tp, pp = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            xi0, xi1 = projector_pair(tp, pp, int(rng.integers(1, 12)))
            for eta, xi in ((PureQubit.from_angles(tp, pp), xi0),
                            (PureQubit.from_angles(np.pi - tp, pp + np.pi), xi1)):
                overlap = abs(np.vdot(eta.amplitudes(), xi.amplitudes())) ** 2
                assert overlap == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("theta,phi,message", [
        ("a", 0.0, "apparatus angles must be real numbers"),
        (np.nan, 0.0, "apparatus theta=nan outside"),
        (0.5, np.inf, "apparatus phi=inf"),
        (np.array([0.3, 0.4]), 0.0, "apparatus angles must be scalars")])
    def test_rejects_angles_naming_them(self, theta, phi, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            projector_pair(theta, phi, 2)


class TestMeasurementOutcomes:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pair = projector_pair(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), 5)
            big = random_dicke(rng, 5)
            p = [abs(np.vdot(xi.amplitudes(), big.amplitudes())) ** 2 for xi in pair]
            assert p[0] + p[1] == pytest.approx(1.0)

    def test_prepared_states_orthogonal(self):
        # the re-prepared qubits carry the projectors' amplitudes
        xi0, xi1 = projector_pair(1.1, 2.3, 2)
        assert abs(np.vdot(xi0.amplitudes(), xi1.amplitudes())) < 1e-12


class TestEstimatorOutput:
    def test_polar_input_polar_apparatus(self):
        rho = estimator_output(DickeVector(4, 1.0, 0.0), projector_pair(0.0, 0.0, 4))
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-14)

    def test_deterministic_outcome(self):
        pair = projector_pair(0.9, 1.7, 6)
        rho = estimator_output(pair[0], pair)
        eta0 = pair[0].amplitudes()  # same two amplitudes as the prepared qubit
        assert np.allclose(rho.entries, np.outer(eta0, eta0.conj()), atol=1e-12)

    def test_spectral_structure(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            pair = projector_pair(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), n)
            big = random_dicke(rng, n)
            rho = estimator_output(big, pair)
            for xi in pair:
                v = xi.amplitudes()
                p = abs(np.vdot(v, big.amplitudes())) ** 2
                assert np.allclose(rho.entries @ v, p * v, atol=1e-12)

    def test_qubit_counts_must_agree(self):
        with pytest.raises(DomainError):
            estimator_output(DickeVector(3, 1.0, 0.0), projector_pair(0.5, 0.0, 4))

    def test_pair_from_two_counts_raises(self):
        mixed = (projector_pair(0.3, 0.2, 3)[0], projector_pair(0.3, 0.2, 5)[1])
        with pytest.raises(DomainError, match=r"projector pair at n=3, got n=\(3, 5\)"):
            estimator_output(DickeVector(3, 0.6, 0.8), mixed)

    def test_repeated_projector_raises(self):
        xi0 = projector_pair(0.3, 0.2, 3)[0]
        with pytest.raises(DomainError, match=r"projector pair at n=3, got n=\(3, 3\), "
                                              r".*\|<xi0\|xi1>\| = 0\.99"):
            estimator_output(DickeVector(3, 0.6, 0.8), (xi0, xi0))

    def test_stacked_projector_raises(self):
        stack = DickeVector(3, np.array([0.6, 0.8]), np.array([0.8, 0.6]))
        with pytest.raises(DomainError, match=r"projector pair at n=3, .*shapes"):
            estimator_output(DickeVector(3, 0.6, 0.8), (projector_pair(0.3, 0.2, 3)[0], stack))


class TestAveragedEstimator:
    def test_polar_input(self):
        rho = averaged_estimator(DickeVector(5, 1.0, 0.0), QUAD)
        assert np.allclose(rho.entries, np.diag([2 / 3, 1 / 3]), atol=1e-13)

    def test_equatorial_input(self):
        big = DickeVector(3, np.cos(np.pi / 4), np.sin(np.pi / 4))
        rho = averaged_estimator(big, QUAD)
        assert np.allclose(rho.entries, [[0.5, 1 / 6], [1 / 6, 0.5]], atol=1e-13)

    def test_matches_closed_form_for_random_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            big = random_dicke(rng, n)
            rho = averaged_estimator(big, QUAD)
            psi = big.amplitudes()
            expected = np.outer(psi, psi.conj()) / 3 + np.eye(2) / 3
            assert np.max(np.abs(rho.entries - expected)) < 1e-8
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


    def test_equals_weighted_estimator_outputs(self):
        # the orientation average is the same channel, node by node
        quad = BlochQuadrature(4, 3)
        th, ph, w = quad.grid()
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            big = random_dicke(rng, n)
            expected = sum(w[k, m] * estimator_output(
                big, projector_pair(th[k, m], ph[k, m], n)).entries
                for k in range(4) for m in range(3))
            got = averaged_estimator(big, quad).entries
            assert np.max(np.abs(got - expected)) < 1e-14

    def test_needs_three_azimuth_nodes(self):
        big = DickeVector(2, np.cos(0.3), np.sin(0.3))
        for n_theta in (2, 3):
            with pytest.raises(DomainError):
                averaged_estimator(big, BlochQuadrature(n_theta, 2))

    @pytest.mark.parametrize("n_theta,n_phi", [(2, 3), (3, 3), (2, 4), (5, 7), (64, 64)])
    def test_collapses_on_coarse_grids(self, n_theta, n_phi):
        # the azimuthal integrand has frequency 2, so n_phi = 3 is exact
        quad = BlochQuadrature(n_theta, n_phi)
        rng = np.random.default_rng(10)
        for _ in range(100):
            big = random_dicke(rng, int(rng.integers(1, 11)))
            psi = big.amplitudes()
            expected = np.outer(psi, psi.conj()) / 3 + np.eye(2) / 3
            rho = averaged_estimator(big, quad)
            assert np.max(np.abs(rho.entries - expected)) < 1e-13


class TestOverlapAndAverageFidelity:
    def test_endpoints(self):
        assert dilution_overlap(1) == 1.0
        assert dilution_overlap(2) == pytest.approx(0.9804911966047682, abs=1e-12)
        assert abs(dilution_overlap(10 ** 6) - 0.5) < 2e-3
        assert measurement_avg_fidelity(1) == pytest.approx(2 / 3, abs=1e-15)
        assert measurement_avg_fidelity(2) == pytest.approx(0.6601637322015894,
                                                            abs=1e-12)
        assert abs(measurement_avg_fidelity(10 ** 6) - 0.5) < 1e-3

    def test_floored_at_half(self):
        # rounding alone gives 0.4999999999999999 at 2^107
        assert dilution_overlap(2 ** 107) == 0.5
        assert measurement_avg_fidelity(2 ** 107) == 0.5
        assert measurement_avg_fidelity(10 ** 100) == 0.5

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25, 50])
    def test_overlap_closed_form_vs_quadrature(self, n):
        def overlap_sq(th, ph):
            tb = dilute_angle(th, n)
            return np.cos((th - tb) / 2) ** 2

        assert abs(dilution_overlap(n) - bloch_average(overlap_sq, QUAD)) < 1e-9


class TestStrategyIntegral:
    def test_polynomial_value_n1(self):
        got = strategy_integral(0, 0.0, 0.0, 0.0, 0.0, 1, QUAD)
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_branches_bounded_by_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            tm, pm = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            tp, pp = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            total = (strategy_integral(0, tp, pp, tm, pm, n, QUAD)
                     + strategy_integral(1, tp, pp, tm, pm, n, QUAD))
            assert total <= 1.0 + 1e-12

    def test_alignment_beats_antipode(self):
        for tm in np.linspace(0.1, np.pi - 0.1, 12):
            aligned = strategy_integral(0, tm, 0.0, tm, 0.0, 2, QUAD)
            antipodal = strategy_integral(0, np.pi - tm, np.pi, tm, 0.0, 2, QUAD)
            assert aligned >= antipodal - 1e-12

    def test_azimuthal_translation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            tp, pp = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            tm, pm = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            shift = rng.uniform(0, 2 * np.pi)
            for j in (0, 1):
                a = strategy_integral(j, tp, pp, tm, pm, 3, QUAD)
                b = strategy_integral(j, tp, pp + shift, tm, pm + shift, 3, QUAD)
                assert a == pytest.approx(b, abs=1e-13)

    @pytest.mark.parametrize("args, message", [
        ((0.5, 0.0, np.nan, 0.0), "apparatus theta=nan"),
        ((0.5, 0.0, 7.0, 0.0), "apparatus theta=7.0"),
        ((0.5, 0.0, 0.3, np.inf), "apparatus phi=inf"),
        ((0.5, 0.0, np.array([0.3, 0.4]), 0.0), "apparatus angles must be scalars"),
        ((np.nan, 0.0, 0.3, 0.0), "preparation theta=nan"),
        ((np.array([0.1, np.nan]), 0.0, 0.3, 0.0), "preparation theta="),
        ((0.5, np.array([0.0, -np.inf]), 0.3, 0.0), "preparation phi="),
    ], ids=["theta_meas-nan", "theta_meas-7", "phi_meas-inf", "theta_meas-array",
            "theta_prep-nan", "theta_prep-array-nan", "phi_prep-array-inf"])
    def test_rejects_angles_outside_their_ranges(self, args, message):
        # a DomainError before any evaluation: no NaN, no value for an
        # apparatus outside [0, pi], no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(message)):
                strategy_integral(0, *args, 3, BlochQuadrature(8, 8))

    def test_takes_every_finite_azimuth(self):
        # the integral is 2 pi-periodic in both azimuths, which need not be
        # reduced first
        small = BlochQuadrature(8, 8)
        assert np.isfinite(strategy_integral(1, 0.5, 9.0, 0.3, -4.0, 3, small))

    def test_vectorized_matches_scalar(self):
        grid = np.linspace(0, np.pi, 7)
        vec = strategy_integral(0, grid, 0.3, 1.0, 0.0, 4, QUAD)
        for t, v in zip(grid, vec):
            assert strategy_integral(0, float(t), 0.3, 1.0, 0.0, 4, QUAD) == \
                pytest.approx(v, abs=1e-15)


class TestOptimalBound:
    def test_endpoints(self):
        assert optimal_measurement_bound(1) == pytest.approx(2 / 3, abs=1e-15)
        assert optimal_measurement_bound(2) == pytest.approx(0.6608040566225483,
                                                             abs=1e-12)
        assert abs(optimal_measurement_bound(10 ** 6) - 0.5) < 1e-3

    def test_reads_m3(self):
        n = np.arange(2, 5000)
        m3 = moment_integrals(n)[2]
        assert np.array_equal(optimal_measurement_bound(n), 0.5 * (1.0 + np.sqrt(n) * m3))

    @pytest.mark.parametrize("n,pinned", [
        (2, "0x1.5254e8c884159p-1"), (3, "0x1.4e0eaf7587bf9p-1"),
        (5, "0x1.46b5c40cb1965p-1"), (8, "0x1.3ec216b528e5cp-1"),
        (10, "0x1.3acc5a7c6a599p-1"), (25, "0x1.2ae025acf7b69p-1"),
        (10 ** 6, "0x1.004188cd8198ap-1")])
    def test_bits_at_verify_counts(self, n, pinned):
        # the counts `verify` reads the bound at; written as sqrt(N) times
        # the quotient m3 or as one quotient, the bound has these same bits
        assert optimal_measurement_bound(n) == float.fromhex(pinned)

    def test_dominates_projective_strategy(self):
        for n in range(2, 51):
            assert measurement_avg_fidelity(n) < optimal_measurement_bound(n)

    def test_numeric_matches_closed_form(self):
        for n in (1, 2):
            got = optimal_measurement_bound_numeric(n)
            assert got == pytest.approx(optimal_measurement_bound(n), abs=1e-9)

    def test_search_calls_module_golden_section(self, monkeypatch):
        # named for the golden-section refine `_grid_refine` replaced: one
        # refine from the 64-node grid on [0, pi] down to a 1e-6 bracket
        real = measurement._grid_refine
        calls = []

        def counted(fun, lo, hi, nodes, xatol):
            calls.append((lo, hi, nodes, xatol))
            return real(fun, lo, hi, nodes, xatol)

        monkeypatch.setattr(measurement, "_grid_refine", counted)
        got = optimal_measurement_bound_numeric(2)
        assert calls == [(0.0, np.pi, 64, 1e-6)]
        assert got == pytest.approx(optimal_measurement_bound(2), abs=1e-9)

    def test_golden_section_brackets_the_minimum(self):
        # `_grid_refine`, under the golden-section test's name, on a toy
        # peak at 0.3, between nodes of the first grid; each pass keeps
        # 2/63 of the bracket, so five passes take 1 down to 1e-7.  The best
        # value evaluated is the peak value at a node within 1e-6 of 0.3
        seen = []

        def peak(x):
            seen.append(x)
            return -(x - 0.3) ** 2

        best = core._grid_refine(peak, 0.0, 1.0, 64, 1e-6)
        assert len(seen) == 5 and all(x.shape == (64,) for x in seen)
        nodes = np.concatenate(seen)
        values = -(nodes - 0.3) ** 2
        assert best == values.max()
        assert abs(nodes[values.argmax()] - 0.3) < 1e-6

    def test_grid_refine_keeps_nan(self):
        # a NaN in the first pass stays the result, though later passes are finite
        calls = []

        def first_pass_nan(x):
            calls.append(x)
            f = -(x - 0.3) ** 2
            return np.where(x == 0.5, np.nan, f) if len(calls) == 1 else f

        assert np.isnan(core._grid_refine(first_pass_nan, 0.0, 1.0, 5, 1e-6))
        assert len(calls) > 1

    @staticmethod
    def capped_peak(top, calls):
        """-(x - top)^2, recording each call in `calls`; a refine that looped
        stops at the 1000th call with RuntimeError instead of hanging."""
        def peak(x):
            calls.append(x)
            if len(calls) >= 1000:
                raise RuntimeError("the refine did not end")
            return -(x - top) ** 2
        return peak

    @pytest.mark.parametrize("nodes, xatol", [(3, 1e-6), (4, 0.0), (4, np.nan)])
    def test_grid_refine_that_would_never_end_raises(self, nodes, xatol):
        # three nodes keep the whole bracket when the middle one is best, and
        # no bracket gets within a zero or NaN width; each raises up front
        calls = []
        with pytest.raises(DomainError):
            core._grid_refine(self.capped_peak(0.5, calls), 0.0, 1.0, nodes, xatol)
        assert calls == []

    def test_grid_refine_ends_at_float_resolution(self):
        # a width below the spacing of floats near the peak ends once the
        # bracket stops narrowing, with the best value evaluated
        calls = []
        best = core._grid_refine(self.capped_peak(0.3, calls), 0.0, 1.0, 64, 1e-300)
        assert -1e-30 <= best <= 0.0 and len(calls) < 20
        # a NaN end gives a NaN bracket, which ends after one pass
        calls.clear()
        assert np.isnan(core._grid_refine(self.capped_peak(0.3, calls), 0.0, np.nan, 64, 1e-6))
        assert len(calls) == 1

    def test_numeric_dominates_projective(self):
        for n in (2, 5, 10):
            assert (optimal_measurement_bound_numeric(n)
                    >= measurement_avg_fidelity(n) - 1e-6)

    def test_inner_supremum_covers_full_plane(self):
        # the exact branch supremum (P + |R|) / 2 dominates a dense 2-D scan
        # of the preparation sphere and is attained at the direction R / |R|
        tgrid = np.linspace(0, np.pi, 65)
        pgrid = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        th, ph, _ = QUAD.grid()
        for n in (1, 3, 10):
            tables = measurement._ensemble_tables(n, QUAD)
            for tm in (0.0, 0.4, 1.2, np.pi / 2, 2.9):
                amp, re = measurement._branch_weights(tm, 0.0, tables)
                for j, best in enumerate(measurement._branch_suprema(tm, tables)):
                    scan = max(float(np.max(strategy_integral(j, tgrid, p, tm, 0.0,
                                                              n, QUAD)))
                               for p in pgrid)
                    assert best >= scan - 1e-14

                    wp = tables["w"] * (amp[j][:, None]
                                        + tables["cbsb2"][:, None] * re[j][None, :])
                    big_r = [np.sum(wp * np.sin(th) * np.cos(ph)),
                             np.sum(wp * np.sin(th) * np.sin(ph)),
                             np.sum(wp * np.cos(th))]
                    r = np.linalg.norm(big_r)
                    t_prep = float(np.arccos(np.clip(big_r[2] / r, -1.0, 1.0)))
                    p_prep = float(np.arctan2(big_r[1], big_r[0]))
                    attained = strategy_integral(j, t_prep, p_prep, tm, 0.0, n, QUAD)
                    assert best == pytest.approx(attained, abs=1e-14)


class TestBranchSuprema:
    def test_array_matches_angle_by_angle(self):
        tables = measurement._ensemble_tables(3, QUAD)
        angles = np.linspace(0.0, np.pi, 64)
        both = measurement._branch_suprema(angles, tables)
        assert both.shape == (2, 64)
        for k, tm in enumerate(angles):
            one = measurement._branch_suprema(float(tm), tables)
            assert one.shape == (2,)
            assert np.max(np.abs(both[:, k] - one)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 25])
    def test_factored_moments_match_the_unfactored_product(self, n):
        # the tables' (3, 4) "branch" matrix against the outcome factors
        # (amp, re) contracted with the weighted Bloch factors of the inputs
        # on the 64-node grid the bound's search starts from
        tables = measurement._ensemble_tables(n, QUAD)
        angles = np.linspace(0.0, np.pi, 64)
        c, s, w = tables["c"], tables["s"], tables["w"]
        cos_ph, sin_ph = tables["cos_ph"], tables["sin_ph"]
        f_th = np.stack([np.ones_like(c), 2.0 * c * s, 2.0 * c * s, c ** 2 - s ** 2])
        f_ph = np.stack([np.ones_like(cos_ph), cos_ph, sin_ph, np.ones_like(cos_ph)])
        ma = (f_th * (f_ph @ w.T)).T
        mr = (f_ph * ((f_th * tables["cbsb2"]) @ w)).T
        amp, re = measurement._branch_weights(angles, 0.0, tables)
        moments = amp @ ma + re @ mr
        want = 0.5 * (moments[..., 0] + np.linalg.norm(moments[..., 1:], axis=-1))
        got = measurement._branch_suprema(angles, tables)
        assert got.shape == want.shape == (2, 64)
        assert np.abs(got - want).max() <= 1e-15

    def test_search_memory_stays_small(self):
        # the suprema contract the rank-2 weights factor by factor; a search
        # that formed an (apparatus x theta x phi) array would peak at MiBs
        optimal_measurement_bound_numeric(8)
        tracemalloc.start()
        try:
            optimal_measurement_bound_numeric(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestSymmetricStateConsistency:
    def test_projector_alignment_with_dilution(self):
        # measuring along the diluted orientation always fires outcome 0
        psi = PureQubit(0.7, 1.9)
        big = symmetric_state(psi, 6)
        tbar = dilute_angle(psi.theta, 6)
        xi0, _ = projector_pair(tbar, psi.phi, 6)
        overlap = np.vdot(xi0.amplitudes(), big.amplitudes())
        assert abs(overlap) ** 2 == pytest.approx(1.0, abs=1e-12)
