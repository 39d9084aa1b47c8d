"""Device transforms: closed forms, covariance, optimality re-derivation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from disentanglers import core, devices
from disentanglers import (
    BlochQuadrature,
    DeviceTransform,
    DomainError,
    OptimizationError,
    PureQubit,
    UnitarityError,
    apply_transform,
    bloch_average,
    covariance_spread,
    device_avg_fidelity,
    dilute_angle,
    dilution_overlap,
    fidelity_pure,
    gram_summary,
    moment_integrals,
    optimize_average,
    optimize_universal,
    pointwise_fidelity,
    random_transform,
    swap_disentangler,
    symmetric_state,
    unitarity_residuals,
    universal_coefficients,
    universal_disentangler,
)

QUAD = BlochQuadrature()

GAMMA2_N2 = 0.9459029062228062  # 3 / (2 (3 - sqrt(2)))
GAMMA2_N3 = 0.8818539703952119  # 4 / (2 (4 - sqrt(3)))
OVERLAP_N2 = 0.9804911966047682


def basis(k):
    e = np.zeros(4, dtype=complex)
    e[k] = 1.0
    return e


class TestDeviceTransform:
    def test_read_only_copies(self):
        v = np.stack([basis(0), np.zeros(4), np.zeros(4), basis(0)])
        t = DeviceTransform(2, v)
        with pytest.raises(ValueError):
            t.vectors[0, 0] = 0
        v[0, 0], v[3, 1] = 0, 1
        assert np.array_equal(t.vectors, swap_disentangler(2).vectors)

    @pytest.mark.parametrize("vectors", [np.zeros((3, 4)), np.zeros((4, 3)), np.zeros(16),
                                         [[0.0] * 4, [0.0] * 4, [0.0] * 4, [0.0] * 3],
                                         {}, [[10 ** 400, 0, 0, 0], *[[0] * 4] * 3],
                                         [["a", 0, 0, 0], *[[0] * 4] * 3]],
                             ids=["3x4", "4x3", "flat", "ragged", "dict", "1e400", "string"])
    def test_wrong_shape_raises_domain_error(self, vectors):
        with pytest.raises(DomainError, match=r"shape \(4, 4\)"):
            DeviceTransform(2, vectors)


class TestUnitarityResiduals:
    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    def test_universal_satisfies_constraints(self, n):
        assert max(unitarity_residuals(universal_disentangler(n))) < 1e-12

    def test_swap_exact(self):
        assert unitarity_residuals(swap_disentangler(7)) == (0.0, 0.0, 0.0)

    def test_scaled_vector_breaks_first_constraint(self):
        # the constructor refuses it, naming the three residuals
        with pytest.raises(UnitarityError, match=r"residuals \(3\.0, 0\.0, 0\.0\) exceed"):
            DeviceTransform(2, [2.0 * basis(0), np.zeros(4), np.zeros(4), basis(0)])

    def test_apply_rejects_non_unitary(self):
        # no entry point that reads a device can be handed a non-unitary one:
        # it is refused when built, whether a norm or an overlap is off
        for vectors in ([2.0 * basis(0), np.zeros(4), np.zeros(4), basis(0)],
                        [basis(0), np.zeros(4), basis(0), np.zeros(4)]):
            with pytest.raises(UnitarityError):
                DeviceTransform(2, vectors)

    @pytest.mark.parametrize("vector", range(4))
    def test_nan_entry_fails_the_guard(self, vector):
        # a NaN residual compares false against any tolerance; it must fail
        v = swap_disentangler(3).vectors.copy()
        v[vector, 1] = np.nan
        with pytest.raises(UnitarityError, match="nan"):
            DeviceTransform(3, v)


class TestApplyTransform:
    def test_universal_on_zero_excitation(self):
        n = 4
        gamma, delta = universal_coefficients(n)
        _, rho = apply_transform(universal_disentangler(n),
                                 symmetric_state(PureQubit(0.0, 0.0), n))
        assert np.allclose(rho.entries, np.diag([gamma ** 2, delta ** 2]),
                           atol=1e-14)

    def test_swap_output_is_pure_diluted_state(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            psi = PureQubit(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            _, rho = apply_transform(swap_disentangler(n), symmetric_state(psi, n))
            diluted = PureQubit.from_angles(dilute_angle(psi.theta, n), psi.phi)
            assert fidelity_pure(diluted, rho) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(DomainError):
            apply_transform(universal_disentangler(3),
                            symmetric_state(PureQubit(1.0, 0.0), 4))

    def test_trace_one_for_random_transforms(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            t = random_transform(n, rng)
            _, rho = apply_transform(t, symmetric_state(
                PureQubit(rng.uniform(0, np.pi), 0.0), n))
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


class TestPointwiseFidelity:
    def test_universal_is_constant(self):
        gamma, _ = universal_coefficients(5)
        t = universal_disentangler(5)
        for th in np.linspace(0, np.pi, 9):
            assert pointwise_fidelity(t, th, 1.3) == pytest.approx(gamma ** 2,
                                                                   abs=1e-13)

    def test_swap_is_the_dilution_overlap(self):
        t = swap_disentangler(3)
        for th in np.linspace(0, np.pi, 9):
            expected = np.cos((th - dilute_angle(th, 3)) / 2) ** 2
            assert pointwise_fidelity(t, th, 0.7) == pytest.approx(expected,
                                                                   abs=1e-13)
        assert pointwise_fidelity(t, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_matches_direct_route(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            t = random_transform(n, rng)
            th = float(rng.uniform(0, np.pi))
            ph = float(rng.uniform(0, 2 * np.pi))
            psi = PureQubit(th, ph)
            _, rho = apply_transform(t, symmetric_state(psi, n))
            direct = fidelity_pure(psi, rho)
            assert abs(pointwise_fidelity(t, th, ph) - direct) < 1e-11

    def test_non_finite_phi_raises(self):
        t = universal_disentangler(3)
        for phi in (np.inf, -np.inf, np.nan, np.array([0.5, np.inf])):
            with pytest.raises(DomainError, match="phi not finite"):
                pointwise_fidelity(t, 1.0, phi)
        # any finite azimuth is a rotation, as before
        assert pointwise_fidelity(t, 1.0, 7.0) == pytest.approx(
            pointwise_fidelity(t, 1.0, 7.0 - 2 * np.pi), abs=1e-15)

    @pytest.mark.parametrize("theta,phi", [("a", 0.0), (0.5, "a"), (1j, 0.0)])
    def test_non_real_angle_raises_domain_error(self, theta, phi):
        with pytest.raises(DomainError, match="real numbers"):
            pointwise_fidelity(universal_disentangler(3), theta, phi)


class TestUniversalCoefficients:
    def test_identity_at_n1(self):
        gamma, delta = universal_coefficients(1)
        assert gamma ** 2 == pytest.approx(1.0, abs=1e-15)
        assert delta == 0.0

    def test_frozen_values(self):
        assert universal_coefficients(2)[0] ** 2 == pytest.approx(GAMMA2_N2,
                                                                  abs=1e-14)
        assert universal_coefficients(3)[0] ** 2 == pytest.approx(GAMMA2_N3,
                                                                  abs=1e-14)

    def test_large_n_limit(self):
        assert abs(universal_coefficients(10 ** 6)[0] ** 2 - 0.5) < 1e-3


class TestCovarianceSpread:
    def test_universal_spread_vanishes(self):
        assert covariance_spread(universal_disentangler(3)) < 1e-12

    def test_swap_spread_positive(self):
        spread = covariance_spread(swap_disentangler(2))
        assert spread > 0.01

    def test_both_devices_trivial_at_n1(self):
        assert covariance_spread(universal_disentangler(1)) < 1e-14
        assert covariance_spread(swap_disentangler(1)) < 1e-14


class TestMomentIntegrals:
    def test_array_matches_scalars_with_exact_n1(self):
        arrays = moment_integrals(np.array([1, 2, 3]))
        assert all(type(m) is np.ndarray and m.shape == (3,) for m in arrays)
        assert [m[0] for m in arrays] == [2 / 3, 2 / 3, 1 / 3]
        for k, n in enumerate((1, 2, 3)):
            assert tuple(m[k] for m in arrays) == moment_integrals(n)

    def test_array_equals_scalar_bit_for_bit(self):
        ns = np.concatenate([np.arange(1, 2001),
                             np.geomspace(2001, 10 ** 6, 200).astype(np.int64)])
        scalars = np.array([moment_integrals(int(n)) for n in ns]).T
        assert np.array_equal(np.array(moment_integrals(ns)), scalars)

    def test_array_rejects_zero_naming_it(self):
        with pytest.raises(DomainError, match="got 0"):
            moment_integrals(np.array([0, 2]))

    def test_sum_rule_on_arrays(self):
        n = np.arange(1, 10 ** 5)
        m1, m2, m3 = moment_integrals(n)
        # the terms are at most 2 in size, so a few ulp of 2 covers the sum
        assert np.max(np.abs(n * m1 + m2 + (n + 1) * m3 - 2.0)) <= 8 * np.spacing(2.0)

    def test_frozen_n2(self):
        m1, m2, m3 = moment_integrals(2)
        assert m1 == pytest.approx(0.3862943611198906, abs=1e-14)  # 2 ln 2 - 1
        assert m2 == pytest.approx(0.5451774444795623, abs=1e-14)  # 8 ln 2 - 5
        assert m3 == pytest.approx(0.2274112777602189, abs=1e-14)  # 3 - 4 ln 2

    def test_sum_rule_and_positivity(self):
        for n in range(2, 101):
            m1, m2, m3 = moment_integrals(n)
            assert n * m1 + m2 + (n + 1) * m3 == pytest.approx(2.0, abs=1e-10)
            assert m1 > 0 and m2 > 0 and m3 > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25])
    def test_matches_defining_integrals(self, n):
        u, wu = np.polynomial.legendre.leggauss(64)
        th = np.arccos(u)
        c2, s2 = np.cos(th / 2) ** 2, np.sin(th / 2) ** 2
        weight = 1.0 / (n * c2 + s2)
        quads = (np.sum(wu * weight * c2 * c2),
                 np.sum(wu * weight * s2 * s2),
                 np.sum(wu * weight * s2 * c2))
        assert np.max(np.abs(np.array(moment_integrals(n)) - quads)) < 1e-10


class TestDeviceAvgFidelity:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_swap_average_is_overlap(self, n):
        assert device_avg_fidelity(swap_disentangler(n)) == pytest.approx(
            dilution_overlap(n), abs=1e-12)

    def test_universal_average_is_constant_value(self):
        assert device_avg_fidelity(universal_disentangler(2)) == pytest.approx(
            GAMMA2_N2, abs=1e-12)

    def test_matches_quadrature_for_random_transforms(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            t = random_transform(n, rng)
            closed = device_avg_fidelity(t)
            via_quad = bloch_average(lambda th, ph: pointwise_fidelity(t, th, ph),
                                     QUAD)
            assert abs(closed - via_quad) < 1e-9

    def test_quadrature_equals_the_meshed_sum(self):
        # bloch_average hands the integrand a column of polar nodes and a row
        # of azimuth nodes; the result must equal the sum over the meshed
        # grid bit for bit
        th, ph, w = QUAD.grid()
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5, 10, 25):
            t = random_transform(n, rng)
            meshed = float(np.sum(w * pointwise_fidelity(t, th, ph)))
            assert bloch_average(lambda th, ph: pointwise_fidelity(t, th, ph),
                                 QUAD) == meshed


def overlap_14(g):
    """Re <D4|D1> normalized by ||D1|| ||D4||; 1 for matched parallel vectors."""
    return g[3, 0].real / np.sqrt(g[0, 0].real * g[3, 3].real)


class TestGramSummary:
    def test_universal_parameters(self):
        g = gram_summary(universal_disentangler(4))
        assert g.shape == (4, 4)
        assert g[3, 0].real / g[3, 3].real == pytest.approx(1.0, abs=1e-14)
        assert overlap_14(g) == pytest.approx(1.0, abs=1e-14)
        assert g[0, 0].real == pytest.approx(g[3, 3].real, abs=1e-14)

    def test_read_only_and_formed_once(self):
        t = random_transform(3, np.random.default_rng(15))
        g = gram_summary(t)
        with pytest.raises(ValueError):
            g[0, 0] = 0.0
        assert gram_summary(t) is g

    def test_gram_is_psd(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            g = gram_summary(random_transform(3, rng))
            assert np.linalg.eigvalsh(g).min() > -1e-12
            assert abs(overlap_14(g)) <= 1.0 + 1e-15


class TestFamilyObjectives:
    @pytest.mark.parametrize("family,dim", [(devices._general, 3), (devices._covariant, 1)],
                             ids=["general", "covariant"])
    def test_gram_objective_matches_built_device(self, family, dim):
        # angles are drawn well outside one period, negative ones included
        rng = np.random.default_rng(16)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            coords = family(float(n), rng.uniform(-4 * np.pi, 4 * np.pi, size=dim))
            via_gram = devices._avg_fidelity(devices._avg_coefficients(n),
                                             *devices._gram(*coords))
            assert via_gram == pytest.approx(
                device_avg_fidelity(devices._device(n, *coords)), abs=1e-14)

    @given(eta1=st.floats(0.0, 1.0), eta4=st.floats(0.0, 1.0), w=st.floats(-1.0, 1.0))
    def test_builder_realizes_its_gram_coordinates(self, eta1, eta4, w):
        # every device the searches build is unitary by construction
        t = devices._device(3, eta1, eta4, w)
        g = gram_summary(t)
        assert g.diagonal().real == pytest.approx([eta1, 1 - eta1, 1 - eta4, eta4],
                                                  abs=1e-15)
        assert g[0, 3].real == pytest.approx(np.sqrt(eta1 * eta4) * w, abs=1e-15)
        assert max(unitarity_residuals(t)) <= 1e-15

    def test_array_objective_matches_scalar_rows(self):
        # the searches evaluate each family on many rows at once, with a count
        # per row; every row agrees with its scalar evaluation
        rng = np.random.default_rng(17)
        counts = rng.integers(1, 30, size=200).astype(float)
        for family, dim in ((devices._general, 3), (devices._covariant, 1)):
            p = rng.uniform(-4 * np.pi, 4 * np.pi, size=(counts.size, dim))
            rows = np.stack(family(counts, p))
            for i, count in enumerate(counts):
                assert rows[:, i] == pytest.approx(family(count, p[i]), rel=0, abs=1e-15)

    def test_no_converged_restart_raises(self, monkeypatch):
        # a budget of 10 evaluations meets no stop rule
        runs = starved(monkeypatch, 10)
        for search in (optimize_average, optimize_universal):
            with pytest.raises(OptimizationError, match="converged at n=2"):
                search(2, seed=0)
        assert [r.nfev.tolist() for r in runs] == [[10] * devices.RESTARTS] * 2
        assert not any(r.converged.any() for r in runs)

    @pytest.mark.parametrize("ns", [(1, 10 ** 6), (10 ** 6, 1)])
    def test_a_converged_count_hides_no_failed_one(self, monkeypatch, ns):
        # at seed 1 every covariant restart at N = 1 meets the stop rule in
        # fewer evaluations than any at N = 10^6; a budget between them
        # starves N = 10^6 alone, and the batch raises for it
        runs = starved(monkeypatch, 4000)
        optimize_universal((1, 10 ** 6), seed=1)
        need = runs[0].nfev.reshape(2, -1)
        budget = need[0].max() + 1
        assert budget <= need[1].min()
        runs = starved(monkeypatch, budget)
        with pytest.raises(OptimizationError, match="converged at n=1000000"):
            optimize_universal(ns, seed=1)
        converged = dict(zip(ns, runs[0].converged.reshape(2, -1)))
        assert converged[1].all() and not converged[10 ** 6].any()
        _, val = optimize_universal(1, seed=1)
        assert val == pytest.approx(1.0, abs=1e-12)


def starved(monkeypatch, maxfev):
    """Run the device searches with an evaluation budget of `maxfev` per
    restart; return the list that collects the routine's results."""
    real, runs = core._nelder_mead, []

    def search(fun, x0, **kwargs):
        runs.append(real(fun, x0, **{**kwargs, "maxfev": maxfev}))
        return runs[-1]

    monkeypatch.setattr(devices, "_nelder_mead", search)
    return runs


class TestOptimizeAverage:
    def test_attains_swap_optimum_n2(self):
        t, val = optimize_average(2, seed=7)
        assert val == pytest.approx(OVERLAP_N2, abs=1e-6)
        g = gram_summary(t)
        assert abs(g[0, 0].real - 1.0) < 1e-4
        assert abs(g[3, 3].real - 1.0) < 1e-4
        assert abs(overlap_14(g) - 1.0) < 1e-4

    def test_dominates_universal_feasible_point(self):
        _, val = optimize_average(5, seed=3)
        assert val >= universal_coefficients(5)[0] ** 2

    def test_trivial_at_n1(self):
        _, val = optimize_average(1, seed=0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_under_seed(self):
        _, a = optimize_average(3, seed=11)
        _, b = optimize_average(3, seed=11)
        assert a == b

    def test_seed_is_a_checked_count(self):
        for search in (optimize_average, optimize_universal):
            for seed, named in ((-1, "got -1"), (1.5, "got 1.5"), (True, "got True")):
                with pytest.raises(DomainError, match=f"need an integer seed >= 0, {named}"):
                    search(2, seed=seed)

    def test_restart_count_validated(self, monkeypatch):
        # both searches run exactly RESTARTS starts per count, in one call, and
        # no caller can ask for fewer; each count draws its starts from a fresh
        # default_rng(seed), and they search 3 and 1 Gram coordinates
        real = devices._nelder_mead
        starts = []

        def recorded(fun, x0, **kwargs):
            starts.append(x0)
            return real(fun, x0, **kwargs)

        monkeypatch.setattr(devices, "_nelder_mead", recorded)
        assert devices.RESTARTS == 8
        for search, dim in ((optimize_average, 3), (optimize_universal, 1)):
            starts.clear()
            search((2, 3, 5), seed=4)
            rng = np.random.default_rng(4)
            want = [rng.uniform(0.0, np.pi, size=dim) for _ in range(devices.RESTARTS)]
            assert len(starts) == 1
            assert starts[0].tolist() == np.concatenate([want] * 3).tolist()

    def test_counts_batch_as_they_run_alone(self):
        for search in (optimize_average, optimize_universal):
            found = search([3, 1, np.int64(5)], seed=2)
            assert [val for _, val in found] == [search(n, seed=2)[1] for n in (3, 1, 5)]
            assert [t.n for t, _ in found] == [3, 1, 5]

    @pytest.mark.parametrize("ns, named", [((), "nonempty sequence"),
                                           ([[2, 3]], "nonempty sequence"),
                                           ((2, 0), "got 0"), ((2, 1.5), "got 1.5")])
    def test_count_sequence_is_checked(self, ns, named):
        for search in (optimize_average, optimize_universal):
            with pytest.raises(DomainError, match=named):
                search(ns)


class TestOptimizeUniversal:
    def test_attains_covariant_optimum_n2(self):
        t, val = optimize_universal(2, seed=7)
        assert val == pytest.approx(GAMMA2_N2, abs=1e-6)
        g = gram_summary(t)
        assert g[1, 1].real == pytest.approx(0.05409709377719385, abs=1e-4)
        assert g[2, 2].real == pytest.approx(0.05409709377719385, abs=1e-4)
        assert abs(g[3, 0].real / g[3, 3].real - 1.0) < 1e-4

    def test_optimum_is_covariant(self):
        t, _ = optimize_universal(3, seed=5)
        assert covariance_spread(t) < 1e-10

    def test_trivial_at_n1(self):
        _, val = optimize_universal(1, seed=0)
        assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 20])
    def test_constrained_below_unconstrained(self, n):
        _, constrained = optimize_universal(n, seed=1)
        _, unconstrained = optimize_average(n, seed=1)
        assert constrained <= unconstrained + 1e-6


class TestSectorImages:
    @pytest.mark.parametrize("build", [universal_disentangler, swap_disentangler])
    def test_images_orthonormal(self, build):
        # the residuals are the moduli of im im^H - I for the sector images
        for n in range(1, 51):
            t = build(n)
            im = t.vectors.reshape(2, 8)  # rows (D1, D2) and (D3, D4)
            dev = np.abs(im.conj() @ im.T - np.eye(2))
            res = unitarity_residuals(t)
            assert np.allclose(res, (dev[0, 0], dev[1, 1], dev[0, 1]), rtol=0, atol=1e-15)
            assert max(res) < 1e-12


SEEDS = st.integers(0, 2 ** 32 - 1)
POLAR = st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, np.pi))
AZIMUTH = st.floats(-4 * np.pi, 4 * np.pi)


class TestProperties:
    @given(n=st.integers(1, 50), seed=SEEDS)
    def test_random_transform_is_unitary(self, n, seed):
        t = random_transform(n, np.random.default_rng(seed))
        assert max(unitarity_residuals(t)) < devices.UNITARITY_TOL

    @given(n=st.integers(1, 12), seed=SEEDS, theta=POLAR, phi=AZIMUTH)
    def test_pointwise_fidelity_matches_density_route(self, n, seed, theta, phi):
        t = random_transform(n, np.random.default_rng(seed))
        psi = PureQubit.from_angles(theta, phi)
        _, rho = apply_transform(t, symmetric_state(psi, n))
        assert abs(pointwise_fidelity(t, psi.theta, psi.phi)
                   - fidelity_pure(psi, rho)) < 1e-11
