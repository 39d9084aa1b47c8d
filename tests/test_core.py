"""State representations, dilution map, partial traces, and quadrature."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from disentanglers import (
    BlochQuadrature,
    CapacityError,
    DensityOperator,
    DickeVector,
    DomainError,
    PureQubit,
    SupportStateVector,
    bloch_average,
    dicke_to_statevector,
    dilute_angle,
    diluted_avg_fidelity,
    fidelity_pure,
    reduced_qubit,
    symmetric_marginal,
    symmetric_state,
)
from disentanglers.core import (
    MAX_CLOSED_FORM_N,
    MAX_STATEVECTOR_QUBITS,
    STATEVECTOR_NORM_TOL,
    TWO_PI,
    _libm_pow,
    _min_eigenvalue,
    _require_angles,
)

QUAD = BlochQuadrature()


def random_qubit(rng):
    return PureQubit(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))


class TestPureQubit:
    def test_amplitudes_normalized(self):
        psi = PureQubit(1.234, 5.0)
        assert abs(np.linalg.norm(psi.amplitudes()) - 1.0) < 1e-12

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (np.pi + 0.1, 0.0),
                                           (1.0, -0.5), (1.0, 2 * np.pi),
                                           (np.array([0.1, 0.2]), 0.0),
                                           (1.0, np.array([0.1, 0.2]))])
    def test_range_validation(self, theta, phi):
        with pytest.raises(DomainError):
            PureQubit(theta, phi)

    def test_string_angle_raises_domain_error(self):
        with pytest.raises(DomainError, match="real numbers"):
            PureQubit("a")

    def test_complex_angle_raises_domain_error(self):
        with pytest.raises(DomainError, match="real numbers"):
            PureQubit(1j)

    @pytest.mark.parametrize("theta,phi", [("a", 0.0), (1j, 0.0), (0.5, "a")])
    def test_from_angles_non_real_raises_domain_error(self, theta, phi):
        with pytest.raises(DomainError, match="real numbers"):
            PureQubit.from_angles(theta, phi)

    def test_from_amplitudes_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            psi = random_qubit(rng)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            back = PureQubit.from_amplitudes(phase * psi.amplitudes())
            overlap = abs(np.vdot(psi.amplitudes(), back.amplitudes())) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [-1e-17, -5e-324, -0.0])
    def test_from_angles_folds_azimuth_just_below_zero(self, phi):
        # (-1e-17) % (2 pi) rounds to exactly 2 pi, which is out of range
        psi = PureQubit.from_angles(1.0, phi)
        assert psi.phi == 0.0
        assert psi.theta == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_from_amplitudes_rejects_non_finite(self, bad):
        # a NaN norm fails `norm > 0` too; the message must name the cause
        with pytest.raises(DomainError, match="not finite"):
            PureQubit.from_amplitudes([bad, 1.0])
        with pytest.raises(DomainError, match="not finite"):
            PureQubit.from_amplitudes([1.0, bad])

    def test_from_amplitudes_folds_azimuth_just_below_zero(self):
        psi = PureQubit.from_amplitudes(np.array([1.0, 0.5 - 1e-17j]))
        assert psi.phi == 0.0
        assert psi.theta == pytest.approx(2.0 * np.arctan(0.5), abs=1e-15)


class TestDiluteAngle:
    def test_poles_fixed(self):
        for n in (1, 2, 7, 100):
            assert dilute_angle(0.0, n) == 0.0
            assert dilute_angle(np.pi, n) == pytest.approx(np.pi, abs=1e-12)

    def test_equator_n4(self):
        # cos(out/2) = 2/sqrt(5)
        assert dilute_angle(np.pi / 2, 4) == pytest.approx(0.9272952180016123,
                                                           abs=1e-12)

    def test_monotone(self):
        grid = np.linspace(0.0, np.pi, 1000)
        for n in (1, 2, 3, 5, 17):
            out = dilute_angle(grid, n)
            assert np.all(np.diff(out) >= -1e-14)

    def test_relative_accuracy_at_large_n(self):
        # 50-digit reference; the cosine of out/2 is within rounding of 1 at
        # large N, so an arccos formula loses its digits there
        import mpmath

        from disentanglers import covariance_spread, universal_disentangler

        for n in (1, 2, 3, 10, 10 ** 4, 10 ** 6, 10 ** 8, 10 ** 12, 10 ** 15, 2 ** 63):
            for th in (0.0, 1e-8, 0.3, 1.0, 2.0, 3.0, np.pi - 1e-9, np.pi):
                with mpmath.workdps(50):
                    half = mpmath.mpf(th) / 2
                    exact = float(2 * mpmath.atan2(mpmath.sin(half),
                                                   mpmath.sqrt(n) * mpmath.cos(half)))
                got = dilute_angle(th, n)
                if abs(exact) < np.finfo(float).tiny:
                    assert got == exact, (n, th)
                else:
                    assert abs(got - exact) <= 1e-15 * abs(exact), (n, th)
        for n in (10 ** 4, 10 ** 6, 10 ** 8, 10 ** 12):
            assert covariance_spread(universal_disentangler(n)) < 1e-14, n

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dilute_angle(-0.01, 3)
        with pytest.raises(DomainError):
            dilute_angle(1.0, 0)


class TestSymmetricState:
    def test_poles(self):
        up = symmetric_state(PureQubit(0.0, 0.0), 5)
        assert (up.c0, up.c1) == (1.0, 0.0)
        down = symmetric_state(PureQubit(np.pi, 0.0), 5)
        assert abs(down.c0) < 1e-12 and abs(down.c1 - 1.0) < 1e-12

    def test_equator_n4(self):
        v = symmetric_state(PureQubit(np.pi / 2, 0.0), 4)
        assert v.c0 == pytest.approx(0.8944271909999159, abs=1e-12)
        assert v.c1 == pytest.approx(0.4472135954999579, abs=1e-12)

    def test_identity_at_n1(self):
        psi = PureQubit(0.8, 2.5)
        v = symmetric_state(psi, 1)
        assert v.amplitudes() == pytest.approx(psi.amplitudes(), abs=1e-14)

    def test_dicke_normalization_enforced(self):
        with pytest.raises(DomainError):
            DickeVector(3, 0.9, 0.9)
        with pytest.raises(DomainError):
            DickeVector(0, 1.0, 0.0)

    def test_string_amplitude_raises_domain_error(self):
        with pytest.raises(DomainError, match="two numbers"):
            DickeVector(2, "a", 0)


class TestDickeToStatevector:
    def test_n2_basis(self):
        assert np.allclose(dicke_to_statevector(DickeVector(2, 1.0, 0.0)).dense(),
                           [1, 0, 0, 0])
        assert np.allclose(dicke_to_statevector(DickeVector(2, 0.0, 1.0)).dense(),
                           [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_n3_expansion(self):
        sv = dicke_to_statevector(DickeVector(3, 0.6, 0.8))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 0.6
        expected[[1, 2, 4]] = 0.8 / np.sqrt(3)
        assert np.allclose(sv.dense(), expected, atol=1e-15)
        assert np.linalg.norm(sv.dense()) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            c0 = rng.standard_normal() + 1j * rng.standard_normal()
            c1 = rng.standard_normal() + 1j * rng.standard_normal()
            norm = np.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
            sv = dicke_to_statevector(DickeVector(n, c0 / norm, c1 / norm))
            tensor = sv.dense().reshape((2,) * n)
            for i in range(n):
                for j in range(i + 1, n):
                    swapped = np.swapaxes(tensor, i, j)
                    assert np.array_equal(swapped, tensor)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            dicke_to_statevector(DickeVector(25, 1.0, 0.0))
        with pytest.raises(CapacityError):
            SupportStateVector(25, np.array([0]), np.ones(1))


def every_row(n, amps):
    """The dense amplitudes `amps` as the support over every row."""
    return SupportStateVector(n, np.arange(2 ** n), amps)


class TestSupportStateVector:
    def test_norm_tolerance_never_looser_than_before(self):
        # the earlier tolerance was 1e-10 * 2^(n/2): 1.4e-10 at n=1, 4e-7 at n=24
        for n in range(1, MAX_STATEVECTOR_QUBITS + 1):
            assert STATEVECTOR_NORM_TOL <= 1e-10 * 2 ** (n / 2.0)
        assert STATEVECTOR_NORM_TOL < 1e-9

    def test_rejects_norm_off_by_1e9_at_n20(self):
        n = 20
        exact = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
        assert every_row(n, exact).n == n
        with pytest.raises(DomainError):
            every_row(n, exact * (1.0 + 1e-9))

    def test_accepts_normalized_dense_states(self):
        rng = np.random.default_rng(4)
        for n in (1, 8, 16):
            amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            every_row(n, amps / np.linalg.norm(amps))

    def test_dense_scatters_the_rows(self):
        sv = SupportStateVector(3, np.array([1, 6]), np.array([0.6, 0.8j]))
        assert np.array_equal(sv.dense(), [0, 0.6, 0, 0, 0, 0, 0.8j, 0])

    def test_every_row_is_the_dense_state(self):
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        amps /= np.linalg.norm(amps)
        assert np.array_equal(every_row(4, amps).dense(), amps)

    def test_dicke_expansion_is_its_support(self):
        v = DickeVector(4, 0.6, 0.8)
        sv = SupportStateVector(4, np.array([0, 1, 2, 4, 8]),
                                np.array([0.6, *[0.4] * 4]))
        out = dicke_to_statevector(v)
        assert np.array_equal(out.rows, sv.rows) and np.array_equal(out.amps, sv.amps)

    @pytest.mark.parametrize("rows", [[2, 1], [1, 1], [-1, 2], [1, 8], [0.0, 1.0],
                                      [[0, 1]], [0, 1, 2]],
                             ids=["descending", "repeated", "negative", "past-2^n",
                                  "float", "2-D", "longer-than-amps"])
    def test_rejects_rows_that_are_not_a_support(self, rows):
        with pytest.raises(DomainError):
            SupportStateVector(3, np.array(rows), np.array([0.6, 0.8]))

    def test_norm_and_capacity(self):
        with pytest.raises(DomainError, match="norm"):
            SupportStateVector(3, np.array([0, 1]), np.array([0.6, 0.8 + 1e-9]))
        with pytest.raises(DomainError, match="norm"):
            SupportStateVector(3, np.array([], dtype=int), np.array([]))
        with pytest.raises(CapacityError):
            SupportStateVector(MAX_STATEVECTOR_QUBITS + 1, np.array([0]), np.ones(1))

    def test_read_only_copies(self):
        rows, amps = np.array([0, 3]), np.array([0.6, 0.8j])
        sv = SupportStateVector(2, rows, amps)
        for arr in (sv.rows, sv.amps):
            with pytest.raises(ValueError):
                arr[0] = 0
        rows[0], amps[0] = 1, 0.0
        assert sv.rows[0] == 0 and sv.amps[0] == 0.6


class TestReducedQubit:
    def test_all_zeros(self):
        rho = reduced_qubit(dicke_to_statevector(DickeVector(2, 1.0, 0.0)), 1)
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]))

    def test_equal_amplitudes_n2(self):
        v = DickeVector(2, 1 / np.sqrt(2), 1 / np.sqrt(2))
        rho = reduced_qubit(dicke_to_statevector(v), 2)
        off = 0.35355339059327373  # 1 / (2 sqrt(2))
        assert np.allclose(rho.entries, [[0.75, off], [off, 0.25]], atol=1e-14)

    def test_matches_closed_form_marginal(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8, 12):
            for _ in range(5):
                v = symmetric_state(random_qubit(rng), n)
                brute = reduced_qubit(dicke_to_statevector(v), 1)
                closed = symmetric_marginal(v)
                assert np.max(np.abs(brute.entries - closed.entries)) < 1e-12

    def test_index_independence(self):
        v = symmetric_state(PureQubit(1.1, 0.4), 5)
        sv = dicke_to_statevector(v)
        first = reduced_qubit(sv, 1).entries
        for which in range(2, 6):
            assert np.allclose(reduced_qubit(sv, which).entries, first, atol=1e-14)

    def test_index_errors(self):
        sv = dicke_to_statevector(DickeVector(3, 1.0, 0.0))
        for bad in (0, 4, -1):
            with pytest.raises(DomainError):
                reduced_qubit(sv, bad)

    def test_invariants_on_random_states(self):
        # output must always be a valid density operator (checked on build)
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(1, 7))
            amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            sv = every_row(n, amps / np.linalg.norm(amps))
            rho = reduced_qubit(sv, int(rng.integers(1, n + 1)))
            assert rho.entries.shape == (2, 2)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(DomainError):
            DensityOperator(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityOperator(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_entry_is_not_hermitian(self, entry, bad):
        # a NaN residual must fail wherever it sits; a max() fold would drop
        # it unless it came first, and the trace check would report it instead
        m = np.diag([0.5, 0.5]).astype(complex)
        m[entry] = bad
        with pytest.raises(DomainError, match="matrix is not Hermitian"):
            DensityOperator(m)

    def test_closed_form_eigenvalue_matches_eigvalsh_near_the_cut(self):
        # Hermitian unit-trace matrices whose smaller eigenvalue lies within
        # 1e-9 of the -1e-10 PSD cut, in random eigenbases
        rng = np.random.default_rng(2027)
        verdicts = set()
        for _ in range(2000):
            lam = -1e-10 + rng.uniform(-1e-9, 1e-9)
            u, _ = np.linalg.qr(rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2)))
            m = (u * [lam, 1.0 - lam]) @ u.conj().T
            m = (m + m.conj().T) / 2.0
            want = float(np.linalg.eigvalsh(m)[0])
            got = _min_eigenvalue(m[0, 0].real, m[1, 1].real, complex(m[1, 0]))
            assert abs(got - want) < 1e-15
            if abs(want + 1e-10) > 1e-15:
                try:
                    DensityOperator(m)
                    accepted = True
                except DomainError as exc:
                    assert str(exc) == "matrix is not PSD"
                    accepted = False
                assert accepted == (want > -1e-10)
                verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_read_only_copy(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        rho = DensityOperator(a)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.5
        a[0, 0] = 0.5
        assert rho.entries[0, 0] == 1.0


class TestFidelityPure:
    def test_projector(self):
        psi = PureQubit(0.0, 0.0)
        rho = DensityOperator(np.diag([1.0, 0.0]))
        assert fidelity_pure(psi, rho) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        assert fidelity_pure(PureQubit(0.0, 0.0),
                             DensityOperator(np.eye(2) / 2)) == pytest.approx(0.5)

    def test_estimator_value_n1(self):
        # equatorial qubit against (|psi><psi| + I) / 3
        psi = PureQubit(np.pi / 2, 0.0)
        rho = DensityOperator(np.array([[0.5, 1 / 6], [1 / 6, 0.5]]))
        assert fidelity_pure(psi, rho) == pytest.approx(2 / 3, abs=1e-14)

    def test_imaginary_part_within_hermiticity_tolerance(self):
        # 9e-11 of anti-Hermitian part is accepted by the constructor and
        # gives <psi|rho|psi> an imaginary part of -4.5e-11
        rho = DensityOperator(np.array([[0.5, 0.1], [0.1 + 9e-11, 0.5]]))
        psi = PureQubit(np.pi / 2, np.pi / 2)
        assert fidelity_pure(psi, rho) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        # a density operator is a qubit operator; nothing else can reach
        # fidelity_pure
        with pytest.raises(DomainError):
            DensityOperator(np.eye(4) / 4)


class TestBlochQuadrature:
    def test_weights_normalized(self):
        for n_theta, n_phi in ((16, 8), (2, 2), (64, 64)):
            q = BlochQuadrature(n_theta, n_phi)
            assert q.weights.shape == (n_theta, n_phi)
            # the polar weights sum to 1, each spread evenly over the azimuths
            assert q.weights.sum(axis=1).sum() == pytest.approx(1.0, abs=1e-13)
            assert np.array_equal(q.weights, np.repeat(q.weights[:, :1], n_phi, axis=1))

    def test_node_counts_validated(self):
        with pytest.raises(DomainError):
            BlochQuadrature(1, 8)

    def test_arrays_are_read_only_and_built_once(self):
        q = BlochQuadrature()
        for arr in (q.theta_nodes, q.phi_nodes, q.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert q.grid()[2] is q.weights
        # the Gauss-Legendre rule is shared by every quadrature of its size
        assert BlochQuadrature(64, 8).theta_nodes is q.theta_nodes

    def test_grid_meshes_the_nodes(self):
        q = BlochQuadrature(16, 8)
        th, ph, _ = q.grid()
        want = np.meshgrid(q.theta_nodes, q.phi_nodes, indexing="ij")
        assert th.shape == ph.shape == (16, 8)
        assert np.array_equal(th, want[0]) and np.array_equal(ph, want[1])

    def test_constant(self):
        assert bloch_average(lambda th, ph: 1.0, QUAD) == pytest.approx(1.0,
                                                                        abs=1e-13)

    def test_half_angle_square(self):
        got = bloch_average(lambda th, ph: np.cos(th / 2) ** 2, QUAD)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_overlap_average_n2(self):
        def overlap_sq(th, ph):
            tb = dilute_angle(th, 2)
            return np.cos((th - tb) / 2) ** 2

        assert bloch_average(overlap_sq, QUAD) == pytest.approx(
            0.9804911966047682, abs=1e-9)


class TestDilutedAvgFidelity:
    def test_endpoints(self):
        assert diluted_avg_fidelity(1) == 1.0
        assert diluted_avg_fidelity(2) == pytest.approx(0.8068528194400547,
                                                        abs=1e-12)
        assert abs(diluted_avg_fidelity(10 ** 6) - 0.5) < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_matches_full_pipeline_average(self, n):
        # brute-force route: statevector, partial trace, pointwise fidelity
        def pipeline(theta, phi):
            psi = PureQubit.from_angles(theta, phi)
            sv = dicke_to_statevector(symmetric_state(psi, n))
            return fidelity_pure(psi, reduced_qubit(sv, 1))

        quad = BlochQuadrature(64, 8)
        got = bloch_average(np.vectorize(pipeline), quad)
        assert got == pytest.approx(diluted_avg_fidelity(n), abs=1e-9)


class TestLibmPow:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_equals_math_pow_bit_for_bit(self, p):
        # 10^5 doubles over the binades 2^-340 .. 2^340, where x^3 stays a
        # normal double; numpy's power differs from libm's pow on about 4%
        rng = np.random.default_rng(1907)
        x = np.ldexp(rng.uniform(1.0, 2.0, 10 ** 5), rng.integers(-340, 340, 10 ** 5))
        want = np.array([math.pow(v, p) for v in x.tolist()])
        assert np.array_equal(_libm_pow(x, p), want)

    def test_scalar_gives_float(self):
        for x in (3.0, np.float64(3.0), np.array(3.0)):
            got = _libm_pow(x, 2.0)
            assert type(got) is float and got == 9.0


# without its floor at 1/2, the rounded overlap falls below 1/2 at 2^107 and at
# this N, and the projective fidelity (1 + f) / 3 at 10^100 and at this N
OVERLAP_BELOW_HALF_339_BITS = int(
    "503912aa36cf7eb70ba6527d99a23e4f7625eafe6790abc18a40b55c7ed9d4d4985dc09aedbd06d316b4a", 16)


def _count_entry_points():
    from disentanglers import (
        DeviceTransform,
        cnot_cascade,
        dilution_overlap,
        measurement_avg_fidelity,
        moment_integrals,
        optimal_measurement_bound,
        postselect_basis,
        run_cascade,
        success_probability,
        universal_coefficients,
    )

    zero = np.zeros((4, 4))
    return {
        "SupportStateVector": lambda n: SupportStateVector(n, np.array([0]), np.ones(1)),
        "postselect_basis": postselect_basis,
        "run_cascade": lambda n: run_cascade(PureQubit(1.0, 0.0), n),
        "dilute_angle": lambda n: dilute_angle(1.0, n),
        "diluted_avg_fidelity": diluted_avg_fidelity,
        "DickeVector": lambda n: DickeVector(n, 1.0, 0.0),
        "DeviceTransform": lambda n: DeviceTransform(n, zero),
        "universal_coefficients": universal_coefficients,
        "moment_integrals": moment_integrals,
        "dilution_overlap": dilution_overlap,
        "measurement_avg_fidelity": measurement_avg_fidelity,
        "optimal_measurement_bound": optimal_measurement_bound,
        "cnot_cascade": cnot_cascade,
        "success_probability": lambda n: success_probability(1.0, n),
    }


class TestIntegerCount:
    @pytest.mark.parametrize("name", sorted(_count_entry_points()))
    def test_rejects_non_counts(self, name):
        entry = _count_entry_points()[name]
        for bad in (2.5, 2.0, np.float64(3.0), True, 0, -1, np.int64(0), "3", None):
            with pytest.raises(DomainError):
                entry(bad)

    @pytest.mark.parametrize("name", sorted(_count_entry_points()))
    def test_accepts_python_and_numpy_integers(self, name):
        entry = _count_entry_points()[name]
        for good in (3, np.int64(3), np.int32(3), np.uint8(3)):
            entry(good)

    @pytest.mark.parametrize("narrow", [np.uint8(16), np.int8(12), np.uint8(200)])
    def test_narrow_integers_do_not_wrap(self, narrow):
        from disentanglers import (
            dilution_overlap,
            moment_integrals,
            optimal_measurement_bound,
            success_probability,
            universal_coefficients,
        )

        # n * n in uint8 is 0 at n = 16; the count is widened before use
        for closed_form in (diluted_avg_fidelity, dilution_overlap, moment_integrals,
                            optimal_measurement_bound, universal_coefficients,
                            lambda n: success_probability(1.0, n),
                            lambda n: dilute_angle(1.0, n)):
            assert closed_form(narrow) == closed_form(int(narrow))
        assert type(DickeVector(narrow, 1.0, 0.0).n) is int
        assert type(SupportStateVector(np.uint8(3), np.array([0]), np.ones(1)).n) is int

    @pytest.mark.parametrize("n", [2 ** 63, 2 ** 64, 10 ** 30, 2 ** 107, 10 ** 100,
                                   OVERLAP_BELOW_HALF_339_BITS, MAX_CLOSED_FORM_N - 1,
                                   MAX_CLOSED_FORM_N, 10 ** 200, 10 ** 400],
                             ids=["2^63", "2^64", "1e30", "2^107", "1e100", "339-bit",
                                  "2^340-1", "2^340", "1e200", "1e400"])
    def test_float_range(self, n):
        # a value in range or DomainError, never an untyped error, NaN or inf
        from disentanglers import (
            cli,
            device_avg_fidelity,
            dilution_overlap,
            measurement_avg_fidelity,
            moment_integrals,
            optimal_measurement_bound,
            optimize_average,
            optimize_universal,
            postselect_basis,
            sample_shots,
            success_probability,
            universal_coefficients,
            universal_disentangler,
        )

        fidelities = {
            "diluted_avg_fidelity": diluted_avg_fidelity,
            "dilution_overlap": dilution_overlap,
            "measurement_avg_fidelity": measurement_avg_fidelity,
            "optimal_measurement_bound": optimal_measurement_bound,
            "gamma^2": lambda n: universal_coefficients(n)[0] ** 2,
            # the strict ordering no longer resolves in doubles past ~2e15
            "fidelity_columns": lambda n: min(cli.fidelity_columns(n)),
            "device_avg_fidelity": lambda n: device_avg_fidelity(universal_disentangler(n)),
            "optimize_average": lambda n: optimize_average(n)[1],
            "optimize_universal": lambda n: optimize_universal(n)[1],
        }
        finite = {
            "universal_coefficients": universal_coefficients,
            "moment_integrals": moment_integrals,
            "dilute_angle": lambda n: dilute_angle(1.0, n),
            "symmetric_state": lambda n: symmetric_state(PureQubit(1.0, 0.3), n).amplitudes(),
            "universal_disentangler": lambda n: universal_disentangler(n).vectors,
            "symmetric_marginal": lambda n: symmetric_marginal(DickeVector(n, 0.6, 0.8)).entries,
            "postselect_basis": lambda n: [v.amplitudes() for v in postselect_basis(n)],
            "success_probability": lambda n: success_probability(1.0, n),
            "sample_shots": lambda n: sample_shots(PureQubit(1.0, 0.0), n, 10, 0),
        }
        for name, entry in {**fidelities, **finite}.items():
            try:
                value = entry(n)
            except DomainError:
                assert n >= MAX_CLOSED_FORM_N or name == "fidelity_columns", name
                continue
            assert n < MAX_CLOSED_FORM_N, name
            assert np.all(np.isfinite(value)), name
            if name in fidelities:
                assert 0.5 <= value <= 1.0, name

    def test_powers_stay_finite_below_the_cap(self):
        # an overflowing float_power gives inf and only a RuntimeWarning;
        # the cap must keep (N-1)^3 and every other power finite
        from disentanglers import (
            dilution_overlap,
            moment_integrals,
            optimal_measurement_bound,
        )

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [dilution_overlap(MAX_CLOSED_FORM_N - 1),
                      optimal_measurement_bound(MAX_CLOSED_FORM_N - 1),
                      *moment_integrals(MAX_CLOSED_FORM_N - 1)]
        assert all(type(v) is float and math.isfinite(v) for v in values)

    def test_reported_cases(self):
        from disentanglers import universal_coefficients

        with pytest.raises(DomainError, match="integer"):
            universal_coefficients(2.5)
        with pytest.raises(DomainError, match="integer"):
            dilute_angle(1.0, 2.5)


def _index_entry_points():
    from disentanglers import apply_cnot, strategy_integral

    sv = dicke_to_statevector(DickeVector(3, 0.6, 0.8))
    small = BlochQuadrature(4, 4)
    # name: (entry point of the index, a valid index)
    return {
        "strategy_integral": (
            lambda j: strategy_integral(j, 0.5, 0.0, 0.3, 0.0, 2, small), 1),
        "apply_cnot-control": (lambda k: apply_cnot(sv, k, 3), 1),
        "apply_cnot-target": (lambda k: apply_cnot(sv, 3, k), 1),
        "reduced_qubit": (lambda k: reduced_qubit(sv, k), 1),
        "BlochQuadrature-n_theta": (lambda k: BlochQuadrature(k, 3), 3),
        "BlochQuadrature-n_phi": (lambda k: BlochQuadrature(3, k), 3),
    }


class TestIntegerIndex:
    """An index or node count that is not an integer is a DomainError, as a
    count is; bool is not an integer here."""

    @pytest.mark.parametrize("name", sorted(_index_entry_points()))
    def test_rejects_non_integers(self, name):
        entry, good = _index_entry_points()[name]
        for bad in (1.5, "1", True):
            with pytest.raises(DomainError):
                entry(bad)
        entry(np.int64(good))

    def test_outcome_index_range(self):
        from disentanglers import strategy_integral

        for bad in (-1, 2, np.int64(-1)):
            with pytest.raises(DomainError, match="outcome index"):
                strategy_integral(bad, 0.5, 0.0, 0.3, 0.0, 2, QUAD)

    def test_node_counts_stay_python_ints(self):
        q = BlochQuadrature(np.int64(3), np.uint8(4))
        assert (type(q.n_theta), type(q.n_phi)) == (int, int)


POLAR = st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, np.pi))
AZIMUTH = st.one_of(
    st.sampled_from([0.0, float(np.nextafter(2 * np.pi, 0.0)), -1e-17]),
    st.floats(-4 * np.pi, 4 * np.pi))


# the edges of both angle ranges, as floats
EDGE_ANGLES = [math.nan, math.inf, -math.inf, -0.0, 0.0, math.pi,
               math.nextafter(math.pi, 4.0), math.nextafter(TWO_PI, 0.0)]
ANY_FLOAT = st.sampled_from(EDGE_ANGLES) | st.floats(allow_nan=True, allow_infinity=True)


def _guard_outcome(theta, phi):
    """What `_require_angles` makes of one form of a pair: the bits of the
    converted angles, or the message with the offending value's text elided."""
    try:
        th, ph = _require_angles(theta, phi)
    except DomainError as exc:
        return str(exc).replace(f"theta={theta}", "theta=").replace(f"phi={phi}", "phi=")
    return tuple(np.float64(np.ravel(x)[0]).tobytes() for x in (th, ph))


def _assert_guard_forms_agree(theta, phi):
    """The float branch of `_require_angles` and its array path accept and
    reject a pair alike, with the same message: as Python floats, numpy
    float64 scalars, 0-d and 1-d arrays."""
    forms = [(float(theta), float(phi)), (np.float64(theta), np.float64(phi)),
             (np.array(theta), np.array(phi)), (np.array([theta]), np.array([phi]))]
    outcomes = [_guard_outcome(*form) for form in forms]
    assert outcomes[1:] == outcomes[:-1], (theta, phi)


class TestProperties:
    @given(theta=ANY_FLOAT, phi=ANY_FLOAT)
    def test_angle_guard_float_and_array_forms_agree(self, theta, phi):
        _assert_guard_forms_agree(theta, phi)

    def test_angle_guard_forms_agree_on_every_pair_of_edges(self):
        for theta, phi in itertools.product(EDGE_ANGLES, repeat=2):
            _assert_guard_forms_agree(theta, phi)

    @given(theta=POLAR, phi=AZIMUTH)
    def test_amplitudes_round_trip(self, theta, phi):
        psi = PureQubit.from_angles(theta, phi)
        back = PureQubit.from_amplitudes(psi.amplitudes())
        overlap = abs(np.vdot(psi.amplitudes(), back.amplitudes())) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @given(n=st.integers(1, 10 ** 6), a=POLAR, b=POLAR)
    def test_dilute_angle_monotone_with_fixed_poles(self, n, a, b):
        lo, hi = min(a, b), max(a, b)
        assert dilute_angle(lo, n) <= dilute_angle(hi, n)
        assert dilute_angle(0.0, n) == 0.0
        assert dilute_angle(np.pi, n) == pytest.approx(np.pi, abs=1e-12)

    @given(n=st.integers(1, 10),
           parts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_symmetric_marginal_is_every_partial_trace(self, n, parts):
        c = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
        norm = np.linalg.norm(c)
        assume(norm > 1e-3)
        v = DickeVector(n, *(c / norm))
        closed = symmetric_marginal(v).entries
        dense = dicke_to_statevector(v)
        for k in range(1, n + 1):
            brute = reduced_qubit(dense, k).entries
            assert np.max(np.abs(brute - closed)) < 1e-12
