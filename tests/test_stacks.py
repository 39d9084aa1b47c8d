"""Stacks: k members at one count, evaluated at once.

Each stack-capable constructor and function, on a stack, must give each
member the bits of the same call on that member alone, and a stack with one
bad member must fail wherever that member sits, with the error and message
of the bad member alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disentanglers import (
    BlochQuadrature,
    CapacityError,
    DecompositionError,
    DensityOperator,
    DeviceTransform,
    DickeVector,
    DomainError,
    PureQubit,
    SupportStateVector,
    UnitarityError,
    apply_cnot,
    apply_transform,
    averaged_estimator,
    bloch_average,
    covariance_spread,
    decompose,
    device_avg_fidelity,
    dicke_to_statevector,
    estimator_output,
    fidelity_pure,
    gram_summary,
    pointwise_fidelity,
    projector_pair,
    random_transform,
    reduced_qubit,
    run_cascade,
    sample_shots,
    symmetric_marginal,
    symmetric_state,
    unitarity_residuals,
    universal_disentangler,
)
from disentanglers import core, devices, network

SEEDS = st.integers(0, 2 ** 32 - 1)
SIZES = st.integers(1, 6)


def bits(x) -> bytes:
    """The bytes of x as a float or complex array: equal bits, not equal values."""
    x = np.asarray(x)
    return x.astype(complex if x.dtype.kind == "c" else float).tobytes()


def same_bits(stacked, singles) -> bool:
    return bits(stacked) == bits(np.array(singles))


def draw_angles(rng, k):
    return rng.uniform(0.0, np.pi, k), rng.uniform(0.0, 2.0 * np.pi, k)


def draw_devices(rng, n, k):
    z = np.array([devices._gaussian_draw(rng) for _ in range(k)])
    return devices._orthonormalized(n, z), [devices._orthonormalized(n, m) for m in z]


class TestMembersKeepTheirBits:
    @given(seed=SEEDS, k=SIZES)
    def test_qubits(self, seed, k):
        rng = np.random.default_rng(seed)
        th, ph = draw_angles(rng, k)
        # azimuths past 2 pi and a rounding error below 0 fold as for one
        ph = ph * rng.choice([1.0, 3.0, -1e-17], k)
        stack = PureQubit.from_angles(th, ph)
        singles = [PureQubit.from_angles(float(a), float(b)) for a, b in zip(th, ph)]
        assert same_bits(stack.theta, [q.theta for q in singles])
        assert same_bits(stack.phi, [q.phi for q in singles])
        assert same_bits(stack.amplitudes(), [q.amplitudes() for q in singles])
        vec = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        back = PureQubit.from_amplitudes(vec)
        alone = [PureQubit.from_amplitudes(v) for v in vec]
        assert same_bits(back.theta, [q.theta for q in alone])
        assert same_bits(back.phi, [q.phi for q in alone])

    @given(seed=SEEDS, k=SIZES, n=st.integers(1, 24))
    def test_symmetric_states_and_supports(self, seed, k, n):
        rng = np.random.default_rng(seed)
        psi = PureQubit(*draw_angles(rng, k))
        stack = symmetric_state(psi, n)
        singles = [symmetric_state(PureQubit(a, b), n) for a, b in zip(psi.theta, psi.phi)]
        assert same_bits(stack.c0, [v.c0 for v in singles])
        assert same_bits(stack.c1, [v.c1 for v in singles])
        assert same_bits(stack.amplitudes(), [v.amplitudes() for v in singles])
        support = dicke_to_statevector(stack)
        assert same_bits(support.amps, [dicke_to_statevector(v).amps for v in singles])
        if n <= 10:
            assert same_bits(support.dense(), [dicke_to_statevector(v).dense() for v in singles])

    @given(seed=SEEDS, k=SIZES, n=st.integers(1, 12))
    def test_devices(self, seed, k, n):
        rng = np.random.default_rng(seed)
        stack, singles = draw_devices(rng, n, k)
        assert same_bits(stack.vectors, [t.vectors for t in singles])
        assert same_bits(gram_summary(stack), [gram_summary(t) for t in singles])
        for r, *alone in zip(unitarity_residuals(stack),
                             *[unitarity_residuals(t) for t in singles]):
            assert same_bits(r, alone)
        assert same_bits(device_avg_fidelity(stack), [device_avg_fidelity(t) for t in singles])

    def test_device_average_is_a_float_for_one_device(self):
        stack, singles = draw_devices(np.random.default_rng(4), 3, 2)
        assert type(device_avg_fidelity(singles[0])) is float
        values = device_avg_fidelity(stack)
        assert isinstance(values, np.ndarray) and values.shape == (2,)
        one, _ = draw_devices(np.random.default_rng(4), 3, 1)
        assert device_avg_fidelity(one).shape == (1,)

    @given(seed=SEEDS, k=SIZES, n=st.integers(1, 10))
    def test_pointwise_fidelity_at_member_angles_and_on_a_grid(self, seed, k, n):
        rng = np.random.default_rng(seed)
        stack, singles = draw_devices(rng, n, k)
        th, ph = draw_angles(rng, k)
        assert same_bits(pointwise_fidelity(stack, th, ph),
                         [pointwise_fidelity(t, float(a), float(b))
                          for t, a, b in zip(singles, th, ph)])
        assert same_bits(pointwise_fidelity(stack, 0.7, 5.0),
                         [pointwise_fidelity(t, 0.7, 5.0) for t in singles])
        quad = BlochQuadrature(8, 6)
        grid = lambda t, lead: lambda a, b: pointwise_fidelity(t, a[lead], b[lead])
        assert same_bits(bloch_average(grid(stack, None), quad),
                         [bloch_average(grid(t, ...), quad) for t in singles])

    @given(seed=SEEDS, k=SIZES, n=st.integers(1, 10))
    @settings(max_examples=100)
    def test_density_route(self, seed, k, n):
        rng = np.random.default_rng(seed)
        stack, singles = draw_devices(rng, n, k)
        psi = PureQubit(*draw_angles(rng, k))
        qubits = [PureQubit(a, b) for a, b in zip(psi.theta, psi.phi)]
        joint, rho = apply_transform(stack, symmetric_state(psi, n))
        alone = [apply_transform(t, symmetric_state(q, n)) for t, q in zip(singles, qubits)]
        assert same_bits(joint, [j for j, _ in alone])
        assert same_bits(rho.entries, [r.entries for _, r in alone])
        assert same_bits(fidelity_pure(psi, rho),
                         [fidelity_pure(q, r) for q, (_, r) in zip(qubits, alone)])

    @given(seed=SEEDS, k=SIZES, n=st.integers(2, 20))
    @settings(max_examples=100)
    def test_cascade_and_decompose(self, seed, k, n):
        rng = np.random.default_rng(seed)
        psi = PureQubit(*draw_angles(rng, k))
        qubits = [PureQubit(a, b) for a, b in zip(psi.theta, psi.phi)]
        out = run_cascade(psi, n)
        alone = [run_cascade(q, n) for q in qubits]
        assert all(np.array_equal(out.rows, o.rows) for o in alone)
        assert same_bits(out.amps, [o.amps for o in alone])
        assert same_bits(network._cascade(symmetric_state(psi, n)).amps,
                         [o.amps for o in alone])
        gated = apply_cnot(dicke_to_statevector(symmetric_state(psi, n)), 1, n)
        assert same_bits(gated.amps, [apply_cnot(dicke_to_statevector(
            symmetric_state(q, n)), 1, n).amps for q in qubits])
        dec = decompose(out, n)
        parts = [decompose(o, n) for o in alone]
        assert same_bits(dec.amp_plus_psi, [d.amp_plus_psi for d in parts])
        assert same_bits(dec.amp_minus, [d.amp_minus for d in parts])
        assert same_bits(dec.recovered.theta, [d.recovered.theta for d in parts])
        assert same_bits(dec.recovered.phi, [d.recovered.phi for d in parts])


def fails_alike(build, good, bad, k=4):
    """`build` of a stack holding `bad` at each position among copies of
    `good` raises the error, with the message, of `build(bad)` alone."""
    with pytest.raises(Exception) as alone:
        build(bad)
    kind, message = type(alone.value), str(alone.value)
    assert kind in (DomainError, UnitarityError, DecompositionError)
    for at in range(k):
        members = np.array([bad if i == at else good for i in range(k)])
        with pytest.raises(kind) as stacked:
            build(members)
        assert str(stacked.value) == message, at


class TestOneBadMemberFailsAnywhere:
    def test_nan_amplitude(self):
        fails_alike(lambda c: DickeVector(3, c[..., 0], c[..., 1]),
                    np.array([0.6, 0.8j]), np.array([np.nan, 0.8]))

    def test_azimuth_out_of_range(self):
        fails_alike(lambda a: PureQubit(a[..., 0], a[..., 1]),
                    np.array([1.0, 2.0]), np.array([1.0, 7.0]))

    def test_nan_statevector_entry(self):
        rows = np.array([0, 1, 2])
        fails_alike(lambda a: SupportStateVector(2, rows, a),
                    np.array([1.0, 0.0, 0.0]), np.array([np.nan, 0.0, 0.0]))

    def test_non_unitary_device(self):
        good = universal_disentangler(3).vectors
        bad = good.copy()
        bad[0] *= 1.5
        fails_alike(lambda v: DeviceTransform(3, v), good, bad)
        bad = good.copy()
        bad[1, 2] = np.nan
        fails_alike(lambda v: DeviceTransform(3, v), good, bad)

    def test_non_psd_density_operator(self):
        fails_alike(DensityOperator, np.diag([0.5, 0.5]), np.diag([1.5, -0.5]))
        fails_alike(DensityOperator, np.diag([0.5, 0.5]), np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_output_off_the_branch_subspace(self):
        n = 3
        good = run_cascade(PureQubit(1.0, 2.0), n).dense()
        bad = np.zeros(2 ** n, dtype=complex)
        bad[[0, 2 ** n - 1]] = np.sqrt(0.5)  # |111> has two excitations on the leading pair
        every = np.arange(2 ** n)
        fails_alike(lambda a: decompose(SupportStateVector(n, every, a), n), good, bad)


class TestDickeSupportRounding:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_one_bit_pattern_for_every_amplitude_type(self, n):
        # c1 / sqrt(n) is rounded once per part, whatever type c1 came in:
        # a Python float or complex, a numpy scalar, a 0-d array, a stack
        forms = [0.8, 0.8 + 0j, np.float64(0.8), np.complex128(0.8), np.array(0.8 + 0j)]
        want = np.full(n, 0.8 / np.sqrt(n), dtype=complex)
        for c1 in forms:
            _, amps = core._dicke_support(DickeVector(n, 0.6, c1))
            assert bits(amps[1:]) == bits(want), type(c1)
            assert bits(amps[0]) == bits(0.6 + 0j)
        _, amps = core._dicke_support(DickeVector(n, [0.6, 0.8j], [0.8, 0.6]))
        assert bits(amps[0, 1:]) == bits(want)
        assert bits(amps[1, 1:]) == bits(np.full(n, 0.6 / np.sqrt(n), dtype=complex))
        complex_part = core._dicke_support(DickeVector(n, 0.6, 0.48 + 0.64j))[1][1]
        assert bits(complex_part) == bits(complex(0.48 / np.sqrt(n), 0.64 / np.sqrt(n)))


class TestQuadratureCap:
    @pytest.mark.parametrize("sizes", [(2 ** 63, 8), (8, 2 ** 63),
                                       (core.MAX_QUADRATURE_NODES + 1, 2),
                                       (2, core.MAX_QUADRATURE_NODES + 1)])
    def test_past_the_cap_raises_before_any_rule_is_built(self, monkeypatch, sizes):
        def refuse(n):
            raise AssertionError("leggauss called")
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        core._gauss_legendre.cache_clear()
        with pytest.raises(CapacityError, match="node quadrature cap"):
            BlochQuadrature(*sizes)
        core._gauss_legendre.cache_clear()


class TestNonObjects:
    t = universal_disentangler(3)
    v = DickeVector(3, 0.6, 0.8)
    rho = symmetric_marginal(DickeVector(3, 0.6, 0.8))

    @pytest.mark.parametrize("call, kind", [
        (lambda s: pointwise_fidelity(None, 0.1, 0.2), "DeviceTransform"),
        (lambda s: device_avg_fidelity(None), "DeviceTransform"),
        (lambda s: covariance_spread(None), "DeviceTransform"),
        (lambda s: unitarity_residuals(None), "DeviceTransform"),
        (lambda s: apply_transform(None, s.v), "DeviceTransform"),
        (lambda s: apply_transform(s.t, None), "DickeVector"),
        (lambda s: symmetric_state(None, 3), "PureQubit"),
        (lambda s: run_cascade(None, 3), "PureQubit"),
        (lambda s: sample_shots(None, 3, 10, 0), "PureQubit"),
        (lambda s: fidelity_pure(None, s.rho), "PureQubit"),
        (lambda s: fidelity_pure(PureQubit(1.0, 0.0), None), "DensityOperator"),
        (lambda s: dicke_to_statevector(None), "DickeVector"),
        (lambda s: symmetric_marginal(None), "DickeVector"),
        (lambda s: reduced_qubit(None, 1), "SupportStateVector"),
        (lambda s: apply_cnot(None, 1, 2), "SupportStateVector"),
        (lambda s: decompose(None, 3), "SupportStateVector"),
        (lambda s: bloch_average(lambda a, b: a, None), "BlochQuadrature"),
        (lambda s: random_transform(3, None), "Generator"),
        (lambda s: random_transform(3, 7), "Generator"),
        # measurement's entry points, named so the ids above keep their numbers
        pytest.param(lambda s: averaged_estimator(None, BlochQuadrature(4, 4)),
                     "DickeVector", id="averaged_estimator-state"),
        pytest.param(lambda s: averaged_estimator(s.v, None), "BlochQuadrature",
                     id="averaged_estimator-quadrature"),
        pytest.param(lambda s: estimator_output(None, projector_pair(0.3, 0.2, 3)),
                     "DickeVector", id="estimator_output-state"),
        pytest.param(lambda s: estimator_output(s.v, None), "pair of DickeVectors",
                     id="estimator_output-no-pair"),
        pytest.param(lambda s: estimator_output(s.v, (s.v,)), "pair of DickeVectors",
                     id="estimator_output-one-projector"),
        pytest.param(lambda s: estimator_output(s.v, (s.v, None)), "pair of DickeVectors",
                     id="estimator_output-non-projector"),
        pytest.param(lambda s: bloch_average(None, BlochQuadrature(4, 4)), "callable",
                     id="bloch_average-integrand"),
    ])
    def test_raise_domain_error_naming_the_kind(self, call, kind):
        with pytest.raises(DomainError, match=f"need a {kind}, got "):
            call(self)


class TestStackEquality:
    """`==` on the stack-capable value types is a bool: equal fields, equal
    shapes.  Single objects compare and hash as the dataclass makes them."""

    angles = (np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    other = (np.array([0.1, 0.2]), np.array([0.3, 0.5]))

    def test_equal_stacks_are_equal(self):
        assert PureQubit(*self.angles) == PureQubit(*(a.copy() for a in self.angles))
        assert not PureQubit(*self.angles) != PureQubit(*self.angles)
        v = DickeVector(3, np.array([0.6, 0.8]), np.array([0.8, 0.6]))
        assert v == DickeVector(3, np.array([0.6, 0.8]), np.array([0.8, 0.6]))
        assert dicke_to_statevector(v) == dicke_to_statevector(v)
        rho = np.array([np.eye(2) / 2, np.diag([1.0, 0.0])])
        assert DensityOperator(rho) == DensityOperator(rho.copy())
        assert DensityOperator(rho) != DensityOperator(rho[::-1])

    def test_unequal_stacks_are_unequal(self):
        assert PureQubit(*self.angles) != PureQubit(*self.other)
        assert (DickeVector(3, np.array([0.6, 0.8]), np.array([0.8, 0.6]))
                != DickeVector(3, np.array([0.6, 0.6]), np.array([0.8, 0.8])))
        # the same members at another count, and a longer stack
        assert (DickeVector(3, np.array([0.6]), np.array([0.8]))
                != DickeVector(4, np.array([0.6]), np.array([0.8])))
        assert PureQubit(*self.angles) != PureQubit(*(np.tile(a, 2) for a in self.angles))

    def test_a_stack_is_not_a_single_object(self):
        single = PureQubit(0.1, 0.3)
        stack = PureQubit(np.array([0.1]), np.array([0.3]))
        assert stack != single and single != stack
        assert PureQubit(*self.angles) != DickeVector(3, 0.6, 0.8)

    def test_decompositions_of_stacks_compare(self):
        def decomposed(angles):
            return decompose(run_cascade(PureQubit(*angles), 4), 4)
        assert decomposed(self.angles) == decomposed(self.angles)
        assert decomposed(self.angles) != decomposed(self.other)

    def test_single_objects_compare_and_hash_as_before(self):
        assert PureQubit(0.1, 0.2) == PureQubit(0.1, 0.2) != PureQubit(0.1, 0.25)
        assert hash(PureQubit(0.1, 0.2)) == hash((0.1, 0.2))
        assert hash(DickeVector(3, 0.6, 0.8)) == hash((3, 0.6 + 0j, 0.8 + 0j))
        assert len({DickeVector(3, 0.6, 0.8), DickeVector(3, 0.6, 0.8)}) == 1
        dec = decompose(run_cascade(PureQubit(0.7, 1.1), 4), 4)
        assert hash(dec) == hash((dec.amp_plus_psi, dec.amp_minus, dec.recovered))
        with pytest.raises(TypeError, match="unhashable"):
            hash(PureQubit(*self.angles))
