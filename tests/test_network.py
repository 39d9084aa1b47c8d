"""C-NOT cascade, post-selection branches, and shot sampling."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from disentanglers import (
    CapacityError,
    DecompositionError,
    DickeVector,
    DomainError,
    PureQubit,
    SupportStateVector,
    apply_cnot,
    cnot_cascade,
    decompose,
    dicke_to_statevector,
    post_selected_state,
    postselect_basis,
    run_cascade,
    sample_shots,
    success_probability,
    symmetric_state,
)
from disentanglers import network
from disentanglers.cli import _dicke_with_last


def random_qubit(rng):
    return PureQubit(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))


def random_state(rng, n):
    amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return every_row(n, amps / np.linalg.norm(amps))


def every_row(n, amps):
    """A dense state as the support over every row."""
    return SupportStateVector(n, np.arange(2 ** n), amps)


def assert_same_support(a, b):
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.amps, b.amps)


class TestApplyCnot:
    def test_basis_action(self):
        state = every_row(2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
        out = apply_cnot(state, 1, 2)
        assert np.array_equal(out.dense(), [0, 0, 0, 1])  # |11>
        zero = every_row(2, np.array([1, 0, 0, 0], dtype=complex))
        assert np.array_equal(apply_cnot(zero, 1, 2).dense(), [1, 0, 0, 0])

    def test_involution(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            state = random_state(rng, n)
            c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            twice = apply_cnot(apply_cnot(state, int(c), int(t)), int(c), int(t))
            assert_same_support(twice, state)

    @given(n=st.integers(2, 8), data=st.data())
    def test_support_form_is_the_dense_permutation(self, n, data):
        # any rows, some of them holding a zero amplitude, and any gate
        rows = sorted(data.draw(st.sets(st.integers(0, 2 ** n - 1), min_size=1)))
        part = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
        amps = np.array([complex(data.draw(part), data.draw(part)) for _ in rows])
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        state = SupportStateVector(n, np.array(rows), amps / norm)
        c, t = data.draw(st.permutations(range(1, n + 1)))[:2]
        # the dense definition: row i takes the amplitude of row i with its
        # target bit flipped where its control bit is set
        idx = np.arange(2 ** n)
        perm = idx ^ (((idx >> (n - c)) & 1) << (n - t))
        out = apply_cnot(state, c, t)
        assert np.array_equal(out.dense(), state.dense()[perm])
        assert_same_support(apply_cnot(out, c, t), state)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_narrow_rows_do_not_wrap(self, dtype):
        # row 1 at n = 9 moves to 1 + 2^8, past the range of uint8
        state = SupportStateVector(9, np.array([1], dtype=dtype), np.ones(1))
        assert apply_cnot(state, 9, 1).rows.tolist() == [257]

    def test_index_errors(self):
        state = random_state(np.random.default_rng(0), 3)
        with pytest.raises(DomainError):
            apply_cnot(state, 0, 2)
        with pytest.raises(DomainError):
            apply_cnot(state, 1, 4)
        with pytest.raises(DomainError):
            apply_cnot(state, 2, 2)


class TestCascade:
    def test_gate_list(self):
        assert cnot_cascade(5) == ((1, 5), (2, 5), (3, 5), (4, 5))
        assert cnot_cascade(1) == ()

    def test_gate_order_immaterial(self):
        rng = np.random.default_rng(21)
        n = 6
        state = random_state(rng, n)
        gates = list(cnot_cascade(n))
        forward = state
        for c, t in gates:
            forward = apply_cnot(forward, c, t)
        shuffled = state
        for c, t in rng.permutation(gates):
            shuffled = apply_cnot(shuffled, int(c), int(t))
        assert_same_support(forward, shuffled)

    def test_run_cascade_matches_gate_by_gate(self):
        rng = np.random.default_rng(30)
        for n in range(1, 15):
            for _ in range(3):
                psi = random_qubit(rng)
                # the brute-force route: every gate moves all 2^n rows
                gated = every_row(n, dicke_to_statevector(symmetric_state(psi, n)).dense())
                for c, t in cnot_cascade(n):
                    gated = apply_cnot(gated, c, t)
                assert np.array_equal(run_cascade(psi, n).dense(), gated.dense())

    def test_basis_action_up_to_cap(self):
        for n in range(2, 21):
            out0 = run_cascade(PureQubit(0.0, 0.0), n).dense()
            assert np.max(np.abs(out0 - _dicke_with_last(n, 1.0, 0.0, 0))) <= 1e-12
            out1 = run_cascade(PureQubit(np.pi, 0.0), n).dense()
            expect1 = _dicke_with_last(n, 1.0 / np.sqrt(n), np.sqrt((n - 1.0) / n), 1)
            assert np.max(np.abs(out1 - expect1)) <= 1e-12

    def test_output_is_the_sector_support(self):
        # n+1 ascending rows: the blank row 0 and the single excitations,
        # each moved to its odd neighbour when a control qubit holds it
        out = run_cascade(PureQubit(1.1, 0.4), 5)
        assert out.rows.tolist() == [0, 1, 3, 5, 9, 17]
        assert out.amps.shape == (6,)

    def test_zero_input(self):
        out = run_cascade(PureQubit(0.0, 0.0), 3).dense()
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(out, expected, atol=1e-15)

    def test_one_input_n2(self):
        out = run_cascade(PureQubit(np.pi, 0.0), 2).dense()
        # (|01> + |11>) / sqrt(2)
        assert np.allclose(out, [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)],
                           atol=1e-12)

    def test_trivial_at_n1(self):
        psi = PureQubit(1.2, 0.7)
        out = run_cascade(psi, 1).dense()
        assert np.allclose(out, psi.amplitudes(), atol=1e-15)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            run_cascade(PureQubit(1.0, 0.0), 21)

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(22)
        for n in range(2, 13):
            out = run_cascade(random_qubit(rng), n).dense()
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)


class TestPostselectBasis:
    def test_n2_vectors(self):
        plus, minus = postselect_basis(2)
        assert isinstance(plus, DickeVector) and isinstance(minus, DickeVector)
        assert plus.n == minus.n == 1
        assert np.allclose(plus.amplitudes(), [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(minus.amplitudes(), [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_orthonormal(self):
        for n in range(2, 13):
            plus, minus = postselect_basis(n)
            assert plus.n == minus.n == n - 1
            pair = np.array([plus.amplitudes(), minus.amplitudes()])
            assert np.allclose(pair.conj() @ pair.T, np.eye(2), rtol=0, atol=1e-12)

    def test_needs_two_qubits(self):
        with pytest.raises(DomainError):
            postselect_basis(1)


def dense_branches(output):
    """The projection written out on the dense 2^(n-1) basis vectors, with
    the full 2^n reconstruction: the reference for `network._branches`."""
    plus, minus = (dicke_to_statevector(v).dense() for v in postselect_basis(output.n))
    m = output.dense().reshape(-1, 2)
    branch_plus = plus.conj() @ m
    branch_minus = minus.conj() @ m
    recon = np.outer(plus, branch_plus) + np.outer(minus, branch_minus)
    return branch_plus, branch_minus, float(np.linalg.norm(m - recon))


class TestBranches:
    def assert_matches_dense(self, output):
        got = network._branches(output)
        want = dense_branches(output)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-15
        assert np.max(np.abs(got[1] - want[1])) <= 1e-15
        assert abs(got[2] - want[2]) <= 1e-15

    def test_cascade_outputs_match_dense_projection(self):
        rng = np.random.default_rng(28)
        for n in range(2, 21):
            self.assert_matches_dense(run_cascade(random_qubit(rng), n))

    def test_random_states_match_dense_projection(self):
        # from n = 3 on the residual is of order one; at n = 2 the two
        # branches span the leading qubit and nothing is left over
        rng = np.random.default_rng(29)
        for n in range(2, 13):
            out = random_state(rng, n)
            if n > 2:
                assert network._branches(out)[2] > 0.1
            self.assert_matches_dense(out)

    def test_every_row_outside_the_branches_counts(self):
        # one amplitude eps at a time at each row off the 2n branch rows,
        # gap edges and the last gap included: the residual reads it, and
        # decompose rejects it
        eps = 1e-6
        rng = np.random.default_rng(30)
        for n in range(3, 11):
            base = run_cascade(random_qubit(rng), n).dense() * np.sqrt(1.0 - eps ** 2)
            rows = [0, *(2 ** k for k in range(n - 1))]
            branch = np.isin(np.arange(2 ** n) // 2, rows)
            assert np.count_nonzero(branch) == 2 * n
            for index in np.flatnonzero(~branch):
                amps = base.copy()
                amps[index] = eps
                out = every_row(n, amps)
                self.assert_matches_dense(out)
                assert abs(network._branches(out)[2] - eps) <= 1e-15
                with pytest.raises(DecompositionError):
                    decompose(out, n)

    @given(n=st.integers(2, 8), data=st.data())
    def test_random_supports_match_dense_projection(self, n, data):
        rows = sorted(data.draw(st.sets(st.integers(0, 2 ** n - 1), min_size=1)))
        part = st.floats(-1.0, 1.0)
        amps = np.array([complex(data.draw(part), data.draw(part)) for _ in rows])
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        self.assert_matches_dense(SupportStateVector(n, np.array(rows), amps / norm))

    def test_decompose_allocates_no_copy(self):
        out = run_cascade(PureQubit(1.1, 0.4), 20)
        tracemalloc.start()
        try:
            decompose(out, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

    def test_run_cascade_allocates_only_its_output(self):
        # the 21 rows and amplitudes of the support, never a 2^20 array
        # (3.7 KB measured)
        tracemalloc.start()
        try:
            run_cascade(PureQubit(1.1, 0.4), 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 1024


class TestDecompose:
    def test_south_pole_kills_failure_branch(self):
        out = run_cascade(PureQubit(np.pi, 0.0), 5)
        dec = decompose(out, 5)
        assert abs(dec.amp_minus) < 1e-14
        assert abs(dec.amp_plus_psi) == pytest.approx(1.0, abs=1e-14)

    def test_north_pole_weight_n2(self):
        dec = decompose(run_cascade(PureQubit(0.0, 0.0), 2), 2)
        assert abs(dec.amp_plus_psi) ** 2 == pytest.approx(0.5, abs=1e-14)

    def test_branch_weights_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            dec = decompose(run_cascade(random_qubit(rng), n), n)
            total = abs(dec.amp_plus_psi) ** 2 + abs(dec.amp_minus) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_residual_small_across_inputs(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            out = run_cascade(random_qubit(rng), n)
            decompose(out, n)  # raises if residual exceeds its bound

    def test_normalization_matches_closed_form(self):
        # the branch scale sqrt(N) / |amp_plus_psi| relating the success
        # amplitude to the input orientation
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            psi = random_qubit(rng)
            dec = decompose(run_cascade(psi, n), n)
            c2 = np.cos(psi.theta / 2) ** 2
            expected = np.sqrt(n * n * c2 + n * (1 - c2))
            assert np.sqrt(n) / abs(dec.amp_plus_psi) == pytest.approx(expected, abs=1e-10)

    def test_accepts_norm_within_statevector_tolerance(self):
        # a statevector's norm may be within 1e-10 of 1; the branch weights
        # are compared with the output's own squared norm, not with 1
        cascade = run_cascade(PureQubit(1.0, 0.3), 6)
        out = SupportStateVector(6, cascade.rows, cascade.amps * (1 + 5e-11))
        dec = decompose(out, 6)
        assert dec.recovered.theta == pytest.approx(1.0, abs=1e-12)
        assert dec.recovered.phi == pytest.approx(0.3, abs=1e-12)
        assert abs(dec.amp_plus_psi) ** 2 + abs(dec.amp_minus) ** 2 == pytest.approx(
            (1 + 5e-11) ** 2, abs=1e-14)

    def test_rejects_state_outside_branch_subspace(self):
        amps = np.zeros(8, dtype=complex)
        amps[6] = 1.0  # |110>: two excitations on the leading qubits
        with pytest.raises(DecompositionError):
            decompose(every_row(3, amps), 3)
        # the same state as its one-row support
        with pytest.raises(DecompositionError):
            decompose(SupportStateVector(3, np.array([6]), np.ones(1)), 3)

    def test_rejects_a_dense_state(self):
        dense = run_cascade(PureQubit(1.0, 0.3), 4).dense()
        with pytest.raises(DomainError, match="SupportStateVector"):
            decompose(dense, 4)


class TestSuccessProbability:
    def test_closed_form_values(self):
        assert success_probability(np.pi, 9) == pytest.approx(1.0)
        assert success_probability(0.0, 8) == pytest.approx(1 / 8)
        assert success_probability(np.pi / 2, 2) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("theta, message", [
        (-0.1, "theta=-0.1 outside"), (np.nan, "theta=nan outside"),
        (np.array([0.1, 0.2]), "angles must be scalars")])
    def test_rejects_theta_outside_its_range(self, theta, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            success_probability(theta, 3)

    def test_monotone_in_n(self):
        for theta in np.linspace(0.0, np.pi - 0.05, 12):
            probs = [success_probability(theta, n) for n in range(1, 41)]
            assert np.all(np.diff(probs) <= 1e-15)

    def test_matches_branch_weight(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            psi = random_qubit(rng)
            dec = decompose(run_cascade(psi, n), n)
            assert abs(dec.amp_plus_psi) ** 2 == pytest.approx(
                success_probability(psi.theta, n), abs=1e-12)


class TestPostSelectedState:
    def test_exact_recovery(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            psi = random_qubit(rng)
            rec = post_selected_state(run_cascade(psi, n), n)
            fid = abs(np.vdot(psi.amplitudes(), rec.amplitudes())) ** 2
            assert fid == pytest.approx(1.0, abs=1e-12)

    def test_south_pole_deterministic(self):
        rec = post_selected_state(run_cascade(PureQubit(np.pi, 0.0), 5), 5)
        assert rec.theta == pytest.approx(np.pi, abs=1e-12)
        assert success_probability(np.pi, 5) == pytest.approx(1.0)

    def test_phase_recovered(self):
        psi = PureQubit(np.pi / 2, np.pi / 3)
        rec = post_selected_state(run_cascade(psi, 4), 4)
        assert rec.phi == pytest.approx(np.pi / 3, abs=1e-12)

    def test_equals_decompose_recovered(self):
        out = run_cascade(PureQubit(0.8, 5.1), 7)
        assert post_selected_state(out, 7) == decompose(out, 7).recovered

    def test_rejects_failure_branch_carrying_one(self):
        # (success x |0> + failure x |1>) / sqrt(2): inside the branch
        # subspace, but the failure branch does not carry the reference state
        out = every_row(2, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex))
        with pytest.raises(DecompositionError, match="failure branch"):
            post_selected_state(out, 2)


POLAR = st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, np.pi))


class TestProperties:
    @given(theta=POLAR, phi=st.floats(-4 * np.pi, 4 * np.pi), n=st.integers(2, 12))
    def test_cascade_recovers_input(self, theta, phi, n):
        psi = PureQubit.from_angles(theta, phi)
        dec = decompose(run_cascade(psi, n), n)
        fid = abs(np.vdot(psi.amplitudes(), dec.recovered.amplitudes())) ** 2
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert abs(dec.amp_plus_psi) ** 2 == pytest.approx(
            success_probability(theta, n), abs=1e-12)


class TestSampleShots:
    def test_certain_success(self):
        assert sample_shots(PureQubit(np.pi, 0.0), 6, 500, seed=1) == 500

    def test_binomial_agreement(self):
        plus = sample_shots(PureQubit(0.0, 0.0), 4, 10 ** 5, seed=7)
        p = 0.25
        sigma = np.sqrt(p * (1 - p) / 10 ** 5)
        assert abs(plus / 10 ** 5 - p) <= 3 * sigma

    def test_deterministic_under_seed(self):
        a = sample_shots(PureQubit(1.0, 0.3), 3, 1000, seed=99)
        assert a == sample_shots(PureQubit(1.0, 0.3), 3, 1000, seed=99)
        # the success count, a Python int, of numpy's PCG64 stream at that seed
        assert type(a) is int
        p = success_probability(1.0, 3)
        draws = np.random.Generator(np.random.PCG64(99)).random(1000)
        assert a == np.count_nonzero(draws < p)

    def test_seed_validated(self):
        for bad in (-1, -2 ** 70, 2.0, True, "3", None):
            with pytest.raises(DomainError, match="seed >= 0"):
                sample_shots(PureQubit(1.0, 0.0), 3, 100, seed=bad)
        psi = PureQubit(1.0, 0.3)
        assert sample_shots(psi, 3, 1000, seed=np.int64(99)) == sample_shots(
            psi, 3, 1000, seed=99)
        sample_shots(psi, 3, 10, seed=0)  # the least seed is accepted

    def test_shot_count_validated(self):
        for bad in (0, 2.5, True, "3"):
            with pytest.raises(DomainError, match="shots"):
                sample_shots(PureQubit(1.0, 0.0), 3, bad, seed=0)
