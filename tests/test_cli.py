"""Command-line frontend: CSV contract, verification suite, network report."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import disentanglers
from disentanglers import (
    DomainError,
    cli,
    core,
    devices,
    diluted_avg_fidelity,
    dilution_overlap,
    measurement,
    measurement_avg_fidelity,
    optimal_measurement_bound,
    universal_coefficients,
)
from disentanglers.cli import CheckResult, cmd_network, cmd_table, fidelity_columns, main

REPO = Path(__file__).resolve().parent.parent

# Rows where numpy's SIMD power or square kernels and libm's pow round a
# closed form's power differently in the last bit: (sqrt(N) + 1)^2 at 1061
# and 3218, (N - 1)^3 at 208164 and 973086, gamma^2 at 1068 and 973086.
# Fmax at 571 is a near-tie of its 12 printed digits.
TRAP_ROWS = (571, 1061, 1068, 3218, 208164, 973086)

# The row format `table` once wrote with "%" formatting; the reference that
# `cli._table_bytes` must equal byte for byte.
TABLE_ROW = "%d" + ",%.12g" * 5 + "\n"


def reference_rows(ns, cols):
    return "".join(TABLE_ROW % row for row in zip(ns.tolist(), *cols.tolist()))


def kernel_fields(values):
    """Each value as `cli._table_bytes` prints it, from rows of five copies."""
    v = np.asarray(values, dtype=float)
    text = cli._table_bytes(np.ones(v.size, dtype=np.int64), np.tile(v, (5, 1))).decode()
    rows = [line.split(",") for line in text.splitlines()]
    assert [row[:1] + row[2:] for row in rows] == [["1"] + row[1:2] * 4 for row in rows]
    return [row[1] for row in rows]


class TestFidelityRow:
    def test_n1_values(self):
        f0, f1, fmax, f2, f3 = fidelity_columns(1)
        assert (f0, f2, f3) == (1.0, 1.0, 1.0)
        assert f1 == pytest.approx(2 / 3, abs=1e-15)
        assert fmax == pytest.approx(2 / 3, abs=1e-15)

    def test_ordering_enforced(self):
        ns = np.arange(1, 11)
        good = fidelity_columns(ns)
        cli._require_rows(ns, good)
        # N = 1 has F1 == Fmax and F2 == F3; ordering is required from N = 2
        assert good[1, 0] == good[2, 0] and good[3, 0] == good[4, 0]

        unordered = good.copy()
        unordered[1, 3] = unordered[2, 3] + 0.01  # f1 > fmax at N = 4
        unordered[1, 6] = unordered[2, 6] + 0.01  # and at N = 7
        with pytest.raises(DomainError, match=r"^strategy ordering violated at n=4$"):
            cli._require_rows(ns, unordered)

        low = unordered.copy()
        low[0, 2] = 0.4  # below 1/2 at N = 3, before the first unordered row
        want = f"fidelities out of [1/2, 1] at n=3: {tuple(low[:, 2].tolist())}"
        with pytest.raises(DomainError) as exc:
            cli._require_rows(ns, low)
        assert str(exc.value) == want

        high = good.copy()
        high[4, 8] = 1.0 + 1e-12  # above 1 at N = 9
        with pytest.raises(DomainError, match=r"out of \[1/2, 1\] at n=9: "):
            cli._require_rows(ns, high)
        high[4, 8] = np.nan
        with pytest.raises(DomainError, match=r"at n=9: "):
            cli._require_rows(ns, high)

    def test_rows_valid_up_to_50(self):
        cols = fidelity_columns(np.arange(1, 51))  # runs the invariant checks
        assert cols.shape == (5, 50)
        assert cols[:, 49].tolist() == fidelity_columns(50).tolist()


class TestTableColumns:
    """The array evaluation behind `table` against the scalar closed forms,
    and both against a 50-digit evaluation."""

    def test_array_equals_scalar_bit_for_bit(self):
        ns = np.array([*range(1, 2001), *TRAP_ROWS])
        # counts whose squares are inexact in doubles; the strict ordering
        # of the table no longer resolves there
        big = np.array([10 ** 9 + 7, 2 ** 62 + 11, 2 ** 63 - 1])
        forms = (diluted_avg_fidelity, dilution_overlap, measurement_avg_fidelity,
                 optimal_measurement_bound, lambda n: universal_coefficients(n)[0],
                 lambda n: universal_coefficients(n)[1])
        for counts in (ns, big):
            for form in forms:
                scalar = [form(int(n)) for n in counts]
                assert all(type(v) is float for v in scalar)
                assert form(counts).tolist() == scalar
        # the F2 column squares through libm's pow, as `gamma ** 2` of a
        # float does
        f2 = [universal_coefficients(int(n))[0] ** 2 for n in ns]
        assert fidelity_columns(ns)[3].tolist() == f2

    def test_count_arrays_are_checked(self):
        for form in (diluted_avg_fidelity, dilution_overlap, measurement_avg_fidelity,
                     optimal_measurement_bound, universal_coefficients, fidelity_columns):
            for bad, named in ((np.array([2.0, 3.0]), "dtype float64"),
                               (np.array([True, True]), "dtype bool"),
                               (np.array([3, 2], dtype=object), "dtype object"),
                               (np.array([3, 0, -1]), "got 0"),
                               (np.array([[2, 3], [-4, 0]]), "got -4")):
                with pytest.raises(DomainError, match=named):
                    form(bad)
            # narrow dtypes are widened before use: 16 * 16 wraps in uint8
            wide = np.asarray(form(np.arange(14, 18)))
            assert np.asarray(form(np.arange(14, 18, dtype=np.uint8))).tolist() == wide.tolist()

    def test_no_warning_at_n1(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = fidelity_columns(np.array([1, 1, 2]))
        assert cols[:, 0].tolist() == cols[:, 1].tolist() == fidelity_columns(1).tolist()

    def test_against_50_digit_closed_forms(self):
        # Error model: each form is a few correctly rounded operations, a log
        # and a libm pow, so it lands within a few ulp of the exact value.
        # Over the N below the worst is 3.1 ulp (the overlap at N = 13), the
        # worst of the other four columns 1.9 ulp (F2 at N = 42).
        import mpmath
        from decimal import Decimal

        def exact(n):
            n, one = mpmath.mpf(n), mpmath.mpf(1)
            if n == 1:
                return [one, 2 * one / 3, 2 * one / 3, one, one]
            ln, rt = mpmath.log(n), mpmath.sqrt(n)
            overlap = ((n * n + 4 * n * rt - 4 * rt - 1 + 2 * n * ln)
                       / (2 * (n - 1) * (rt + 1) ** 2))
            return [(n * n - 1 - 2 * ln) / (2 * (n - 1) ** 2), (1 + overlap) / 3,
                    (1 + rt * (n * n - 1 - 2 * n * ln) / (n - 1) ** 3) / 2,
                    (n + 1) / (2 * (n + 1 - rt)), overlap]

        def scalar_columns(n):
            return [diluted_avg_fidelity(n), measurement_avg_fidelity(n),
                    optimal_measurement_bound(n), universal_coefficients(n)[0] ** 2,
                    dilution_overlap(n)]

        sample = np.random.default_rng(2026).integers(2001, 10 ** 6 + 1, 2000)
        ns = np.concatenate([np.arange(1, 2001), sample])
        rows = [(int(n), col.tolist()) for n, col in zip(ns, fidelity_columns(ns).T)]
        rows += [(n, scalar_columns(n)) for n in (2 ** 63, 2 ** 64, 10 ** 30, 2 ** 340 - 1)]
        worst = 0.0
        near_ties = []
        with mpmath.workdps(50):
            for n, got in rows:
                for k, (g, e) in enumerate(zip(got, exact(n))):
                    worst = max(worst, float(abs(g - e)) / math.ulp(g))
                    # the exact value and the double on two sides of a
                    # 12-digit rounding boundary: the CSV prints the double's
                    if Decimal(format(g, ".12g")) != Decimal(mpmath.nstr(e, 12)):
                        near_ties.append((n, k))
        assert worst <= 4.0, worst
        # column 2 is Fmax, 4 the overlap (F3)
        assert sorted(near_ties) == [(571, 2), (170481, 4), (848263, 4)]


class TestTableKernel:
    """`cli._table_bytes` against Python's correctly rounded formatter."""

    @staticmethod
    def assert_formats(values):
        values = np.asarray(values, dtype=float).tolist()
        assert kernel_fields(values) == [format(x, ".12g") for x in values]

    def test_exact_ties_round_half_to_even(self):
        # (2t+1) / 8192 times 10^12 is (2t+1) 5^12 / 2, halfway between two
        # 12-digit outputs; these are all 2048 of them in [1/2, 1)
        ties = (2 * np.arange(2048, 4096) + 1) / 8192
        assert ties[0] == 0.5 + 1 / 8192 and ties[-1] == 1 - 1 / 8192
        self.assert_formats(ties)

    def test_edge_values(self):
        edges = [0.5, 1.0, np.nextafter(1.0, 0.0), 1 - 4e-13, 1 - 6e-13]
        assert kernel_fields(edges) == ["0.5", "1", "1", "1", "0.999999999999"]
        self.assert_formats(edges)

    def test_seeded_uniform_values(self):
        self.assert_formats(np.random.default_rng(2026).uniform(0.5, 1.0, 10 ** 5))

    @given(st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=1, max_size=64))
    def test_any_value_in_range(self, values):
        self.assert_formats(values)

    def test_rows_at_every_digit_width_of_n(self):
        ns = np.array([1, *[10 ** k + d for k in range(1, 7) for d in (-1, 0)],
                       *TRAP_ROWS])
        assert ns.max() == cli.MAX_TABLE_N
        cols = fidelity_columns(ns)
        assert cli._table_bytes(ns, cols).decode() == reference_rows(ns, cols)


class TestCmdTable:
    def test_n1_row_exact(self, tmp_path, capsys):
        assert cmd_table(1, 1, None) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "N,F0_diluted,F1_measure,Fmax_measure,F2_universal,F3_swap"
        assert lines[1] == "1,1,0.666666666667,0.666666666667,1,1"

    def test_n2_universal_column(self, capsys):
        assert cmd_table(2, 2, None) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[4] == "0.945902906223"
        assert row[5] == "0.980491196605"

    def test_file_output_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cmd_table(1, 40, str(a)) == 0
        assert cmd_table(1, 40, str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")
        assert b"\r" not in a.read_bytes()

    def test_ordering_across_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        assert cmd_table(2, 50, str(path)) == 0
        for line in path.read_text().splitlines()[1:]:
            _, f0, f1, fmax, f2, f3 = map(float, line.split(","))
            assert f1 < fmax < f2 < f3
            assert all(0.5 <= v <= 1.0 for v in (f0, f1, fmax, f2, f3))

    def test_bad_range_exits_2(self, capsys):
        assert cmd_table(5, 2, None) == 2
        assert cmd_table(0, 2, None) == 2
        assert cmd_table(1, 10 ** 6 + 1, None) == 2
        assert capsys.readouterr().err != ""

    def test_bounds_are_typed(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        for n_min, n_max, named in ((1.5, 3, "n-min"), (True, 3, "n-min"),
                                    ("3", 3, "n-min"), (1, 2.0, "n-max")):
            assert cmd_table(n_min, n_max, str(path)) == 2
            assert not path.exists()
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"table: need an integer {named} >= 1")
        assert cmd_table(np.int64(2), 3, str(path)) == 0
        assert path.read_text().splitlines()[1].startswith("2,")

    def test_digests(self, tmp_path):
        digests = json.loads((REPO / "benchmarks" / "table_digests.json").read_text())
        path = tmp_path / "t.csv"
        for (n_min, n_max), want in (
                ((1, 50000), digests["1-50000"]),
                ((1, 10 ** 6),
                 "941b4e4cee87f240b7915eee7806cc3363872b54213419de28ae9571f4c89511")):
            assert cmd_table(n_min, n_max, str(path)) == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want, (n_min, n_max)

    def test_stdout_equals_file_across_blocks(self, tmp_path, capsys):
        # 4090..8200 spans three blocks of TABLE_BLOCK_ROWS rows
        assert cli.TABLE_BLOCK_ROWS < 8200 - 4090 + 1 < 2 * cli.TABLE_BLOCK_ROWS + 1
        path = tmp_path / "t.csv"
        assert cmd_table(4090, 8200, str(path)) == 0
        assert cmd_table(4090, 8200, None) == 0
        data = path.read_bytes()
        assert capsys.readouterr().out.encode() == data
        assert len(data.splitlines()) == 8200 - 4090 + 2

    def test_unwritable_path_exits_2(self, capsys):
        assert cmd_table(1, 2, "/nonexistent-dir/out.csv") == 2
        assert "cannot write" in capsys.readouterr().err


class TestCheckResult:
    def test_worst_entry_under_each_relation(self):
        assert CheckResult("c", [0.0, 3e-16, 1e-17], 1e-15).value == 3e-16
        assert CheckResult("c", [0.5, 0.2, 0.3], 0.1, ">").value == 0.2

    def test_scalar_list_and_array_fold_alike(self):
        for relation, want in (("<=", 2.0), (">", -1.0)):
            folded = [CheckResult("c", v, 0.0, relation).value
                      for v in ([-1.0, 2.0], (-1.0, 2.0), np.array([[-1.0], [2.0]]))]
            assert folded == [want] * 3
        assert CheckResult("c", np.float64(1.5), 0.0).value == 1.5
        assert CheckResult("c", 1.5, 0.0, ">").value == 1.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fails_both_relations(self, bad):
        # max() or min() would keep the finite entry it met first
        for values in (bad, [0.0, bad], [bad, 0.0]):
            below = CheckResult("c", values, 1.0)
            above = CheckResult("c", values, -1.0, ">")
            assert (below.value, below.passed) == (np.inf, False)
            assert (above.value, above.passed) == (-np.inf, False)

    def test_bound_itself_passes_only_non_strict(self):
        assert CheckResult("c", 1e-12, 1e-12).passed is True
        assert CheckResult("c", 1e-6, 1e-6, ">").passed is False
        assert CheckResult("c", 2e-6, 1e-6, ">").passed is True

    def test_detail_formats_the_fields(self):
        assert CheckResult("c", [1e-16, 2e-16], 1e-12).detail == "residual=2.000e-16 tol=1e-12"
        gap = CheckResult("c", 0.25, 1e-6, ">", "min gap={value:.3e} (needs {relation} {tol:.0e})")
        assert gap.detail == "min gap=2.500e-01 (needs > 1e-06)"

    def test_unknown_relation_is_a_domain_error(self):
        with pytest.raises(DomainError, match="relation"):
            CheckResult("c", 0.0, 0.0, "<")

    def test_gate_by_gate_mismatch_is_an_inf_residual(self, monkeypatch):
        # the sector cascade is untouched, so its defining-action residuals
        # stay small and only the gate-by-gate comparison sees the fault
        monkeypatch.setattr(cli.network, "apply_cnot", lambda state, control, target: state)
        (result,) = cli._check_cascade_action()
        assert (result.value, result.passed) == (np.inf, False)
        assert result.detail.endswith(f"differs from gate-by-gate at n={list(range(2, 13))}")

    def test_exception_line_prints_braces_intact(self, capsys, monkeypatch):
        def raising():
            raise ValueError("bad {value} } {")

        monkeypatch.setattr(cli, "_check_unitary_images", raising)
        assert cli.cmd_verify("fast", 42) == 1
        lines = capsys.readouterr().out.splitlines()
        fail = [line for line in lines if line.startswith("FAIL")]
        assert fail == [f"FAIL  {'unitary-images':34s}  raised ValueError('bad {{value}} }} {{')"]


class TestCmdVerify:
    # stdout of `verify --seed 42` at each level; a change that moves any
    # printed digit updates these on purpose and says so in CHANGES.md
    DIGESTS = {
        "fast": "b818f06d10778a07197c6a87afba734586d99c1eab8c39bac84bb08677de592b",
        "full": "3400355b9a1688c59c06eb4f12828ec2e40792b2511d403a6285a40cee6379b6",
    }

    def test_fast_passes(self, capsys):
        # both levels run exactly these checks, in this order, and pass them
        common = ["endpoint-values-n1", "asymptotic-limits-n1e6",
                  "strategy-ordering-2-50", "oracle-diluted-average",
                  "oracle-dilution-overlap", "oracle-measurement-average",
                  "oracle-moment-integrals", "oracle-device-average",
                  "pointwise-closed-vs-direct", "universal-covariance-spread",
                  "swap-state-dependence", "unitary-images-n-le-50",
                  "network-cascade-action", "network-postselect-fidelity",
                  "network-success-probability", "network-shot-sampling"]
        for level, extra in (("fast", ["measurement-bound-numeric-2"]),
                             ("full", ["measurement-bound-numeric-1-2-3-5-8",
                                       "optimizer-average-attains",
                                       "optimizer-universal-attains",
                                       "optimizer-never-exceeds"])):
            assert cli.cmd_verify(level, 42) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[level]
            *lines, total = out.splitlines()
            assert [line.split()[1] for line in lines] == common + extra
            assert [line.split()[0] for line in lines] == ["PASS"] * len(lines)
            assert total == f"{len(lines)}/{len(lines)} checks passed"

    def test_seed_sweep(self, capsys):
        for seed in range(10):
            assert cli.cmd_verify("fast", seed) == 0
        capsys.readouterr()

    def test_unknown_level_exits_2(self, capsys):
        assert cli.cmd_verify("medium", 0) == 2
        assert capsys.readouterr().err != ""

    def test_negative_seed_exits_2(self, capsys):
        for run in (lambda: cli.cmd_verify("fast", -3),
                    lambda: main(["verify", "--seed", "-3"])):
            assert run() == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "verify: need an integer seed >= 0, got -3\n"

    def test_corrupted_build_exits_1(self, capsys, monkeypatch):
        true_coeffs = devices.universal_coefficients

        def perturbed(n):
            gamma, delta = true_coeffs(n)
            return gamma - 1e-3, delta

        monkeypatch.setattr(devices, "universal_coefficients", perturbed)
        assert cli.cmd_verify("fast", 42) == 1
        assert "FAIL" in capsys.readouterr().out


class TestCmdNetwork:
    def test_certain_case(self, capsys):
        assert cmd_network(np.pi, 0.0, 5, 1000, 7) == 0
        out = capsys.readouterr().out
        assert "exact_success_probability = 1" in out
        assert "empirical_plus_fraction = 1" in out
        assert "post_selected_fidelity = 1" in out

    def test_quarter_probability(self, capsys):
        assert cmd_network(0.0, 0.0, 4, 10 ** 5, 7) == 0
        out = capsys.readouterr().out
        assert "exact_success_probability = 0.25" in out

    def test_equatorial_within_three_sigma(self, capsys):
        assert cmd_network(np.pi / 2, 0.0, 2, 10 ** 5, 7) == 0
        out = capsys.readouterr().out
        freq = float([l for l in out.splitlines()
                      if l.startswith("empirical_plus_fraction")][0].split("=")[1])
        sigma = np.sqrt((2 / 3) * (1 / 3) / 10 ** 5)
        assert abs(freq - 2 / 3) <= 3 * sigma

    def test_single_qubit(self, capsys):
        assert cmd_network(1.0, 0.5, 1, 10, 0) == 0
        assert "post_selected_fidelity = 1" in capsys.readouterr().out

    def test_invalid_arguments_exit_2(self, capsys):
        # the library's own message, naming the argument, goes to stderr
        for args, named in (((-1.0, 0.0, 4, 100, 0), "theta=-1.0"),
                            ((1.0, 0.0, 0, 100, 0), "n >= 1, got 0"),
                            ((1.0, 0.0, 25, 100, 0), "n=25"),
                            ((1.0, 7.0, 4, 100, 0), "phi=7.0"),
                            ((1.0, 0.0, 4, 0, 0), "shots >= 1, got 0"),
                            ((1.0, 0.0, 4, 100, -1), "seed >= 0, got -1"),
                            ((float("nan"), 0.0, 4, 100, 0), "theta=nan")):
            assert cmd_network(*args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("network: ")
            assert named in captured.err

    # stdout of `network --theta 1.1 --phi 2.3 --shots 100000 --seed 7` at
    # each n; a change that moves any printed digit, such as another way of
    # sampling the shots, updates these
    DIGESTS = {
        1: "70bf40104e2a6fa8d89b05a63dbc5bd582381553278a985021c0f1fd88b1db8d",
        2: "f2ec80062018ca3d35e02240e5c8acf22c2c8f37a20a53dc5297c6e8b1a76959",
        12: "723ba46eedd6378cace304ff292ccbacb518a1ee58a10212747b9909c7405963",
        17: "bc83fde8042c27cbbed92cc91394e61acb594587d158753fba61aa6e9df4e03c",
        20: "179052ec4d63dc205477115235d10205770ea9837f36b04f2bdc772552d03587",
    }

    def test_digests(self, capsys):
        for n, want in self.DIGESTS.items():
            assert main(["network", "--theta", "1.1", "--phi", "2.3", "--n", str(n),
                         "--shots", "100000", "--seed", "7"]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == want, n

    def test_n20_allocates_only_the_shot_draws(self, capsys):
        # at the cap the cascade and post-selection stay on the n+1 rows of
        # the output; what remains is the 10^5 uniform draws and their
        # comparison with p (0.90 MB measured).  A first call is made
        # untraced: numpy's first use of its generator allocates once.
        assert cmd_network(1.1, 2.3, 2, 10, 7) == 0
        tracemalloc.start()
        try:
            assert cmd_network(1.1, 2.3, 20, 10 ** 5, 7) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 2 ** 20

    def test_n20_builds_no_dense_statevector(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("a dense statevector was built")

        monkeypatch.setattr(core.SupportStateVector, "dense", refuse)
        assert cmd_network(1.1, 2.3, 20, 10 ** 5, 7) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[20]


class TestMain:
    def test_table_subcommand(self, capsys):
        assert main(["table", "--n-min", "1", "--n-max", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_network_subcommand(self, capsys):
        assert main(["network", "--theta", "0", "--n", "4", "--shots", "10",
                     "--seed", "1"]) == 0
        capsys.readouterr()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestScipyOnDemand:
    """No command loads scipy: both searches run on numpy, and scipy is only
    the tests' oracle for them."""

    SCRIPT = """
import contextlib, io, json, sys
from disentanglers import cli
codes = [cli.main(["table", "--n-min", "1", "--n-max", "50", "--output", sys.argv[1]]),
         cli.main(["network", "--theta", "1.1", "--n", "12", "--shots", "1000"])]
verify = {}
for level in ("fast", "full"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(["verify", "--level", level]))
    verify[level] = out.getvalue().splitlines()
print(json.dumps({"codes": codes, "scipy_loaded": "scipy" in sys.modules,
                  "verify": verify}))
"""

    def test_table_and_network_never_load_scipy(self, tmp_path):
        src = str(Path(disentanglers.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "t.csv")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=300, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0, 0, 0]
        assert report["scipy_loaded"] is False
        for level in ("fast", "full"):
            *lines, total = report["verify"][level]
            assert lines and all(line.startswith("PASS") for line in lines)
            assert total == f"{len(lines)}/{len(lines)} checks passed"

    @pytest.mark.parametrize("module, own, other", [
        (devices, "minimize", "minimize_scalar"),
        (measurement, "minimize_scalar", "minimize"),
    ])
    def test_each_search_module_binds_only_its_own_optimizer(self, module, own, other):
        # neither scipy optimizer a module once bound is left; its search
        # calls the numpy routine it imports from `core`
        routine = {devices: "_nelder_mead", measurement: "_grid_refine"}[module]
        assert getattr(module, routine) is getattr(core, routine)
        for name in ("no_such_name", own, other):
            with pytest.raises(AttributeError):
                getattr(module, name)
            assert not hasattr(module, name)


class TestOptimizedInterpreter:
    """Stripping `assert` (python -O) must not change any result."""

    @pytest.mark.parametrize("args", [
        ["verify", "--level", "fast"],
        ["verify", "--level", "full"],
        ["network", "--theta", "1.1", "--phi", "2.3", "--n", "20",
         "--shots", "1000", "--seed", "3"],
        ["table", "--n-min", "1", "--n-max", "2000"],
    ], ids=["verify-fast", "verify-full", "network-n20", "table-2000"])
    def test_stdout_identical_under_dash_O(self, args):
        src = str(Path(disentanglers.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)

        def run(*flags):
            return subprocess.run(
                [sys.executable, *flags, "-m", "disentanglers.cli", *args],
                env=env, capture_output=True, timeout=300, check=True).stdout

        plain = run()
        assert plain
        assert run("-O") == plain

    def test_public_api_is_pinned(self):
        # adding or removing a public name is a one-line change here
        assert disentanglers.__all__ == [
            "BlochQuadrature", "CapacityError", "DecompositionError",
            "DensityOperator", "DeviceTransform", "DickeVector", "DomainError",
            "OptimizationError", "OutcomeDecomposition",
            "PureQubit", "SupportStateVector", "UnitarityError",
            "apply_cnot",
            "apply_transform", "averaged_estimator", "bloch_average",
            "cnot_cascade", "core", "covariance_spread", "decompose",
            "device_avg_fidelity", "devices", "dicke_to_statevector",
            "dilute_angle", "diluted_avg_fidelity", "dilution_overlap",
            "estimator_output", "fidelity_pure", "gram_summary", "measurement",
            "measurement_avg_fidelity", "moment_integrals", "network",
            "optimal_measurement_bound", "optimal_measurement_bound_numeric",
            "optimize_average", "optimize_universal", "pointwise_fidelity",
            "post_selected_state", "postselect_basis", "projector_pair",
            "random_transform", "reduced_qubit", "run_cascade", "sample_shots",
            "strategy_integral", "success_probability", "swap_disentangler",
            "symmetric_marginal", "symmetric_state", "unitarity_residuals",
            "universal_coefficients", "universal_disentangler",
        ]

    def test_no_assert_statements_in_src(self):
        # invariants must be explicit checks, which -O cannot strip
        package = Path(disentanglers.__file__).resolve().parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Assert)]
        assert not found
