"""Command-line frontend: CSV contract, verification suite, network report."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import disentanglers
from disentanglers import DomainError, cli, devices
from disentanglers.cli import FidelityRow, cmd_network, cmd_table, fidelity_row, main


class TestFidelityRow:
    def test_n1_values(self):
        r = fidelity_row(1)
        assert (r.f0_diluted, r.f2_universal, r.f3_swap) == (1.0, 1.0, 1.0)
        assert r.f1_measure == pytest.approx(2 / 3, abs=1e-15)
        assert r.fmax_measure == pytest.approx(2 / 3, abs=1e-15)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            FidelityRow(2, 0.8, 0.7, 0.66, 0.9, 0.95)  # f1 > fmax
        with pytest.raises(DomainError):
            FidelityRow(3, 0.4, 0.6, 0.65, 0.9, 0.95)  # below 1/2

    def test_rows_valid_up_to_50(self):
        for n in range(1, 51):
            fidelity_row(n)  # construction runs the invariant checks


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

    def test_unwritable_path_exits_2(self, capsys):
        assert cmd_table(1, 2, "/nonexistent-dir/out.csv") == 2
        assert "cannot write" in capsys.readouterr().err


class TestCmdVerify:
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
            *lines, total = capsys.readouterr().out.splitlines()
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
                            ((float("nan"), 0.0, 4, 100, 0), "theta=nan")):
            assert cmd_network(*args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("network: ")
            assert named in captured.err


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


class TestOptimizedInterpreter:
    """Stripping `assert` (python -O) must not change any result."""

    @pytest.mark.parametrize("args", [
        ["verify", "--level", "fast"],
        ["verify", "--level", "full"],
        ["network", "--theta", "1.1", "--phi", "2.3", "--n", "20",
         "--shots", "1000", "--seed", "3"],
    ], ids=["verify-fast", "verify-full", "network-n20"])
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
            "FullStateVector", "OptimizationError", "OutcomeDecomposition",
            "PureQubit", "ShotCounts", "UnitarityError", "apply_cnot",
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
