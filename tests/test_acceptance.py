"""Acceptance suite: every exit criterion at its stated tolerance.

The criteria are the `cli._check_*` functions that `verify` runs; each test
calls them with its own samples and time limit.  Each test prints one pass
line (visible with -s or -rA); pytest failure output names the check that
broke.
"""

import time

from disentanglers import cli


def run_criterion(k, label, limit, *checks):
    """Run the checks, require every result to pass within `limit` seconds,
    and print the criterion's pass line."""
    start = time.time()
    results = [r for check in checks for r in check()]
    elapsed = time.time() - start
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert elapsed < limit
    print(f"ACCEPTANCE {k} ({label}): PASS in {elapsed:.2f}s (limit {limit}s)")


def test_criterion_1_endpoint_values():
    run_criterion(1, "endpoint and asymptotic values", 1,
                  cli._check_endpoints, cli._check_asymptotes)


def test_criterion_2_strategy_ordering():
    run_criterion(2, "strategy ordering 2..50", 1, cli._check_ordering)


def test_criterion_3_oracle_equivalence():
    run_criterion(3, "closed forms vs quadrature oracles", 30,
                  cli._check_closed_form_oracles,
                  lambda: cli._check_bound_numeric((2, 3, 5, 10, 25)),
                  lambda: cli._check_device_average_oracle(123),
                  lambda: cli._check_pointwise_dual_route(124))


def test_criterion_4_optimality_rederivation():
    run_criterion(4, "optimizers attain analytic optima, 20 seeds", 300,
                  lambda: cli._check_optimizers(tuple(range(20))))


def test_criterion_5_network_exactness():
    run_criterion(5, "probabilistic network exactness", 60,
                  cli._check_cascade_action,
                  lambda: cli._check_network(77, 100, 2026))


def test_criterion_6_covariance():
    run_criterion(6, "covariant vs state-dependent spread", 5, cli._check_covariance)


def test_criterion_7_unitarity():
    run_criterion(7, "orthonormal images", 60, cli._check_unitary_images)
