"""scipy as the oracle of the package's own searches.

scipy is a test dependency only (the `test` extra).  Given the same scalar
objective and starts, `core._nelder_mead` must follow
`scipy.optimize.minimize(method="Nelder-Mead")` bit for bit; the shipped
array objective must reach scipy's best value per (N, seed) to 1e-15; and the
grid refine of the measurement bound must reach the value that scipy's
bounded `minimize_scalar` finds on the first grid's bracket to 1e-15.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from disentanglers import BlochQuadrature, core, devices, measurement

NS = (2, 3, 5, 10)
SEEDS = range(20)
OPTIONS = {"xatol": 1e-8, "fatol": 1e-13, "maxiter": 4000, "maxfev": 4000}


def _general(count, p):
    a, b, c = p
    return math.sin(a) ** 2, math.sin(b) ** 2, math.cos(c)


def _covariant(count, p):
    x = math.cos(p[0])
    g2 = (count + 1.0) / (2.0 * (count + 1.0 - math.sqrt(count) * x))
    return g2, g2, x


# family: (scalar Gram coordinates, dimension, shipped search)
FAMILIES = {"general": (_general, 3, devices.optimize_average),
            "covariant": (_covariant, 1, devices.optimize_universal)}


def scalar_objective(coords, n):
    """The negated average fidelity `devices._avg_fidelity` of the Gram
    coordinates coords(N, p), one point at a time in Python floats."""
    count = float(n)
    m1, m2, m3 = devices.moment_integrals(n)

    def f(p):
        eta1, eta4, w = coords(count, p)
        re14 = math.sqrt(eta1 * eta4) * w
        return -0.5 * (m1 * count * eta1 + m2 * eta4 + m3 * (
            (1.0 - eta4) + count * (1.0 - eta1) + 2.0 * math.sqrt(count) * re14))
    return f


def row_objective(objectives):
    """`_nelder_mead`'s objective over rows, evaluating each row's scalar
    objective at its own point."""
    return lambda x: np.array([f(p) for f, p in zip(objectives, x)])


@pytest.fixture(scope="module", params=FAMILIES)
def scipy_runs(request):
    """Per (N, seed, restart) row, in that order: the scalar objective, the
    start the shipped search draws, and scipy's result from it."""
    coords, dim, search = FAMILIES[request.param]
    objectives, starts, results = [], [], []
    for n in NS:
        f = scalar_objective(coords, n)
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            for _ in range(devices.RESTARTS):
                x0 = rng.uniform(0.0, np.pi, size=dim)
                objectives.append(f)
                starts.append(x0)
                results.append(minimize(f, x0, method="Nelder-Mead", options=OPTIONS))
    return search, objectives, np.array(starts), results


def test_nelder_mead_follows_scipy_bit_for_bit(scipy_runs):
    _, objectives, starts, results = scipy_runs
    got = core._nelder_mead(row_objective(objectives), starts, **OPTIONS)
    assert [r.x.tolist() for r in results] == got.x.tolist()
    assert [r.fun for r in results] == got.fun.tolist()
    assert [r.nfev for r in results] == got.nfev.tolist()
    assert [r.success for r in results] == got.converged.tolist()


def test_shipped_search_reaches_scipy_best(scipy_runs):
    # one batched call per seed over every count, as `verify` makes it
    search, _, _, results = scipy_runs
    best = np.array([r.fun for r in results]).reshape(len(NS), len(SEEDS), -1).min(axis=2)
    worst = 0.0
    for j, seed in enumerate(SEEDS):
        for i, (_, val) in enumerate(search(NS, seed=seed)):
            worst = max(worst, abs(val + best[i, j]))
    assert worst <= 1e-15


@pytest.mark.parametrize("family", FAMILIES)
def test_spent_budget_follows_scipy(family):
    # an evaluation past maxfev ends its step where scipy's would, even
    # inside a shrink, and the flags say which budget ran out; the objective
    # is shifted positive, so a vertex value left unset would show as the min
    coords, dim, _ = FAMILIES[family]
    f = scalar_objective(coords, 3)
    shifted = lambda p: 1.0 + f(p)
    starts = np.random.default_rng(5).uniform(0.0, np.pi, (16, dim))
    budgets = [(4000, maxfev) for maxfev in range(1, 61)] + [
        (maxiter, 4000) for maxiter in (1, 2, 7, 30)]
    for maxiter, maxfev in budgets:
        options = {**OPTIONS, "maxiter": maxiter, "maxfev": maxfev}
        got = core._nelder_mead(row_objective([shifted] * len(starts)), starts, **options)
        for i, x0 in enumerate(starts):
            want = minimize(shifted, x0, method="Nelder-Mead", options=options)
            assert (want.x.tolist(), want.fun, want.nfev, want.success) == (
                got.x[i].tolist(), got.fun[i], got.nfev[i], got.converged[i])


def _bowl(p):
    return (p[0] - 1.0) ** 2 + 2.0 * (p[1] - 0.5) ** 2 + 0.5 * (p[2] - 2.0) ** 2


# (objective, start) rows that meet their stop rule 25 to 330 steps apart:
# a bowl, Rosenbrock's valley, the bowl behind a wall of inf, the bowl with
# a strip of NaN, a flat objective that only shrinks, and the general family
MIXED = [
    (_bowl, (0.3, 2.0, 1.0)),
    (lambda p: sum(100.0 * (p[i + 1] - p[i] ** 2) ** 2 + (1.0 - p[i]) ** 2
                   for i in range(2)), (-1.0, 2.0, 0.5)),
    (lambda p: math.inf if p[0] > 1.05 else _bowl(p), (0.3, 0.4, 2.6)),
    (lambda p: math.nan if abs(p[1] - 1.2) < 0.1 else _bowl(p), (0.5, 1.6, 2.9)),
    (lambda p: 1.0, (1.0, 2.0, 3.0)),
    (scalar_objective(_general, 5), (0.4, 2.2, 1.3)),
]
# inf everywhere: scipy's own stop test forms inf - inf once this simplex
# collapses, so the row joins only budgets that end it before that
ALL_INF = (lambda p: math.inf, (0.5, 0.5, 0.5))


def bits(v):
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("maxiter, maxfev", [
    (4000, 1), (4000, 3), (4000, 60), (40, 4000), (4000, 4000)])
def test_mixed_rows_follow_scipy_bit_for_bit(maxiter, maxfev):
    # every row of one batch follows scipy, whether it stops long before the
    # others, meets inf or NaN values, or gets fewer evaluations than its
    # dim + 1 start vertices; under the suite's `error` warning filter no
    # row warns, the inf vertices of a stopped one included
    rows = MIXED + ([ALL_INF] if maxfev <= 60 else [])
    options = {**OPTIONS, "maxiter": maxiter, "maxfev": maxfev}
    seen = set()

    def recorded(f):
        def g(p):
            value = f(p)
            seen.add("finite" if math.isfinite(value) else repr(value))
            return value
        return g

    want = [minimize(recorded(f), x0, method="Nelder-Mead", options=options) for f, x0 in rows]
    got = core._nelder_mead(row_objective([f for f, _ in rows]),
                            np.array([x0 for _, x0 in rows]), **options)
    for i, w in enumerate(want):
        assert (bits(w.x), bits(w.fun), w.nfev, w.success) == (
            bits(got.x[i]), bits(got.fun[i]), got.nfev[i], got.converged[i])
    if maxfev == 4000 == maxiter:
        assert seen == {"finite", "inf", "nan"} and all(w.success for w in want)
        assert max(w.nit for w in want) > 10 * min(w.nit for w in want)


def scipy_bound(n):
    """The measurement-bound search refined by scipy's bounded Brent search
    on the bracket of the first grid's best node, to the same xatol."""
    tables = measurement._ensemble_tables(n, BlochQuadrature())
    h = lambda tm: float(measurement._branch_suprema(tm, tables).sum())
    grid = np.linspace(0.0, np.pi, 64)
    coarse = [h(tm) for tm in grid]
    k = int(np.argmax(coarse))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = minimize_scalar(lambda tm: -h(tm), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-6})
    return max(coarse[k], float(-res.fun))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 25, 100])
def test_grid_refine_reaches_scipy_bounded(n):
    assert abs(measurement.optimal_measurement_bound_numeric(n) - scipy_bound(n)) <= 1e-15
