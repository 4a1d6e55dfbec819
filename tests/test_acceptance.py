"""Binding acceptance checks, one test and one printed verdict per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the verdict lines on
success; without ``-s`` pytest shows them only when a criterion fails.  The
desk-scale convergence study is shared by the two criteria that need it and
runs once per session.
"""

import time

import numpy as np
import pytest

from switchtaylor import (
    CommutativityRequired,
    DiagonalLinearCoefficients,
    ExperimentPlan,
    GeneratorMatrix,
    GridSpec,
    ModelSpec,
    build_noise,
    fixture,
    run,
)
from switchtaylor import multi_index as mi
from switchtaylor.markov_chain import (
    ChainPath,
    count_jumps,
    pair_jump_martingale,
    sample_path,
)
from switchtaylor.noise import NoisePath, sample_increments
from switchtaylor.schemes import get_scheme, integrate, require_commutativity

from test_multi_index import (
    EULER_KEPT,
    MILSTEIN_DIFFUSION,
    MILSTEIN_DIFFUSION_JUMP,
    MILSTEIN_DRIFT,
    T15_DIFFUSION,
    T15_DIFFUSION_JUMP,
    T15_DIFFUSION_REMAINDER,
    T15_DRIFT,
    T15_DRIFT_JUMP,
    as_tags,
    expand_families,
)
from test_schemes import classical_milstein, classical_taylor15


def _verdict(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    extra = " [%s]" % detail if detail else ""
    print("criterion %d (%s): %s%s" % (num, name, status, extra))
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# 1. scheme-set listings


def test_criterion_1_scheme_set_listings():
    t0 = time.perf_counter()
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(label)

    for m in (2, 4):
        s05 = mi.build_scheme_sets(0.5, m)
        check("0.5 drift at m=%d" % m, as_tags(s05.drift), {()})
        check("0.5 diffusion at m=%d" % m, as_tags(s05.diffusion), {()})
        check("0.5 jump sets at m=%d" % m, (s05.drift_jump, s05.diffusion_jump),
              (frozenset(), frozenset()))

        s10 = mi.build_scheme_sets(1.0, m)
        check("1.0 drift at m=%d" % m, as_tags(s10.drift),
              expand_families(MILSTEIN_DRIFT, m))
        check("1.0 diffusion at m=%d" % m, as_tags(s10.diffusion),
              expand_families(MILSTEIN_DIFFUSION, m))
        check("1.0 drift jump at m=%d" % m, s10.drift_jump, frozenset())
        check("1.0 diffusion jump at m=%d" % m, as_tags(s10.diffusion_jump),
              expand_families(MILSTEIN_DIFFUSION_JUMP, m))

        s15 = mi.build_scheme_sets(1.5, m)
        check("1.5 drift at m=%d" % m, as_tags(s15.drift),
              expand_families(T15_DRIFT, m))
        check("1.5 diffusion at m=%d" % m, as_tags(s15.diffusion),
              expand_families(T15_DIFFUSION, m))
        check("1.5 drift jump at m=%d" % m, as_tags(s15.drift_jump),
              expand_families(T15_DRIFT_JUMP, m))
        check("1.5 diffusion jump at m=%d" % m, as_tags(s15.diffusion_jump),
              expand_families(T15_DIFFUSION_JUMP, m))

        # worked pair: the weight <= 2 hierarchical set at jump threshold 3
        # equals the 1.5 diffusion set, and its remainder matches the listing
        kept = mi.build_hierarchical_set(lambda w: mi.eta(w) <= 2, m, 3)
        check("worked set at m=%d" % m, as_tags(kept),
              expand_families(T15_DIFFUSION, m))
        check("worked remainder at m=%d" % m, as_tags(mi.remainder_set(kept, m, 3)),
              expand_families(T15_DIFFUSION_REMAINDER, m))

    wall = time.perf_counter() - t0
    if wall >= 1.0:
        failures.append("runtime %.2fs not under 1s" % wall)
    _verdict(1, "scheme-set listings", failures, "%.2fs" % wall)


# ---------------------------------------------------------------------------
# 2. index-calculus unit values


def test_criterion_2_index_unit_values():
    failures = []
    w = mi.word(0, "N2", 2, 1, "N3", 0)
    if mi.eta(w) != 9:
        failures.append("eta of the six-letter word is %d, want 9" % mi.eta(w))
    if tuple(mi.counts(w)) != (6, 2, 2, 2, 3):
        failures.append("counts %r, want (6, 2, 2, 2, 3)" % (tuple(mi.counts(w)),))
    if mi.eta(mi.EMPTY_INDEX) != 0:
        failures.append("eta of the empty word is not 0")
    if mi.eta(mi.word(1, "N1")) != 2:
        failures.append("eta((1, N1)) != 2")
    if mi.eta(mi.word("N1", 1, "N1")) != 2:
        failures.append("eta((N1, 1, N1)) != 2")
    _verdict(2, "index-calculus unit values", failures)


# ---------------------------------------------------------------------------
# 3. chain window statistics


def test_criterion_3_chain_window_statistics():
    t0 = time.perf_counter()
    gen = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    qmax, window, paths = 1.0, 0.01, 100_000
    rng = np.random.default_rng(41)
    tail_counts = {1: 0, 2: 0}
    mart_sum = mart_sq = 0.0
    for _ in range(paths):
        chain = sample_path(gen, 1, 0.0, 1.0, rng)
        k = count_jumps(chain, 0.0, window)
        for n in tail_counts:
            tail_counts[n] += k >= n
        v = pair_jump_martingale(gen, chain, 1, 2, 0.0, 1.0)
        mart_sum += v
        mart_sq += v * v

    failures = []
    for n, hits in tail_counts.items():
        emp = hits / paths
        bound = (qmax * window) ** n
        margin = 3.0 * np.sqrt(emp * (1.0 - emp) / paths)
        if emp > bound + margin:
            failures.append(
                "P(N >= %d) = %.3g above %.3g + %.2g" % (n, emp, bound, margin)
            )
    mean = mart_sum / paths
    stderr = np.sqrt(max(mart_sq / paths - mean * mean, 0.0) / paths)
    if abs(mean) > 3.0 * stderr:
        failures.append("martingale mean %.4g beyond 3 x %.4g" % (mean, stderr))
    wall = time.perf_counter() - t0
    if wall >= 30.0:
        failures.append("runtime %.1fs not under 30s" % wall)
    _verdict(3, "chain window statistics", failures, "%.1fs" % wall)


# ---------------------------------------------------------------------------
# 4. noise increment laws


def test_criterion_4_noise_increment_laws():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(99)
    dw, dz = sample_increments(np.ones(1_000_000), 1, rng)
    dw, dz = dw[:, 0], dz[:, 0]
    moments = (
        ("Var(dW)", float(dw.var()), 1.0, 0.005),
        ("Var(dZ)", float(dz.var()), 1.0 / 3.0, 0.003),
        ("Cov(dW, dZ)", float(np.mean(dw * dz) - dw.mean() * dz.mean()), 0.5, 0.005),
    )
    for label, got, want, tol in moments:
        if abs(got - want) > tol:
            failures.append("%s = %.5f outside %.5g +- %g" % (label, got, want, tol))

    # aggregation identities on randomized nested grids: coarse windows are
    # unions of fine intervals, so sums and the documented time-integral
    # composition must reproduce step_aggregates to 1e-12
    for round_ in range(5):
        g = np.random.default_rng(1000 + round_)
        interior = np.sort(g.uniform(0.0, 1.0, int(g.integers(40, 200))))
        times = np.unique(np.concatenate([[0.0], interior, [1.0]]))
        inc_w, inc_z = sample_increments(np.diff(times), 2, g)
        path = NoisePath(times, inc_w, inc_z)
        keep = np.unique(
            np.concatenate([[0, times.size - 1], g.integers(1, times.size - 1, 8)])
        )
        edges = times[keep]
        dw_c, dz_c = path.step_aggregates(edges)
        for i, (lo, hi) in enumerate(zip(keep[:-1], keep[1:])):
            want_w = inc_w[lo:hi].sum(axis=0)
            want_z = np.zeros(2)
            w_run = np.zeros(2)
            for k in range(lo, hi):
                want_z += inc_z[k] + w_run * (times[k + 1] - times[k])
                w_run += inc_w[k]
            if np.max(np.abs(dw_c[i] - want_w)) > 1e-12:
                failures.append("window sums of dW off on round %d" % round_)
                break
            if np.max(np.abs(dz_c[i] - want_z)) > 1e-12:
                failures.append("time-integral composition off on round %d" % round_)
                break
    wall = time.perf_counter() - t0
    if wall >= 30.0:
        failures.append("runtime %.1fs not under 30s" % wall)
    _verdict(4, "noise increment laws", failures, "%.1fs" % wall)


# ---------------------------------------------------------------------------
# 5 and 7 share one desk-scale convergence study


RATE_WINDOWS = {
    "euler": (0.35, 0.65),
    "milstein": (0.8, 1.2),
    "taylor15": (1.25, 1.75),
}


@pytest.fixture(scope="module")
def desk_study():
    plan = ExperimentPlan(
        model=fixture("linear2"),
        schemes=tuple(RATE_WINDOWS),
        t_end=1.0,
        coarse_steps=(16, 32, 64, 128, 256),
        reference_steps=4096,
        paths=10_000,
        seed=93,
    )
    t0 = time.perf_counter()
    reports = run(plan)
    return reports, time.perf_counter() - t0


def test_criterion_5_strong_order_windows(desk_study):
    reports, wall = desk_study
    failures = []
    detail = ["%.0fs" % wall]  # the runtime budget is advisory: record, don't fail
    for name, (lo, hi) in RATE_WINDOWS.items():
        rep = reports[name]
        detail.append("%s %.3f/%.3f" % (name, rep.gamma_hat, rep.r2))
        if not lo <= rep.gamma_hat <= hi:
            failures.append(
                "%s rate %.3f outside [%.2f, %.2f]" % (name, rep.gamma_hat, lo, hi)
            )
        if rep.r2 < 0.95:
            failures.append("%s fit quality %.3f below 0.95" % (name, rep.r2))
    _verdict(5, "strong-order windows", failures, "; ".join(detail))


# ---------------------------------------------------------------------------
# 6. singleton-regime degeneration


def test_criterion_6_singleton_regime_degeneration():
    model = ModelSpec(
        name="singleton",
        generator=GeneratorMatrix(np.array([[0.0]])),
        coefficients=DiagonalLinearCoefficients(a=[[-0.8]], c=[[0.45]]),
        x0=[1.0],
    )
    chain = ChainPath(0.0, 1.0, 1, np.empty(0), np.empty(0, dtype=np.int64))
    grid = GridSpec(0.0, 1.0, 8)
    noise = build_noise(grid, chain, 1, np.random.default_rng(21))
    times = grid.finest_times()
    a = lambda x: -0.8 * x
    ap = lambda x: -0.8
    app = lambda x: 0.0
    bf = lambda x: 0.45 * x
    bp = lambda x: 0.45
    bpp = lambda x: 0.0

    failures = []
    for name in ("milstein", "taylor15"):
        traj = integrate(model, name, chain, noise, times)
        y, worst = 1.0, 0.0
        for n in range(times.size - 1):
            s, t = times[n], times[n + 1]
            dw, dz = (float(x[0, 0]) for x in noise.step_aggregates([s, t]))
            if name == "milstein":
                y = classical_milstein(y, t - s, dw, a, bf, bp)
            else:
                y = classical_taylor15(y, t - s, dw, dz, a, ap, app, bf, bp, bpp)
            worst = max(worst, abs(float(traj.states[n + 1, 0]) - y))
        if worst > 1e-14:
            failures.append("%s departs %.2e from the classical map" % (name, worst))
    _verdict(6, "singleton-regime degeneration", failures)


def test_criterion_7_moment_stability(desk_study):
    reports, _ = desk_study
    failures = []
    detail = []
    for name, rep in reports.items():
        peaks = [row.second_moment_peak for row in rep.rows]
        spread = max(peaks) / min(peaks) - 1.0
        detail.append("%s %.2f%%" % (name, 100.0 * spread))
        if not spread < 0.10:
            failures.append(
                "%s second-moment spread %.1f%% reaches 10%%" % (name, 100.0 * spread)
            )
    _verdict(7, "moment stability across levels", failures, ", ".join(detail))


# ---------------------------------------------------------------------------
# 8. commutativity gate


def test_criterion_8_commutativity_gate():
    failures = []
    bad = fixture("noncommutative")
    good = fixture("diagonal3")
    for name in ("milstein", "taylor15"):
        order = get_scheme(name).commutativity_order
        try:
            require_commutativity(bad, order)
            failures.append("%s accepted the noncommutative fixture" % name)
        except CommutativityRequired:
            pass
        try:
            require_commutativity(good, order)
        except CommutativityRequired:
            failures.append("%s rejected the diagonal fixture" % name)
    _verdict(8, "commutativity gate", failures)
