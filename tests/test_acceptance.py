"""Acceptance suite: one test per release criterion.

Each criterion prints a PASS/FAIL line (run with -s to watch).  These
run at full replication counts, so the module takes a few minutes.
"""

import math

import numpy as np
import pytest

from conftest import cir_ensemble_finals, cir_mean
from homesale.closed_form import (MarketParams, asymptotic_listed_payoff,
                                  auxiliary_payoff, expected_utility,
                                  listed_payoff, listed_payoff_exact,
                                  thinned_payoff)
from homesale.market_sim import (EvolutionConfig, expected_price_curve,
                                 run_evolution)
from homesale import oracle
from homesale.oracle import (mc_listed_payoff, mc_path_payoff, sigma0_table2_path,
                             table2_context, validate_all)
from homesale.owt import SweepAxis, SweepSpec, sweep_owt
from homesale.path_payoff import (conditional_payoff_changing_list,
                                  conditional_payoff_changing_list_exact,
                                  conditional_payoff_constant_list,
                                  conditional_payoff_no_list)
from homesale.stochastic import CirParams, DemandParams, RatePath

N_MC = 1_000_000
T_GRID = (0.25, 0.5, 1.0, 2.0, 5.0)
LAM_GRID = (1.0, 2.0, 5.0, 8.0, 12.0)
R, L = 140.0, 180.0
SEED = 20240817

# golden-section refinement resolves maximizers to ~1e-4, so weak
# monotonicity over sweep grids is asserted with this slack
T_STAR_SLACK = 1e-3


def table1(lam):
    return MarketParams(lam, 5.0, 0.1, 100.0, 200.0)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}")
    assert ok, f"{name} {detail}"


@pytest.fixture(scope="module")
def auxiliary_estimates():
    """Per (T, lam) cell: the waiting-only oracle at R = p_min and at R,
    both read from one simulation, as mc_auxiliary_payoff would give
    them one at a time."""
    def shared(T, m):
        return oracle._mc_auxiliary(T, m, N_MC, SEED, (m.p_min, R))

    return {(T, lam): shared(T, table1(lam)) for T in T_GRID for lam in LAM_GRID}


def test_criterion_1_auxiliary_oracle_equivalence(auxiliary_estimates):
    worst = 0.0
    for T in T_GRID:
        for lam in LAM_GRID:
            m = table1(lam)
            est = auxiliary_estimates[T, lam][0]
            z = est.z_against(auxiliary_payoff(T, m))
            worst = max(worst, abs(z))
    report("criterion 1: waiting-only payoff vs oracle on 5x5 grid",
           worst <= 3.0, f"max |z| = {worst:.2f}")


def test_criterion_2_thinned_and_listed_oracle_equivalence(auxiliary_estimates):
    worst_thinned = 0.0
    worst_exact = 0.0
    mc_gaps = []
    analytic_gaps = []
    for T in T_GRID:
        for lam in LAM_GRID:
            m = table1(lam)
            est = auxiliary_estimates[T, lam][1]
            worst_thinned = max(worst_thinned,
                                abs(est.z_against(thinned_payoff(T, m, R))))
            est = mc_listed_payoff(T, m, R, L, N_MC, SEED)
            worst_exact = max(worst_exact,
                              abs(est.z_against(listed_payoff_exact(T, m, R, L))))
            plain = listed_payoff(T, m, R, L)
            mc_gaps.append((T, lam, plain - est.mean, est.stderr))
            analytic_gaps.append(plain - listed_payoff_exact(T, m, R, L))
    report("criterion 2a: thinned payoff vs oracle on 5x5 grid",
           worst_thinned <= 3.0, f"max |z| = {worst_thinned:.2f}")
    report("criterion 2b: exact listed payoff vs oracle on 5x5 grid",
           worst_exact <= 3.0, f"max |z| = {worst_exact:.2f}")
    # the plain formula's truncation bias keeps one sign everywhere; the
    # MC gap must agree with that sign wherever it is resolvable
    sign_ok = all(g < 0.0 for g in analytic_gaps)
    resolved = [(g, se) for (_, _, g, se) in mc_gaps if abs(g) > 3.0 * se]
    mc_sign_ok = all(g < 0.0 for g, _ in resolved)
    print("        plain-listed signed gap by (T, lam):")
    for (T, lam, g, se) in mc_gaps:
        print(f"          T={T:<5} lam={lam:<5} gap={g:+.4f} (se {se:.4f})")
    report("criterion 2c: plain listed payoff bias sign constant across grid",
           sign_ok and mc_sign_ok,
           f"{len(resolved)}/25 points resolve the sign at 3 sigma")


def test_criterion_3_asymptote():
    m = table1(5.0)
    asym = asymptotic_listed_payoff(m, L)
    rel = abs(listed_payoff(50.0, m, R, L) - asym) / asym
    ok = rel < 1e-6 and abs(asym - 172.7273) < 5e-5
    report("criterion 3: long-horizon asymptote", ok,
           f"relative gap {rel:.2e}, asymptote {asym:.6f}")


def test_criterion_4_curve_shapes():
    m = table1(5.0)
    grid = np.linspace(0.02, 20.0, 1000)
    no_list = np.array([thinned_payoff(float(T), m, R) for T in grid])
    peak = int(np.argmax(no_list))
    rises_falls = (0 < peak < grid.size - 1
                   and thinned_payoff(1e-8, m, R) < 1e-4
                   and np.all(np.diff(no_list[peak:]) <= 1e-9)
                   and np.all(np.diff(no_list[: peak + 1]) >= -1e-9))
    report("criterion 4a: waiting-only curve rises to an interior peak then decays",
           rises_falls, f"peak at T={grid[peak]:.2f}")

    listed = np.array([listed_payoff(float(T), m, R, L) for T in grid])
    report("criterion 4b: listed curve without impatience is non-decreasing",
           bool(np.all(np.diff(listed) >= -1e-9)))

    utility = np.array([expected_utility(float(T), m, R, L, 0.1) for T in grid])
    upeak = int(np.argmax(utility))
    report("criterion 4c: impatience-discounted utility has an interior maximum",
           0 < upeak < grid.size - 1, f"peak at T={grid[upeak]:.2f}")


def column_monotone(surface, axis, direction, slack=T_STAR_SLACK):
    """Weak monotonicity of t_star along one axis of the sweep surface."""
    diffs = np.diff(surface, axis=axis)
    if direction == "decreasing":
        return bool(np.all(diffs <= slack))
    return bool(np.all(diffs >= -slack))


def test_criterion_5_comparative_statics():
    m = table1(5.0)

    def spec(ax, ay):
        return SweepSpec(ax, ay, m, R, L, 0.1)

    lam_r = sweep_owt(spec(SweepAxis("lam", 1.0, 10.0, 10),
                           SweepAxis("r", 0.02, 0.3, 8)))
    ok_r = column_monotone(lam_r.t_star, axis=0, direction="decreasing")
    report("criterion 5a: waiting time weakly falls in the rate at every intensity",
           ok_r)

    r_low = SweepAxis("r", 0.02, 0.06, 2)
    res_r = sweep_owt(spec(SweepAxis("reservation", 110.0, 175.0, 10), r_low))
    report("criterion 5b: waiting time weakly grows with the reservation price "
           "at low rates",
           column_monotone(res_r.t_star, axis=1, direction="increasing"))

    lam_low = sweep_owt(spec(SweepAxis("lam", 1.0, 10.0, 10), r_low))
    report("criterion 5c: waiting time weakly falls in arrival intensity at low rates",
           column_monotone(lam_low.t_star, axis=1, direction="decreasing"))

    mu_low = sweep_owt(spec(SweepAxis("mu", 1.0, 10.0, 10), r_low))
    report("criterion 5d: waiting time weakly grows with withdrawal intensity "
           "at low rates",
           column_monotone(mu_low.t_star, axis=1, direction="increasing"))


@pytest.fixture(scope="module")
def table2_path():
    return sigma0_table2_path(2.5)


@pytest.fixture(scope="module")
def decaying_list_estimates(table2_path):
    """Per t: the path oracle's changing-list and no-list estimates on
    the decaying-list context, both read from one simulation."""
    ctx = table2_context(table2_path)
    return {t: oracle._mc_path(ctx, t, ("changing", "none"), N_MC, SEED)
            for t in (0.5, 1.0, 2.0)}


def test_criterion_6_constant_list_vs_oracle(table2_path):
    ctx = table2_context(table2_path, constant_list=True)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        est = mc_path_payoff(ctx, t, "constant", N_MC, SEED)
        worst = max(worst, abs(est.z_against(conditional_payoff_constant_list(ctx, t))))
    report("criterion 6a: constant-list conditional payoff vs oracle",
           worst <= 3.0, f"max |z| = {worst:.2f}")


def test_criterion_6_no_list_vs_oracle(table2_path, decaying_list_estimates):
    ctx = table2_context(table2_path)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        est = decaying_list_estimates[t][1]
        worst = max(worst, abs(est.z_against(conditional_payoff_no_list(ctx, t))))
    report("criterion 6b: no-list conditional payoff vs oracle",
           worst <= 3.0, f"max |z| = {worst:.2f}")


def test_criterion_6_changing_specializes_to_constant(table2_path):
    ctx = table2_context(table2_path, constant_list=True)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        a = conditional_payoff_changing_list(ctx, t)
        b = conditional_payoff_constant_list(ctx, t)
        worst = max(worst, abs(a - b) / b)
    report("criterion 6c: changing-list evaluation equals the constant-list "
           "formula under a constant schedule", worst < 1e-10,
           f"max rel diff = {worst:.2e}")


def test_criterion_6_changing_list_vs_oracle(table2_path, decaying_list_estimates):
    """The exact changing-list conditional payoff matches the simulated
    definition.  Offers beat the decaying list at rate
    h(a) = lam(a) (1 - F(L(a))), so the first crossing has density
    h(a) exp(-Int_0^a h); the published formula spreads it with
    lam(a)/Lambda(t) instead and misses badly once crossings matter.
    Its signed gap is printed for each t, as the validation command's
    path-changing-gap rows report it, and is not judged.
    """
    ctx = table2_context(table2_path)
    all_ok = True
    for t in (0.5, 1.0, 2.0):
        analytic = conditional_payoff_changing_list_exact(ctx, t)
        est = decaying_list_estimates[t][0]
        z = est.z_against(analytic)
        ok = abs(z) <= 3.0
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  criterion 6d: changing-list t={t} "
              f"z={z:+.2f} (analytic {analytic:.4f} vs "
              f"mc {est.mean:.4f}+-{est.stderr:.4f})")
        published = conditional_payoff_changing_list(ctx, t)
        print(f"REPORT  criterion 6d: published changing-list t={t} "
              f"gap={published - est.mean:+.4f} z={est.z_against(published):+.2f}")
    report("criterion 6d: exact changing-list conditional payoff vs oracle", all_ok)


def test_criterion_7_regime_difficulty():
    cfg = EvolutionConfig(cir=CirParams(0.25, 0.1, 0.08, 0.09),
                          demand=DemandParams(0.5, 1000.0))
    n_reps = 10_000
    frozen = {}
    for r in (0.05, 0.14):
        path = RatePath(cfg.dt, np.full(4000, r))
        frozen[r] = expected_price_curve(cfg, [1.0], n_reps, seed=SEED, path=path)[0]
    lo, hi = frozen[0.05], frozen[0.14]
    ok = hi.no_sale_fraction > lo.no_sale_fraction and lo.mean_price > hi.mean_price
    report("criterion 7: high-rate regime sells less often and for less", ok,
           f"no-sale {hi.no_sale_fraction:.3f} > {lo.no_sale_fraction:.3f}, "
           f"mean {lo.mean_price:.2f} > {hi.mean_price:.2f} ({n_reps} attempts each)")


def test_criterion_8_evolution_integrity():
    import pathlib

    cfg = EvolutionConfig(cir=CirParams(0.25, 0.1, 0.08, 0.09),
                          demand=DemandParams(0.5, 1000.0))
    runs = [run_evolution(cfg, 50.0, seed=42) for _ in range(2)]
    golden = (pathlib.Path(__file__).parent / "data"
              / "golden_events_seed42.txt").read_text().splitlines()
    identical = (runs[0].to_event_lines() == runs[1].to_event_lines()
                 and runs[0].to_event_lines() == golden)
    report("criterion 8a: fixed-seed 50-year log reproduces its golden "
           "event stream byte for byte", identical, f"{len(runs[0].events)} events")

    # the validation matrix is the one threaded entry point; its rows
    # must not depend on worker count (NaN cells compare equal)
    a = validate_all(n=2000, path_t_values=(), workers=1).to_csv_rows()
    b = validate_all(n=2000, path_t_values=(), workers=2).to_csv_rows()
    same = len(a) == len(b) and all(
        x == y or (isinstance(x, float) and isinstance(y, float)
                   and math.isnan(x) and math.isnan(y))
        for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    report("criterion 8b: validation rows independent of worker count", same)

    log = runs[0]
    reservation = cfg.initial_reservation
    checked = 0
    ok = True
    events = log.events
    for i, e in enumerate(events):
        if e.kind == "OccupationStart":
            reservation = e.price
        elif e.kind == "NoSale":
            next_kinds = [f.kind for f in events[i + 1: i + 3]]
            reprices = [f for f in events[i + 1: i + 3] if f.kind == "Reprice"]
            posts = [f for f in events if f.kind == "PostForSale" and f.time >= e.time]
            if not reprices or "Reprice" not in next_kinds or not posts:
                ok = False
                break
            expected_r = (reservation + cfg.p_min) / 2.0
            if reprices[0].price != expected_r or posts[0].price != reservation:
                ok = False
                break
            reservation = reprices[0].price
            checked += 1
    report("criterion 8c: every failed attempt reprices to (R+p_min)/2 and "
           "relists at the old reservation", ok and checked > 0,
           f"{checked} failed attempts checked")


def test_criterion_9_short_rate_sanity():
    p = CirParams(0.25, 0.1, 0.08, 0.09)
    finals, low = cir_ensemble_finals(p, 10.0, 1.0 / 252.0, 100_000, seed=SEED)
    target = cir_mean(p, 10.0)
    se = finals.std(ddof=1) / math.sqrt(finals.size)
    z = (finals.mean() - target) / se
    ok = abs(z) <= 3.0 and low >= 0.0
    report("criterion 9: short-rate ensemble mean and non-negativity", ok,
           f"mean {finals.mean():.6f} vs {target:.6f} (z={z:+.2f}), min {low:.4f}")
