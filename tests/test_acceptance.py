"""Acceptance checks, one per numbered criterion.  Each test prints a single
`criterion NN <tag>: pass` line (visible under pytest -v via -s or in the
captured section) and enforces its runtime budget."""
import math
import time
from dataclasses import dataclass

import numpy as np

from mechfront import analysis, cli, equilibria
from mechfront.analysis import (
    anonymity_check,
    anonymity_suite,
    bucket_equivalence_check,
    combi_fuzz,
    combi_row_best,
    inefficiency,
    monotonicity_suite,
    tech1_fuzz,
)
from mechfront.equilibria import Grid, verify_equilibrium
from mechfront.instances import (
    gen_circulant,
    gen_fp_pos,
    gen_random,
    gen_uniform,
    regression_suite,
    thm3_hat_image,
)
from mechfront.model import Instance, MechanismId
from mechfront.optsolver import EligibilityMask, opt_makespan, opt_makespan_masked
from mechfront.rules import rule_for
from oracles import brute_force_makespan, enumerate_dense

FP = MechanismId.parse("fp")
SP = MechanismId.parse("sp")


def _report(num: int, tag: str, budget_s: float, started: float) -> None:
    elapsed = time.monotonic() - started
    print(f"criterion {num:02d} {tag}: pass ({elapsed:.2f}s / {budget_s:.0f}s budget)")
    assert elapsed < budget_s, f"criterion {num} overran its {budget_s}s budget"


def test_criterion_01_bucket_equivalence():
    t0 = time.monotonic()
    report = bucket_equivalence_check(seed=2024)
    assert report.passed, report.lines
    _report(1, "bucket-equivalence", 120, t0)


def test_criterion_02_reserve_price_bounds():
    t0 = time.monotonic()
    suite = regression_suite()
    assert len(suite) >= 25
    witnessed_pos_2 = witnessed_poa_5 = False
    for alpha in (1.0, 1.5, 2.0, 4.0):
        mech = MechanismId.spa(alpha)
        for name, inst in suite:
            r = inefficiency(mech, inst)
            n = inst.n
            assert r.poa_ratio <= (n - 1) * alpha + 1, (name, alpha, r.poa_ratio)
            assert r.pos_ratio <= (n - 1) / alpha + 1, (name, alpha, r.pos_ratio)
            if name == "hat-3-2" and r.pos_ratio == 2.0:
                witnessed_pos_2 = True
            if name == "tilde-3-2" and r.poa_ratio == 5.0:
                witnessed_poa_5 = True
    assert witnessed_pos_2    # the asymmetric fixture pins pos at exactly 2
    assert witnessed_poa_5    # its tilde analog pins poa at exactly (n-1)*2+1
    _report(2, "reserve-price-bounds", 60, t0)


def test_criterion_03_poa_at_least_n():
    t0 = time.monotonic()
    for n in (2, 3):
        for mid in ("fp", "sp", "spa:2"):
            mech = MechanismId.parse(mid)
            assert inefficiency(mech, gen_uniform(n)).poa_ratio >= n
            assert inefficiency(mech, thm3_hat_image(n)).poa_ratio >= n
    _report(3, "poa-at-least-n", 30, t0)


def test_criterion_04_first_price_positive_times():
    t0 = time.monotonic()
    inst = gen_fp_pos(3, 0.01)
    winners = equilibria.achievable_winners(FP, inst)
    assert all(s == frozenset({0}) for s in winners.allowed)
    r = inefficiency(FP, inst)
    assert r.poa_ratio == r.pos_ratio
    assert 2.9 <= r.poa_ratio <= 3.0
    eps, prev = 0.01, 0.0
    for _ in range(4):
        ratio = inefficiency(FP, gen_fp_pos(3, eps)).pos_ratio
        assert prev < ratio < 3.0
        prev = ratio
        eps /= 2
    _report(4, "first-price-positive", 10, t0)


def test_criterion_05_second_price_extremes():
    t0 = time.monotonic()
    for name, inst in regression_suite():
        assert inefficiency(SP, inst).pos_ratio == 1.0, name
    for eps in (0.1, 0.01):
        inst = Instance(((0.0,), (eps,)))
        rule = rule_for(SP, 2)
        grid = Grid(eps, 1.0, anchors=(1.0,))
        cert = verify_equilibrium(rule, inst.column(0), (1.0, 0.0), grid)
        assert cert.ok                       # slow machine winning is stable
        r = inefficiency(SP, inst)
        assert r.worst_makespan == eps
        assert r.poa_ratio >= 1 / eps        # opt is 0, so the ratio diverges
    _report(5, "second-price-extremes", 10, t0)


def test_criterion_06_monotonicity():
    t0 = time.monotonic()
    fwd = monotonicity_suite(seed=7)
    assert fwd.passed, fwd.lines
    rev = monotonicity_suite(seed=7, direction="reverse")
    assert rev.passed, rev.lines             # passes when it finds >= 1 failure
    _report(6, "monotonicity", 120, t0)


def test_criterion_07_opt_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    for seed in range(100):
        inst = gen_random(3, 6, seed=seed)
        assert opt_makespan(inst)[0] == brute_force_makespan(inst)[0], seed
        allowed = []
        for _ in range(inst.m):
            size = int(rng.integers(1, inst.n + 1))
            allowed.append(frozenset(rng.choice(inst.n, size=size, replace=False).tolist()))
        mask = EligibilityMask(tuple(allowed))
        got = opt_makespan_masked(inst, mask, "max")[0]
        want = brute_force_makespan(inst, mask, "max")[0]
        assert got == want, seed
    _report(7, "opt-oracle", 120, t0)


def test_criterion_08_inequality_checkers():
    t0 = time.monotonic()
    assert tech1_fuzz(seed=13).passed
    assert combi_fuzz(seed=17).passed
    for n, alpha, delta in ((2, 2.0, 0.9), (3, 2.0, 0.6), (4, 1.5, 0.5), (5, 3.0, 0.4)):
        a = gen_circulant(n, alpha, delta)
        want = (n - 1) / (alpha * (math.sqrt(2) - delta))
        assert abs(combi_row_best(a, 0, 0.0) - want) <= 1e-9
    _report(8, "inequality-checkers", 120, t0)


@dataclass(frozen=True)
class _IndexBiasedRule:
    n: int

    def outcome(self, bids):
        w = int(np.argmin(bids))
        return w, (float(bids[0]) if w == 0 else 0.0)

    def batch(self, B):
        B = np.asarray(B, dtype=float)
        w = np.argmin(B, axis=1)
        own = B[np.arange(len(B)), w]
        return w, np.where(w == 0, own, 0.0)


def test_criterion_09_anonymity(monkeypatch):
    t0 = time.monotonic()
    rep = anonymity_suite()                  # fp and spa:2 fixtures, n=2
    assert rep.passed, rep.lines
    # the negative control's rule is no SingleTaskRule: the dense scan plays it
    monkeypatch.setattr(analysis, "enumerate_equilibria", enumerate_dense)
    res = anonymity_check(_IndexBiasedRule(2), [(1.0, 2.0)], Grid(0.5, 3.0))
    assert not res.passed
    assert res.counterexample is not None
    _report(9, "anonymity", 120, t0)


def test_criterion_10_frontier_csv(capsys):
    t0 = time.monotonic()
    code = cli.run(["frontier", "-n", "3", "--alphas", "1,1.5,2,4"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,poa_bound,pos_bound,poa_emp,pos_emp"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[1], r[2]) for r in rows] == [
        ("3", "3"), ("4", "2.33333"), ("5", "2"), ("9", "1.5")]
    for r in rows:
        alpha = float(r[0])
        assert float(r[3]) <= 2 * alpha + 1 + 1e-12
        assert float(r[4]) <= 2 / alpha + 1 + 1e-12
    _report(10, "frontier-csv", 180, t0)
