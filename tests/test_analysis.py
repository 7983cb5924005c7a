import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mechfront import analysis, instances
from mechfront.analysis import (
    CombiPremiseError,
    check_combi,
    check_tech1,
    combi_row_best,
    frontier_sweep,
    inefficiency,
    monotonicity_check,
    anonymity_check,
    probe_matrix,
)
from mechfront.equilibria import (
    Grid,
    achievable_winners,
    canonical_certificate,
    default_grid,
    enumerate_equilibria,
)
from mechfront.instances import (
    GeneratorSpec,
    gen_circulant,
    gen_fp_pos,
    gen_hat,
    gen_random,
    gen_tradeoff,
    gen_uniform,
    regression_suite,
    thm3_hat_image,
)
from mechfront.model import DEFAULT_BIG, BudgetExceededError, Instance, MechanismId, makespan
from mechfront.optsolver import opt_makespan, opt_makespan_masked
from mechfront.rules import rule_for
from oracles import (
    default_frontier_suite,
    enumerate_dense,
    frontier_per_alpha,
    probe_by_ladder,
)

FP = MechanismId.parse("fp")
SP = MechanismId.parse("sp")
SPA2 = MechanismId.parse("spa:2")


# ---------------------------------------------------------------- inefficiency

def test_inefficiency_hat_3_2():
    """The asymmetric 3-machine fixture: the bucket at alpha=2 frees the
    diagonal machines, dropping the best equilibrium to the optimum, while
    narrower mechanisms stay pinned at ratio 2."""
    inst = gen_hat(3, 2.0, "hat")
    r = inefficiency(SPA2, inst)
    assert (r.opt, r.worst_makespan, r.best_makespan) == (2.0, 4.0, 2.0)
    assert r.poa_ratio == 2.0
    assert r.pos_ratio == 1.0
    r = inefficiency(MechanismId.parse("spa:1.5"), inst)
    assert r.poa_ratio == 2.0
    assert r.pos_ratio == 2.0
    r = inefficiency(FP, inst)
    assert r.pos_ratio == 2.0


def test_inefficiency_tilde_3_2():
    inst = gen_hat(3, 2.0, "tilde")
    r = inefficiency(SPA2, inst)
    assert (r.opt, r.worst_makespan) == (1.0, 5.0)
    assert r.poa_ratio == 5.0          # exactly (n-1)*alpha + 1
    assert r.pos_ratio == 1.0
    # the slow machine is outside the alpha=1.5 bucket: nothing bad reachable
    r = inefficiency(MechanismId.parse("spa:1.5"), inst)
    assert r.poa_ratio == 1.0


def test_inefficiency_tilde_3_4_second_price():
    inst = gen_hat(3, 4.0, "tilde")
    r = inefficiency(SP, inst)
    assert r.poa_ratio == 9.0          # sp reaches every non-sentinel machine
    assert r.pos_ratio == 1.0


def test_inefficiency_uniform_and_image():
    for n in (2, 3):
        uni = gen_uniform(n)
        img = thm3_hat_image(n)
        for mid in ("fp", "sp", "spa:2"):
            mech = MechanismId.parse(mid)
            assert inefficiency(mech, uni).poa_ratio >= n
            assert inefficiency(mech, img).poa_ratio >= n


def test_inefficiency_fp_pos():
    inst = gen_fp_pos(3, 0.01)
    r = inefficiency(FP, inst)
    assert r.poa_ratio == r.pos_ratio == pytest.approx(3 / 1.01)
    assert 2.9 <= r.poa_ratio <= 3.0


def test_fp_pos_ratio_increases_as_eps_shrinks():
    eps = 0.01
    prev = 0.0
    for _ in range(4):
        r = inefficiency(FP, gen_fp_pos(3, eps))
        assert r.pos_ratio > prev
        prev = r.pos_ratio
        eps /= 2
    assert prev < 3.0


def test_sp_pos_is_one_on_the_whole_suite():
    for name, inst in regression_suite():
        assert inefficiency(SP, inst).pos_ratio == 1.0, name


def test_inefficiency_divergence():
    # a free task that an equilibrium can still hand to the slower machine
    inst = Instance(((0.0,), (0.1,)))
    r = inefficiency(SP, inst)
    assert r.opt == 0.0
    assert r.worst_makespan == 0.1
    assert r.poa_ratio == math.inf
    assert r.pos_ratio == 1.0


def test_ratio_zero_over_zero_is_one():
    inst = Instance(((0.0,), (0.5,)))
    r = inefficiency(FP, inst)           # fp winner set = argmin = machine 0
    assert r.opt == 0.0
    assert r.poa_ratio == 1.0
    assert r.pos_ratio == 1.0


def test_report_dict_shape():
    d = inefficiency(FP, gen_tradeoff(3, 1.5)).to_dict()
    assert d["mech"] == "fp"
    assert set(d) == {"mech", "opt", "worst_makespan", "best_makespan",
                      "poa_ratio", "pos_ratio", "witnesses"}


# entries whose sums round (0.1 steps, 1/3) or stay exact, zeros and the sentinel
ENTRIES = (0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 1.0, 2.5, DEFAULT_BIG)
MECHS = tuple(MechanismId.parse(s) for s in ("fp", "sp", "spa:1.3", "spa:1.5", "spa:2", "spa:3"))


@st.composite
def inefficiency_cases(draw):
    n = draw(st.integers(2, 4))
    columns = [draw(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n))
               for _ in range(draw(st.integers(1, 5)))]
    # every task needs a machine below the sentinel under sp
    assume(all(min(col) < DEFAULT_BIG for col in columns))
    return draw(st.sampled_from(MECHS)), Instance(tuple(zip(*columns)))


@settings(max_examples=400, deadline=None)
@given(inefficiency_cases())
# the optimum is an equilibrium outcome, and the masked search would pick
# another witness of the same value
@example((SPA2, gen_random(3, 6, 66)))
def test_best_equilibrium_matches_the_masked_search(case):
    mech, inst = case
    mask = achievable_winners(mech, inst)
    value, _ = opt_makespan_masked(inst, mask, "min")
    report = inefficiency(mech, inst)
    assert report.best_makespan.hex() == value.hex()
    best_w = report.witnesses["best"]
    assert all(i in s for i, s in zip(best_w, mask.allowed))
    assert makespan(inst, best_w) == report.best_makespan
    assert inefficiency(mech, inst, opt_makespan(inst)) == report


# ---------------------------------------------------------------- frontier

def test_frontier_sweep_values():
    points = frontier_sweep(3, [1.0, 1.5, 2.0, 4.0])
    assert [p.alpha for p in points] == [1.0, 1.5, 2.0, 4.0]
    for p in points:
        assert p.poa_bound == 2 * p.alpha + 1
        assert p.pos_bound == 2 / p.alpha + 1
        assert p.poa_emp == p.poa_bound        # tilde member meets it exactly
        assert p.pos_emp <= p.pos_bound
    # the hat member just past the reach pins pos_emp at (2 + a + 0.1)/(a + 0.1)
    assert points[0].pos_emp == pytest.approx(3.1 / 1.1)
    assert points[2].pos_emp == pytest.approx(4.1 / 2.1)


def record_sweep(monkeypatch, alphas):
    """frontier_sweep(3, alphas), with each optimum's member and each
    report's (member, alpha) recorded in call order."""
    solved, reported = [], []
    real_opt, real_winners = analysis.opt_makespan, analysis.achievable_winners

    def counting_opt(inst):
        solved.append(inst)
        return real_opt(inst)

    def counting_winners(mech, inst):
        reported.append((inst, mech.alpha))
        return real_winners(mech, inst)

    monkeypatch.setattr(analysis, "opt_makespan", counting_opt)
    monkeypatch.setattr(analysis, "achievable_winners", counting_winners)
    return frontier_sweep(3, alphas), solved, reported


def test_frontier_solves_each_instance_once(monkeypatch):
    alphas = [1.0, 1.5, 2.0, 4.0]
    points, solved, reported = record_sweep(monkeypatch, alphas)
    specs = list(dict.fromkeys(spec for a in alphas for spec in default_frontier_suite(3, a)))
    # one optimum per distinct spec, in the order the alphas first meet them,
    # and no two members are one matrix
    assert solved == [spec.build() for spec in specs]
    assert len(set(solved)) == len(specs) == 2 * len(alphas)
    # one report per (member, alpha), member by member
    assert reported == [(spec.build(), a) for spec in specs
                        for a in alphas if spec in default_frontier_suite(3, a)]
    assert [p.alpha for p in points] == alphas


@pytest.mark.parametrize("n, suite", [(2, None), (3, None), (4, None), (5, None), (3, (
    "tradeoff:n=3,rho=2", "fp_pos:n=3,eps=0.1", "thm3_hat:n=3", "hat:n=3,alpha=1.5"))])
def test_frontier_matches_the_per_alpha_oracle(n, suite):
    alphas = [1.0, 1.3, 2.0, 2.7, 4.0]
    if suite is not None:
        suite = [GeneratorSpec.parse(s) for s in suite]
    assert frontier_sweep(n, alphas, suite) == frontier_per_alpha(n, alphas, suite)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frontier_matches_the_per_alpha_oracle_on_held_out_alphas(n):
    alphas = [3.9, 1.1, 2.3, 1.1]  # caller order, one alpha twice
    assert frontier_sweep(n, alphas) == frontier_per_alpha(n, alphas)


def _gen_free(n: int) -> Instance:
    """n tasks, task i free on machine i and 1 elsewhere: every task's
    minimum is 0, and so is the optimum."""
    return Instance(tuple(tuple(0.0 if i == j else 1.0 for j in range(n)) for i in range(n)))


@st.composite
def mixed_frontier_cases(draw):
    """(n, alphas, suite members as (generator, params)) over the generators
    a `--suite` names, plus `free`, a member whose optimum is 0."""
    n = draw(st.integers(2, 4))
    alphas = draw(st.lists(st.floats(1.0, 5.0), min_size=1, max_size=4))
    params = {
        "random": st.tuples(st.integers(1, n + 2), st.integers(0, 10 ** 6)).map(
            lambda ms: (("m", ms[0]), ("seed", ms[1]))),
        "uniform": st.just(()),
        "tradeoff": st.floats(1.0, 5.0, exclude_min=True).map(lambda rho: (("rho", rho),)),
        "fp_pos": st.floats(0.01, 2.0).map(lambda eps: (("eps", eps),)),
        "thm3_hat": st.just(()),
        "free": st.just(()),
    }
    names = draw(st.lists(st.sampled_from(sorted(params)), min_size=1, max_size=6))
    return n, alphas, [(name, (("n", n),) + draw(params[name])) for name in names]


def assert_sweep_matches_the_oracle(case):
    n, alphas, members = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(instances._BUILDERS, "free", _gen_free)
        suite = [GeneratorSpec(name, params) for name, params in members]
        assert frontier_sweep(n, alphas, suite) == frontier_per_alpha(n, alphas, suite)


# a random member that raises the fp_pos member's worst ratio, at a single alpha
WORST_BOUND_WITNESS = (2, [4.0], [("fp_pos", (("n", 2), ("eps", 0.1))),
                                  ("random", (("n", 2), ("m", 3), ("seed", 1)))])


@settings(max_examples=100, deadline=None)
@given(mixed_frontier_cases())
@example(WORST_BOUND_WITNESS)
@example((3, [2.0, 1.0], [("free", (("n", 3),)), ("thm3_hat", (("n", 3),)),
                          ("free", (("n", 3),))]))
def test_frontier_skips_match_the_per_alpha_oracle_on_mixed_suites(case):
    assert_sweep_matches_the_oracle(case)


def _count_builds(monkeypatch) -> list:
    built = []
    real = GeneratorSpec.build

    def counting(spec):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(GeneratorSpec, "build", counting)
    return built


def test_frontier_builds_each_distinct_spec_once(monkeypatch):
    built = _count_builds(monkeypatch)
    # tilde and the hat past the reach at every alpha, alpha 1 included, and
    # a repeated alpha builds nothing twice
    for alphas in ([1.0, 1.5, 2.0, 4.0], [4.0, 1.0, 4.0, 1.0]):
        built.clear()
        frontier_sweep(3, alphas)
        distinct = {spec for a in alphas for spec in default_frontier_suite(3, a)}
        assert len(built) == len(set(built)) == len(distinct) == 2 * len(set(alphas))
        assert set(built) == distinct
        assert {spec.name for spec in built} == {"tilde", "hat"}


def test_frontier_rejects_bad_args():
    with pytest.raises(ValueError):
        frontier_sweep(1, [2.0])
    with pytest.raises(ValueError):
        frontier_sweep(3, [0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_frontier_refuses_a_non_finite_alpha_before_any_build(monkeypatch, bad):
    # every alpha is read before the loop that builds the members
    built = _count_builds(monkeypatch)
    with pytest.raises(ValueError, match=f"^spa needs a finite alpha >= 1, got {bad}$"):
        frontier_sweep(3, [2.0, bad], [GeneratorSpec.parse("uniform:n=3")])
    assert built == []


def test_frontier_rejects_empty_suite():
    with pytest.raises(ValueError, match="suite is empty"):
        frontier_sweep(3, [2.0], [])


def test_default_frontier_suite_shape():
    # tilde and the hat past the reach, at every alpha
    specs = default_frontier_suite(3, 2.0)
    assert [s.label() for s in specs] == ["tilde:alpha=2,n=3", "hat:alpha=2.1,n=3"]
    specs = default_frontier_suite(3, 1.0)
    assert [s.label() for s in specs] == ["tilde:alpha=1,n=3", "hat:alpha=1.1,n=3"]


def test_a_shared_hat_is_swept_at_the_alpha_it_is_past_the_reach_of(monkeypatch):
    # 1.9 + 0.1 == 2.0: the hat past 1.9's reach is hat(3, 2), swept at 1.9
    # only; 1.1 + 0.1 is 1.2000000000000002, no alpha's own hat
    assert 1.9 + 0.1 == 2.0 and 1.1 + 0.1 != 1.2
    _, _, reported = record_sweep(monkeypatch, [1.9, 2.0])
    assert [a for inst, a in reported if inst == gen_hat(3, 2.0, "hat")] == [1.9]


@st.composite
def dominance_cases(draw):
    """(n, alpha): alpha a float in [1, 100] or 1 + k * 2**-52."""
    alpha = draw(st.one_of(st.floats(1.0, 100.0),
                           st.integers(0, 64).map(lambda k: 1.0 + k * 2.0 ** -52)))
    return draw(st.integers(2, 12)), alpha


@settings(max_examples=200, deadline=None)
@given(dominance_cases())
@example((3, 1.0))
@example((2, 100.0))
def test_the_hat_at_alpha_never_sets_a_maximum(case):
    # why the default suite leaves it out: PoS 1, and a PoA no higher than
    # tilde's at the same alpha
    n, alpha = case
    mech = MechanismId.spa(alpha)
    hat = inefficiency(mech, gen_hat(n, alpha, "hat"))
    assert hat.pos_ratio == 1.0
    assert hat.poa_ratio <= inefficiency(mech, gen_hat(n, alpha, "tilde")).poa_ratio


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.lists(st.one_of(
    st.integers(10, 40).map(lambda k: k / 10), st.floats(1.0, 6.0),
    st.integers(0, 8).map(lambda k: 1.0 + k * 2.0 ** -52)), min_size=1, max_size=5))
@example(3, [1.9, 2.0, 2.1])
@example(4, [1.0, 1.1, 2.9, 3.0])
def test_default_sweep_matches_the_paper_suite_oracle(n, alphas):
    # the oracle sweeps the hat at alpha as well, which never moves a point
    assert frontier_sweep(n, alphas) == frontier_per_alpha(n, alphas)


@pytest.mark.parametrize("n", range(2, 9))
def test_first_price_needs_no_member_of_its_own(n):
    # the sweep at alpha 1 against the suite it swept before tilde and hat
    # took alpha 1: the uniform square and the pair built at 2; tilde at
    # alpha 1 meets first price's worst-case bound n by itself
    old_suite = [GeneratorSpec.parse(s) for s in (
        f"uniform:n={n}", f"tilde:n={n},alpha=2", f"hat:n={n},alpha=2", f"hat:n={n},alpha=1.1")]
    assert frontier_sweep(n, [1.0]) == frontier_sweep(n, [1.0], old_suite)
    assert inefficiency(FP, gen_hat(n, 1.0, "tilde")).poa_ratio == n


# ---------------------------------------------------------------- monotonicity

def test_monotonicity_forward_holds():
    inst = gen_tradeoff(3, 1.5)
    for mid in ("fp", "sp", "spa:2"):
        mech = MechanismId.parse(mid)
        cert = canonical_certificate(mech, inst)
        res = monotonicity_check(mech, inst, cert, trials=50, seed=3)
        assert res.passed
        assert res.trials == 50
        assert res.failures == ()


def test_monotonicity_reverse_fires():
    inst = gen_uniform(2)
    mech = FP
    cert = canonical_certificate(mech, inst)
    res = monotonicity_check(mech, inst, cert, trials=50, seed=3, direction="reverse")
    assert not res.passed
    assert len(res.failures) > 0
    assert res.direction == "reverse"


def test_monotonicity_rejects_bad_direction():
    inst = gen_uniform(2)
    cert = canonical_certificate(FP, inst)
    with pytest.raises(ValueError):
        monotonicity_check(FP, inst, cert, trials=1, seed=0, direction="sideways")


def test_monotonicity_rejects_negative_trials():
    inst = gen_uniform(2)
    cert = canonical_certificate(FP, inst)
    with pytest.raises(ValueError, match="trials must be >= 0, got -1"):
        monotonicity_check(FP, inst, cert, trials=-1, seed=0)
    assert monotonicity_check(FP, inst, cert, trials=0, seed=0) == \
        analysis.MonotonicityResult(True, 0, "forward", ())


def test_monotonicity_check_verifies_each_trial_and_column_through_analysis(monkeypatch):
    """Every (trial, task) pair is one call through the name `analysis`
    imported, with plain-float columns: the truths of that trial and the
    certificate's bids."""
    inst = gen_hat(3, 2.0, "hat")
    cert = canonical_certificate(SPA2, inst)
    calls = []
    real = analysis.verify_equilibrium

    def counting(rule, truth, bids, grid):
        calls.append((truth, bids))
        return real(rule, truth, bids, grid)

    monkeypatch.setattr(analysis, "verify_equilibrium", counting)
    res = monotonicity_check(SPA2, inst, cert, trials=7, seed=1)
    assert res.passed
    assert len(calls) == 7 * inst.m
    columns = list(zip(*cert.profile))
    assert [bids for _, bids in calls] == columns * 7
    assert all(type(x) is float for truth, _ in calls for x in truth)


def test_monotonicity_suite_smoke(monkeypatch):
    monkeypatch.setattr(analysis, "MONOTONICITY_TRIALS", 10)
    fwd = analysis.monotonicity_suite(seed=7)
    assert fwd.passed
    assert fwd.lines[0] == "  uniform-2 fp: 10 trials, 0 failures"
    rev = analysis.monotonicity_suite(seed=7, direction="reverse")
    assert rev.passed                      # reverse "passes" when it finds failures


# ---------------------------------------------------------------- anonymity

def test_anonymity_of_builtin_rules():
    g = Grid(0.1, 4.0)
    vectors = [(1.0, 2.0), (0.5, 1.5)]
    for mid in ("fp", "sp", "spa:2"):
        rule = rule_for(MechanismId.parse(mid), 2)
        res = anonymity_check(rule, vectors, g)
        assert res.passed, mid
        assert res.checked == 4            # 2 vectors x 2 permutations


@dataclass(frozen=True)
class _IndexBiasedRule:
    """Argmin allocation, but only machine 0 ever gets paid (its own bid).
    Winning is worthless for everyone else, so relabeling machines changes
    the equilibrium winner sets: a deliberate anonymity violation."""

    n: int

    def outcome(self, bids):
        w = int(np.argmin(bids))
        return w, (float(bids[0]) if w == 0 else 0.0)

    def batch(self, B):
        B = np.asarray(B, dtype=float)
        w = np.argmin(B, axis=1)
        own = B[np.arange(len(B)), w]
        return w, np.where(w == 0, own, 0.0)


def test_anonymity_negative_control(monkeypatch):
    # the closed-form count refuses a rule it cannot read; the dense scan
    # plays any rule with a `batch` method
    monkeypatch.setattr(analysis, "enumerate_equilibria", enumerate_dense)
    rule = _IndexBiasedRule(2)
    res = anonymity_check(rule, [(1.0, 2.0)], Grid(0.5, 3.0))
    assert not res.passed
    assert res.counterexample is not None


def test_anonymity_refuses_a_bad_true_time():
    with pytest.raises(ValueError, match="^true times must be finite and >= 0, got "):
        anonymity_check(rule_for(MechanismId.fp(), 2), [(1.0, 2.0), (math.nan, 1.0)],
                        Grid(0.5, 3.0))


def test_anonymity_suite_smoke():
    rep = analysis.anonymity_suite()
    assert rep.passed


# ---------------------------------------------------------------- probe

def test_probe_matrix_spa2():
    rule = rule_for(SPA2, 3)
    grid = Grid(0.5, 6.0, anchors=(1.0,))
    a = probe_matrix(rule, grid)
    assert a == ((0.0, 2.0, 2.0), (2.0, 0.0, 2.0), (2.0, 2.0, 0.0))
    limit = (3 - 1) * 2.0 / math.sqrt(2.0) + 1
    assert all(0 < a[i][j] < limit for i in range(3) for j in range(3) if i != j)


def test_probe_matrix_fp_tie_break_asymmetry():
    """fp holds exactly at the fast time -- plus one step when the slow
    machine's lower index lets it keep ties."""
    rule = rule_for(FP, 2)
    assert probe_matrix(rule, Grid(0.5, 3.0, anchors=(1.0,))) == ((0.0, 1.0), (1.5, 0.0))


def test_probe_matrix_sp_saturates_the_grid():
    rule = rule_for(SP, 2)
    assert probe_matrix(rule, Grid(0.5, 2.0)) == ((0.0, 2.0), (2.0, 0.0))


SPA1 = MechanismId.parse("spa:1")


def test_spa_one_is_fp_in_the_rules_and_the_probe():
    """SP_1 is first price: spa:1's rule pays, crowns and reaches as fp's."""
    assert (str(SPA1), str(FP)) == ("spa:1", "fp")
    for bids in [(1.0, 2.0), (2.0, 2.0), (0.5, 0.4, 0.4), (0.3, 0.0, 0.7, 0.1)]:
        n = len(bids)
        low, second = sorted(bids)[:2]
        assert rule_for(SPA1, n).outcome(bids) == rule_for(FP, n).outcome(bids)
        assert rule_for(SPA1, n).pay(low, second) == rule_for(FP, n).pay(low, second) == low
    grid = Grid(0.25, 2.0)
    for n in (2, 3):
        assert probe_matrix(rule_for(SPA1, n), grid) == probe_matrix(rule_for(FP, n), grid)


def _certificate_or_error(mech, inst):
    try:
        return canonical_certificate(mech, inst)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("name, inst", regression_suite())
def test_spa_one_is_fp_on_the_regression_suite(name, inst):
    """Winner sets, grids, enumerated counts, certificates and inefficiency
    reports of spa:1 are fp's; only the mechanism's name differs."""
    assert achievable_winners(SPA1, inst) == achievable_winners(FP, inst)
    grid = default_grid(inst, FP)
    assert default_grid(inst, SPA1).points == grid.points
    for col in zip(*inst.times):
        assert enumerate_equilibria(rule_for(SPA1, inst.n), col, grid).counts == \
            enumerate_equilibria(rule_for(FP, inst.n), col, grid).counts
    assert _certificate_or_error(SPA1, inst) == _certificate_or_error(FP, inst)
    assert replace(inefficiency(SPA1, inst), mech=FP) == inefficiency(FP, inst)


def test_probe_matrix_refuses_past_its_budget(monkeypatch):
    # 3 machines, 6 ordered pairs, a 7-point grid: each bisection over 6 rungs
    # takes at most (6).bit_length() = 3 probes, so 3 * 6 * 3 = 54 winner passes
    calls = []
    monkeypatch.setattr(analysis, "enumerate_equilibria", lambda *a: calls.append(a))
    monkeypatch.setattr(analysis, "PROBE_BUDGET", 53)
    with pytest.raises(BudgetExceededError, match="^54 winner passes of 3-machine ladders "
                                                  "on a 7-point grid exceed the probe budget 53$"):
        probe_matrix(rule_for(FP, 3), Grid(0.5, 3.0))
    assert calls == []


@st.composite
def probe_cases(draw):
    """fp, sp or spa at a lattice or off-lattice alpha in [1, 4], 2..4
    machines, and a grid of 2..16 steps built the way `probe` builds it."""
    mech = draw(st.one_of(
        st.sampled_from([FP, SP]),
        st.integers(10, 40).map(lambda k: MechanismId.spa(k / 10)),
        st.floats(1.0, 4.0).map(MechanismId.spa)))
    eps = draw(st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5, 0.7]))
    grid = default_grid((1.0,), mech, eps, draw(st.integers(2, 16)) * eps)
    return rule_for(mech, draw(st.integers(2, 4))), grid


@settings(max_examples=60, deadline=None)
@given(probe_cases())
def test_probe_matrix_bisects_to_the_full_ladder(case):
    """Each (fast, slow) ladder's wins are a prefix of its rungs, so the
    bisection lands on the largest rung the slow machine wins."""
    rule, grid = case
    assert probe_matrix(rule, grid) == probe_by_ladder(rule, grid)


# ------------------------------------------------------------ inequality checks

def test_check_tech1_basic():
    assert check_tech1(1.0, 1.0, 2.0, 0.5)
    # equality case: x = gamma * y
    x, y, beta, gamma = 0.5, 1.0, 3.0, 0.5
    lhs = (x + beta * y) / max(x, gamma * y)
    assert lhs == beta / gamma + 1
    assert check_tech1(x, y, beta, gamma)


def test_check_tech1_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_tech1(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_tech1(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_tech1(1.0, 1.0, 0.0, 1.0)


def test_tech1_fuzz_suite():
    rep = analysis.tech1_fuzz(seed=5)
    assert rep.passed


def test_combi_row_best_hand_value():
    a = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [2.0, 2.0, 0.0]]
    # row 0 sorted off-diagonal: (1, 3); eps = 1
    assert combi_row_best(a, 0, 1.0) == max(1 / 2.0, 2 / 4.0)


def test_check_combi_on_circulants():
    for n, alpha, delta in ((2, 2.0, 0.9), (3, 2.0, 0.6), (4, 1.5, 0.5), (5, 3.0, 0.4)):
        a = gen_circulant(n, alpha, delta)
        eps = alpha / ((n - 1) * math.sqrt(2))
        ok, row = check_combi(a, alpha, eps)
        assert ok
        assert row is not None


def test_check_combi_premise_errors():
    good = gen_circulant(3, 2.0, 0.6)
    with pytest.raises(CombiPremiseError):
        check_combi([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], 2.0, 0.1)  # not square
    bad_diag = [list(r) for r in good]
    bad_diag[1][1] = 0.5
    with pytest.raises(CombiPremiseError):
        check_combi(bad_diag, 2.0, 0.1)
    bad_off = [list(r) for r in good]
    bad_off[0][1] = 0.0
    with pytest.raises(CombiPremiseError):
        check_combi(bad_off, 2.0, 0.1)
    with pytest.raises(CombiPremiseError):
        check_combi(gen_circulant(3, 2.0, 0.3), 2.0, 0.1)  # column sums too big
    with pytest.raises(CombiPremiseError):
        check_combi(good, 2.0, 0.0)                        # eps out of range
    with pytest.raises(CombiPremiseError):
        check_combi(good, 2.0, 10.0)


def test_circulant_tightness_closed_form():
    """With eps = 0 every subset size gives the same row value, which equals
    (n-1)/(alpha*(sqrt(2)-delta)) -- the quantity the premise bound chases."""
    for n, alpha, delta in ((2, 2.0, 0.9), (3, 2.0, 0.6), (5, 3.0, 0.4)):
        a = gen_circulant(n, alpha, delta)
        want = (n - 1) / (alpha * (math.sqrt(2) - delta))
        assert combi_row_best(a, 0, 0.0) == pytest.approx(want, abs=1e-9)


def test_combi_fuzz_suite():
    rep = analysis.combi_fuzz(seed=5)
    assert rep.passed


# ---------------------------------------------------------------- bucket suite

def test_bucket_equivalence_suite_structure(monkeypatch):
    # tiny cross-check here; the acceptance test runs the full 150 enumerations
    monkeypatch.setattr(analysis, "BUCKET_VECTORS", 3)
    rep = analysis.bucket_equivalence_check(seed=2)
    assert rep.passed
    assert rep.lines == tuple(f"  alpha={a}: 3 vectors checked" for a in analysis.BUCKET_ALPHAS)


def test_verify_suites_registry():
    assert set(analysis.VERIFY_SUITES) == {
        "buckets", "monotonicity", "monotonicity-reverse",
        "anonymity", "tech1", "combi",
    }
