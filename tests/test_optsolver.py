import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mechfront import analysis, optsolver
from mechfront.instances import GeneratorSpec, gen_random, gen_tradeoff, gen_uniform
from mechfront.model import BudgetExceededError, Instance, MechanismId, makespan
from mechfront.optsolver import (
    EligibilityMask,
    opt_makespan,
    opt_makespan_masked,
)
from oracles import brute_force_makespan, default_frontier_suite


def every_machine(inst):
    """The mask that lets every machine take every task."""
    return EligibilityMask(tuple(frozenset(range(inst.n)) for _ in range(inst.m)))


def test_opt_on_tradeoff_instance():
    inst = gen_tradeoff(3, 1.5)
    value, witness = opt_makespan(inst)
    assert value == 2.0
    assert witness == (0, 1, 2)


def test_opt_trivial_single_machine():
    inst = Instance(((3.0, 1.0, 2.0),))
    value, witness = opt_makespan(inst)
    assert value == 6.0
    assert witness == (0, 0, 0)


def test_opt_prefers_balanced_split():
    inst = Instance(((1.0, 1.0), (1.0, 1.0)))
    value, witness = opt_makespan(inst)
    assert value == 1.0
    assert len(set(witness)) == 2  # one task each


def test_brute_force_budget_refusal():
    inst = gen_random(3, 20, seed=0)  # 3^20 assignments
    with pytest.raises(BudgetExceededError):
        brute_force_makespan(inst)


@pytest.mark.parametrize("seed", range(20))
def test_branch_and_bound_matches_brute_force(seed):
    inst = gen_random(3, 6, seed=seed)
    bb_value, bb_witness = opt_makespan(inst)
    bf_value, _ = brute_force_makespan(inst)
    assert bb_value == bf_value
    # the returned witness must actually achieve the value
    from mechfront.model import makespan

    assert makespan(inst, bb_witness) == bb_value


def test_masked_min_matches_masked_brute_force():
    rng = np.random.default_rng(5)
    for seed in range(10):
        inst = gen_random(3, 5, seed=100 + seed)
        allowed = tuple(
            frozenset(rng.choice(3, size=rng.integers(1, 4), replace=False).tolist())
            for _ in range(inst.m)
        )
        mask = EligibilityMask(allowed)
        v1, w1 = opt_makespan_masked(inst, mask, "min")
        v2, _ = brute_force_makespan(inst, mask, "min")
        assert v1 == v2
        assert all(w1[j] in allowed[j] for j in range(inst.m))


def test_masked_max_matches_masked_brute_force():
    """The worst assignment piles everything it can onto one machine, so a
    closed form covers it; cross-check against exhaustive search anyway."""
    rng = np.random.default_rng(6)
    for seed in range(10):
        inst = gen_random(3, 5, seed=200 + seed)
        allowed = tuple(
            frozenset(rng.choice(3, size=rng.integers(1, 4), replace=False).tolist())
            for _ in range(inst.m)
        )
        mask = EligibilityMask(allowed)
        v1, w1 = opt_makespan_masked(inst, mask, "max")
        v2, _ = brute_force_makespan(inst, mask, "max")
        assert v1 == v2
        from mechfront.model import makespan

        assert makespan(inst, w1) == v1


def test_every_machine_mask_equals_unmasked():
    inst = gen_random(3, 6, seed=77)
    assert opt_makespan_masked(inst, every_machine(inst), "min") == opt_makespan(inst)


def test_mask_rejects_empty_set():
    with pytest.raises(ValueError):
        EligibilityMask((frozenset(), frozenset({0})))


def test_searches_leave_the_instance_as_they_found_it():
    # the prune margin is worked out per search; nothing is kept on the instance
    inst = gen_random(3, 5, 7)
    before = dict(inst.__dict__)
    mask = analysis.achievable_winners(MechanismId.spa(1.5), inst)
    opt_makespan(inst)
    for objective in ("min", "max"):
        opt_makespan_masked(inst, mask, objective)
    assert inst.__dict__ == before


@pytest.mark.parametrize("bad", [1.7, "1", None])
def test_mask_refuses_a_machine_index_that_is_not_an_integer(bad):
    # int() would read 1.7 and '1' as machine 1
    with pytest.raises(ValueError, match="^task 1's eligibility set is not a set of integer "):
        EligibilityMask(({0}, {0, bad}, {1}))


def test_mask_takes_numpy_integers():
    mask = EligibilityMask(([np.int64(0), np.int32(2)], np.arange(2)))
    assert mask.allowed == (frozenset({0, 2}), frozenset({0, 1}))
    assert all(type(i) is int for s in mask.allowed for i in s)


@pytest.mark.parametrize("objective", ["min", "max"])
def test_mask_refusals(objective):
    inst = gen_uniform(2)  # 2 machines, 4 tasks
    short = EligibilityMask((frozenset({0}),) * 3)
    with pytest.raises(ValueError, match="^mask covers 3 tasks, instance has 4$"):
        opt_makespan_masked(inst, short, objective)
    too_high = EligibilityMask((frozenset({0}),) * 2 + (frozenset({0, 2}), frozenset({1})))
    with pytest.raises(ValueError, match="^task 2 allows machine 2, instance has 2$"):
        opt_makespan_masked(inst, too_high, objective)
    # empty sets and negative indices are refused when the mask is built
    with pytest.raises(ValueError, match="^task 1 has a negative machine index$"):
        opt_makespan_masked(inst, EligibilityMask(({0}, {-1, 1}, {0}, {1})), objective)
    with pytest.raises(ValueError, match="^task 3 has an empty eligibility set$"):
        opt_makespan_masked(inst, EligibilityMask(({0}, {1}, {0}, set())), objective)


def test_opt_makespan_builds_no_mask(monkeypatch):
    built = []
    post_init = EligibilityMask.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(EligibilityMask, "__post_init__", counting)
    assert opt_makespan(gen_uniform(3)) == (3.0, (0, 1, 2) * 3)
    assert built == []

    calls = []
    real = analysis.inefficiency

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "inefficiency", counted)
    analysis.frontier_sweep(3, [1.0, 2.0])
    masks = list(built)
    # one mask per distinct (instance, winner sets), built by that pair's one
    # report: 7 of the 8 (alpha, instance) pairs are distinct
    distinct = {(inst, analysis.achievable_winners(MechanismId.spa(a), inst))
                for a in (1.0, 2.0)
                for inst in map(GeneratorSpec.build, default_frontier_suite(3, a))}
    assert len(masks) == len(calls) == len(distinct) == 7
    assert {(args[1], mask) for args, mask in zip(calls, masks)} == distinct


def test_singleton_masks_pin_the_assignment():
    inst = gen_uniform(2)
    mask = EligibilityMask(tuple(frozenset({0}) for _ in range(inst.m)))
    v_min, w = opt_makespan_masked(inst, mask, "min")
    v_max, _ = opt_makespan_masked(inst, mask, "max")
    assert v_min == v_max == float(inst.m)
    assert set(w) == {0}


def test_max_with_sentinels_avoids_them_when_it_can():
    # the slow machine is only eligible where it is fast; max still respects
    # eligibility rather than sentinel values
    inst = gen_tradeoff(3, 1.5)
    mask = every_machine(inst)
    v, w = opt_makespan_masked(inst, mask, "max")
    v_bf, _ = brute_force_makespan(inst, mask, "max")
    assert v == v_bf


# ---------------------------------------------------------------- search order

def search_order_optimum(inst, mask):
    """What the search returns: the load-greedy placement when it is optimal,
    else the first optimal leaf in search order (tasks by decreasing best
    eligible time, machines ascending)."""
    value, _ = brute_force_makespan(inst, mask)
    allowed = [sorted(s) for s in mask.allowed]
    load = [0.0] * inst.n
    greedy = []
    for j in range(inst.m):
        i = min(allowed[j], key=lambda k: load[k] + inst.times[k][j])
        load[i] += inst.times[i][j]
        greedy.append(i)
    if makespan(inst, greedy) == value:
        return value, tuple(greedy)
    order = sorted(range(inst.m),
                   key=lambda j: (-min(inst.times[i][j] for i in allowed[j]), j))
    for choice in itertools.product(*(allowed[j] for j in order)):
        assign = [0] * inst.m
        for j, i in zip(order, choice):
            assign[j] = i
        if makespan(inst, assign) == value:
            return value, tuple(assign)
    raise AssertionError("brute force found no optimal leaf")


def with_every_machine(times):
    inst = Instance(times)
    return inst, every_machine(inst)


@st.composite
def instances_with_repeated_rows(draw):
    """2-4 machines whose rows repeat a few distinct rows, with float entries
    whose sums round (0.1 steps), stay exact but keep the float margin
    (dyadic), or are integers (no margin), zeros among them, and a random
    mask."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, {2: 8, 3: 6, 4: 5}[n]))
    values = draw(st.sampled_from([(0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 1 / 3),
                                   (0.0, 0.25, 0.5, 1.0, 1.5, 2.0),
                                   (0.0, 1.0, 2.0, 3.0, 5.0, 7.0)]))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(values)] * m), min_size=1, max_size=n))
    times = tuple(draw(st.sampled_from(rows)) for _ in range(n))
    if draw(st.booleans()):
        mask = every_machine(Instance(times))
    else:
        machines = st.frozensets(st.integers(0, n - 1), min_size=1)
        mask = EligibilityMask(tuple(draw(machines) for _ in range(m)))
    return Instance(times), mask


@settings(max_examples=300, deadline=None)
@given(instances_with_repeated_rows())
# the root prunes: greedy value at the largest task, with sums that round
@example(with_every_machine(((0.7, 0.1, 0.3), (0.7, 0.3, 0.1))))
# the root prunes: greedy value at the average, with integer sums (no margin)
@example(with_every_machine(((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0))))
# greedy value at the average, with dyadic sums: exact, but the margin stays
@example(with_every_machine(((0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5))))
# greedy 0.6000000000000001 passes the float average test, but sums round and
# a leaf reaches 0.6: the root must not prune
@example(with_every_machine(((0.2, 0.1, 0.2, 0.1, 0.3, 0.3),) * 2))
def test_search_order_value_and_witness(case):
    inst, mask = case
    value, witness = opt_makespan_masked(inst, mask, "min")
    assert (value, witness) == search_order_optimum(inst, mask)
    assert makespan(inst, witness) == value
    assert all(witness[j] in mask.allowed[j] for j in range(inst.m))


def test_search_order_witness_when_sums_round():
    # identical rows whose search-order loads tie while the canonical sums of
    # their completions differ by an ulp: the witness is the first optimal
    # leaf in search order
    row = (0.3, 0.1, 0.5, 0.6, 0.5, 1.1, 0.2)
    inst = Instance((row, row))
    assert opt_makespan(inst) == search_order_optimum(inst, every_machine(inst))
    assert opt_makespan(inst) == (1.7, (1, 1, 0, 1, 1, 0, 1))


@pytest.mark.parametrize("n, m, seed, nodes", [
    (2, 30, 0, 1286), (2, 30, 1, 2330), (3, 12, 2, 450), (4, 8, 1, 106),
])
def test_search_node_count(monkeypatch, n, m, seed, nodes):
    # the smallest budget that lets the search finish is its node count;
    # value and witness tests cannot see a search that visits extra nodes
    inst = gen_random(n, m, seed)
    monkeypatch.setattr(optsolver, "SEARCH_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceededError):
        opt_makespan(inst)
    monkeypatch.setattr(optsolver, "SEARCH_BUDGET", nodes)
    value, witness = opt_makespan(inst)
    assert makespan(inst, witness) == value


@pytest.mark.parametrize("n", [3, 5, 6])
def test_round_robin_witness_on_uniform(n):
    # the greedy placement meets the root average, so the search stops there
    start = time.perf_counter()
    assert opt_makespan(gen_uniform(n)) == (float(n), tuple(range(n)) * n)
    assert time.perf_counter() - start < 1.0


def test_search_node_count_on_integers(monkeypatch):
    # integer entries prune ties (no margin): gen_random(4, 8, 3) times 10
    # takes 43 nodes, against 248 with the 1e-9 margin
    inst = Instance([[round(10 * t) for t in row] for row in gen_random(4, 8, 3).times])
    monkeypatch.setattr(optsolver, "SEARCH_BUDGET", 42)
    with pytest.raises(BudgetExceededError):
        opt_makespan(inst)
    monkeypatch.setattr(optsolver, "SEARCH_BUDGET", 43)
    assert opt_makespan(inst) == (20.0, (1, 3, 2, 0, 0, 2, 1, 1))
    assert opt_makespan(inst) == search_order_optimum(inst, every_machine(inst))


def test_sums_are_exact():
    # one tuple of machine times per task
    assert optsolver._sums_are_exact(list(zip(*gen_uniform(3).times)))
    assert optsolver._sums_are_exact(((2.0 ** 52, 1.0), (1.0, 2.0 ** 52 - 2)))
    # dyadic sums are exact too, but only integers drop the margin
    assert not optsolver._sums_are_exact(((0.5, 0.25), (1.5, 2.0)))
    assert not optsolver._sums_are_exact(((0.1, 0.2), (0.3, 0.4)))
    assert not optsolver._sums_are_exact(((2.0 ** 52, 1.0), (1.0, 2.0 ** 52)))
    assert not optsolver._sums_are_exact(((2.0 ** 53, 1.0), (1.0, 1.0)))
