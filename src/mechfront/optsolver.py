"""Exact makespan optimization by branch-and-bound.

`opt_makespan` minimizes the makespan over all n^m assignments.  The search
orders tasks by decreasing best-case time and prunes a node, the root
included, when

    max(current max load, (sum of loads + sum of remaining per-task minima) / n)

already reaches the incumbent beyond a margin, or when the largest remaining
per-task minimum reaches it.  Candidate values are always re-evaluated by
accumulating each machine's times in ascending task order -- `model.loads`,
which the brute-force oracle in the tests uses too -- so the two solvers
return bit-identical floats.

The margin is 0 when `_sums_are_exact`: every entry is an integer and every
sum of one entry per task stays below 2^53, so every load is exact, and a
leaf's value, an integer at least the exact average, is at least the
average's rounding.  Otherwise it is 1e-9 relative, so a node can never be
cut by summation-order noise alone.  The largest remaining minimum needs no
margin: a float sum of non-negative entries is at least each of them.  No
pruned node holds a leaf strictly below the incumbent, which the search
replaces only on a strict `<`.  The first incumbent is the load-greedy
placement: tasks in index order, each on its least-loaded eligible machine,
the lowest index on ties (a strict `<` over the machines in ascending
order).

The search is depth-first on an explicit stack, so any number of tasks fits;
it raises `BudgetExceededError` past `SEARCH_BUDGET` nodes.

`opt_makespan_masked` restricts each task to an eligibility set (used to
scan the makespans reachable by a mechanism's equilibrium winner sets);
`objective="max"` finds the *worst* reachable makespan instead.  An
`EligibilityMask` holds one frozenset of machine indices per task; it
refuses empty sets, negative indices and any index that is not an integer
when it is built, and equal masks hash alike.  `opt_makespan_masked` checks
the rest against the instance -- one set per task, every index below n --
before it searches.  The masked search's value is the float minimum over the
assignments the mask admits, so when `opt_makespan`'s witness is admitted
the masked minimum is `opt_makespan`'s value, bit for bit;
`analysis.inefficiency` then skips the masked search.  `opt_makespan` builds
no mask: it runs the same search with every machine allowed on every task.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, chain

from .model import BudgetExceededError, Instance, loads

SEARCH_BUDGET = 10 ** 6


@dataclass(frozen=True)
class EligibilityMask:
    """allowed[j] = machines task j may be assigned to (each set nonempty)."""

    allowed: tuple

    def __post_init__(self):
        sets = []
        for j, s in enumerate(self.allowed):
            try:
                s = frozenset(map(operator.index, s))
            except TypeError:
                raise ValueError(f"task {j}'s eligibility set is not a set of integer "
                                 f"machine indices") from None
            if not s:
                raise ValueError(f"task {j} has an empty eligibility set")
            if min(s) < 0:
                raise ValueError(f"task {j} has a negative machine index")
            sets.append(s)
        object.__setattr__(self, "allowed", tuple(sets))

    @property
    def m(self) -> int:
        return len(self.allowed)


def _greedy_placement(times, allowed) -> tuple:
    """Place tasks in index order, each on the machine of `allowed[j]`
    (ascending) whose load stays lowest, the first on ties.  `times` has one
    row per machine; returns the winners and the loads, summed in task order."""
    load = [0.0] * len(times)
    winner = []
    for col, machines in zip(zip(*times), allowed):
        it = iter(machines)
        w = next(it)
        low = load[w] + col[w]
        for i in it:
            grown = load[i] + col[i]
            if grown < low:
                w, low = i, grown
        load[w] = low
        winner.append(w)
    return winner, load


def opt_makespan_masked(inst: Instance, mask: EligibilityMask, objective: str = "min") -> tuple:
    """Best ("min") or worst ("max") makespan over mask-respecting assignments.

    Returns (value, witness assignment).  Ties in the witness are resolved
    deterministically (tasks scanned in a fixed order, machines ascending).
    """
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    if mask.m != inst.m:
        raise ValueError(f"mask covers {mask.m} tasks, instance has {inst.m}")
    n = inst.n
    if max(map(max, mask.allowed)) >= n:
        j, top = next((j, max(s)) for j, s in enumerate(mask.allowed) if max(s) >= n)
        raise ValueError(f"task {j} allows machine {top}, instance has {n}")
    if objective == "max":
        return _masked_max(inst, mask.allowed)
    return _min_search(inst, [sorted(s) for s in mask.allowed])


def _min_search(inst: Instance, allowed=None) -> tuple:
    """Branch-and-bound minimum over assignments with task j on a machine of
    `allowed[j]`, a nonempty ascending sequence of indices below inst.n;
    every machine on every task when `allowed` is None."""
    times = inst.times
    cols = list(zip(*times))
    n, m = len(times), len(cols)
    if allowed is None:
        allowed = [range(n)] * m
        min_time = list(map(min, cols))
    else:
        min_time = [min(map(col.__getitem__, machines))
                    for col, machines in zip(cols, allowed)]
    # biggest best-case tasks first tightens the bound early; the sort is
    # stable, so ties keep ascending task order
    order = sorted(range(m), key=min_time.__getitem__, reverse=True)
    # bounds by depth: the remaining minima's sum (accumulated from the last
    # task back) and their largest, the first of a descending suffix
    suffix_max = [min_time[j] for j in order]
    suffix_sum = list(accumulate(reversed(suffix_max), initial=0.0))[::-1]
    suffix_max.append(0.0)

    best_assign, greedy_loads = _greedy_placement(times, allowed)
    best_val = max(greedy_loads)
    margin = 0.0 if _sums_are_exact(cols) else 1e-9

    # depth-first on a stack of (depth, loads, load sum, max load, machine
    # given task order[depth - 1]): the node popped last at each shallower
    # depth is an ancestor, so `current` holds the path.  Children pop in
    # machine order.
    current = [0] * m
    nodes = 0
    cut = best_val + margin * max(1.0, best_val)
    stack = [(0, [0.0] * n, 0.0, 0.0, 0)]
    while stack:
        depth, load, load_sum, top, machine = stack.pop()
        nodes += 1
        if nodes > SEARCH_BUDGET:
            raise BudgetExceededError(f"branch-and-bound passes {SEARCH_BUDGET} nodes")
        if depth:
            current[order[depth - 1]] = machine
        if (top >= cut or (load_sum + suffix_sum[depth]) / n >= cut
                or suffix_max[depth] >= best_val):
            continue
        if depth == m:
            # canonical re-evaluation: the search accumulated loads in `order`,
            # which can differ from ascending-task sums by an ulp
            val = max(loads(inst, current))
            if val < best_val:
                best_val = val
                best_assign = list(current)
                cut = best_val + margin * max(1.0, best_val)
            continue
        # every load here is below `cut`, so only the grown one can reach it
        j = order[depth]
        col = cols[j]
        for i in reversed(allowed[j]):
            t = col[i]
            grown = load[i] + t
            if grown < cut:
                child = load.copy()
                child[i] = grown
                stack.append((depth + 1, child, load_sum + t,
                              top if top >= grown else grown, i))
    return best_val, tuple(best_assign)


def _masked_max(inst: Instance, allowed) -> tuple:
    """Worst reachable makespan over assignments with task j on a machine of
    the set `allowed[j]`.  It has a closed form: some machine ends up with its
    entire eligible set, and nothing else can beat that.  Witness: give that
    machine everything it may take; park the rest on their lowest eligible."""
    times = inst.times
    full = [0.0] * len(times)  # each machine's eligible set, summed in task order
    for j, machines in enumerate(allowed):
        for i in machines:
            full[i] += times[i][j]
    best_machine = full.index(max(full))  # the first on ties
    assign = [best_machine if best_machine in machines else min(machines)
              for machines in allowed]
    # a parked machine could in principle exceed the full-set machine
    val = max(loads(inst, assign))
    return val, tuple(assign)


def _sums_are_exact(cols) -> bool:
    """Whether every sum of at most one entry per task is exact in floats,
    `cols` holding each task's times: every entry is an integer and the
    largest such sum, the column maxima's, stays below 2^53."""
    return all(map(float.is_integer, chain.from_iterable(cols))) and \
        sum(map(max, cols)) < 2 ** 53


def opt_makespan(inst: Instance) -> tuple:
    """Minimum makespan over all n^m assignments; returns (value, witness)."""
    return _min_search(inst)
