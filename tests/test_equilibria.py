import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechfront import equilibria
from mechfront.equilibria import (
    ENUMERATION_BUDGET,
    EquilibriumCertificate,
    Grid,
    achievable_winners,
    canonical_certificate,
    default_grid,
    _lattice_index,
    enumerate_equilibria,
    verify_equilibrium,
)
from mechfront.instances import (
    gen_fp_pos,
    gen_hat,
    gen_random,
    gen_tradeoff,
    regression_suite,
    thm3_hat_image,
)
from mechfront.model import DEFAULT_BIG, BudgetExceededError, Instance, MechanismId
from mechfront.rules import SingleTaskRule, rule_for
from oracles import (
    canonical_in_passes,
    enumerate_by_verify,
    enumerate_dense,
    grid_floor,
    grid_index_of,
    on_grid,
    per_machine_scan,
    scalar_outcome,
    utility,
)

FP = MechanismId.parse("fp")
SP = MechanismId.parse("sp")
SPA2 = MechanismId.parse("spa:2")


# ---------------------------------------------------------------- grid

def test_grid_points():
    g = Grid(0.5, 2.0)
    assert list(g.points) == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert len(g) == 5


def test_grid_anchor_replaces_nearest_point():
    # 0.1 * 3 in binary floats is not exactly 0.3; anchoring pins the value
    g = Grid(0.1, 1.0, anchors=(0.30000000000000004,))
    assert 0.30000000000000004 in set(g.points)


def test_grid_rejects_off_grid_anchor():
    with pytest.raises(ValueError):
        Grid(0.1, 1.0, anchors=(1.01,))


def test_grid_rejects_bad_cap():
    with pytest.raises(ValueError):
        Grid(0.5, 1.2)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0)


def test_grid_refuses_more_points_than_the_budget():
    with pytest.raises(BudgetExceededError, match="grid points"):
        Grid(1e-7, 2.0)
    assert len(Grid(1.0, ENUMERATION_BUDGET - 1.0)) == ENUMERATION_BUDGET


def test_grid_rejects_infinite_cap():
    with pytest.raises(ValueError, match="finite"):
        Grid(0.1, float("inf"))


def test_grid_index_of_and_floor():
    g = Grid(0.5, 3.0)
    assert g.index_of(1.5) == 3
    for off in (1.3, -0.5, 3.5, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not on the grid"):
            g.index_of(off)
    assert g.floor(1.3) == 1.0
    assert g.floor(1.5) == 1.5
    assert g.floor(99.0) == 3.0
    # -0.0 is the point 0.0, and floor gives the grid's own +0.0
    assert g.index_of(-0.0) == 0
    assert math.copysign(1.0, g.floor(-0.0)) == 1.0
    # an anchor replaces 3 * 0.1 == 0.30000000000000004 and reads as itself
    anchored = Grid(0.1, 1.0, anchors=(0.3,))
    assert anchored.points[3] == 0.3 != 3 * 0.1
    assert anchored.index_of(0.3) == anchored.index_of(3 * 0.1) == 3
    assert anchored.floor(0.3) == anchored.floor(3 * 0.1) == 0.3
    # 1e308 / 1e-3 overflows to inf: no index, not an OverflowError
    fine = Grid(1e-3, 1.0)
    with pytest.raises(ValueError, match="not on the grid"):
        fine.index_of(1e308)
    assert fine.floor(1e308) == 1.0


def test_grid_points_are_python_floats():
    g = Grid(0.1, 1.0, anchors=(0.3,))  # replaces 3 * 0.1 == 0.30000000000000004
    assert type(g.points) is tuple
    assert all(type(p) is float for p in g.points)
    assert g.points == tuple(0.3 if i == 3 else i * 0.1 for i in range(11))


def test_lattice_index():
    assert _lattice_index(1.0, 0.1) == 10
    assert _lattice_index(0.30000000000000004, 0.1) == 3
    assert _lattice_index(1.01, 0.1) is None
    assert _lattice_index(1.05, 0.1) is None
    assert _lattice_index(0.0, 0.1) == 0  # index 0, not "off the lattice"


LATTICES = ((0.1, 10), (0.25, 4), (1 / 3, 3), (0.5, 2))  # a step and the d of k / d


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def lattice_readings(draw):
    """A grid of step 0.1, 0.25, 1/3 or 0.5, bare or anchored at typed
    decimals k / d, and a value near its lattice: an exact product k * step
    or a typed decimal k / d, shifted by up to 4 ulps or 1e-6 relative."""
    step, d = draw(st.sampled_from(LATTICES))
    top = draw(st.integers(1, 40))
    ks = draw(st.sets(st.integers(0, top), max_size=top + 1)) if draw(st.booleans()) else ()
    grid = Grid(step, draw(st.sampled_from([top * step, top / d])),
                anchors=tuple(k / d for k in sorted(ks)))
    k = draw(st.integers(-2, top + 3))
    base = draw(st.sampled_from([k * step, k / d]))
    if draw(st.booleans()):
        value = _ulps(base, draw(st.integers(-4, 4)))
    else:
        value = base * (1 + draw(st.sampled_from([-1e-6, 1e-6])))
    return grid, value


def _result(f, *args) -> str:
    try:
        return repr(f(*args))
    except ValueError as e:
        return f"ValueError: {e}"


@given(lattice_readings())
@settings(max_examples=600, deadline=None)
def test_lattice_readings_match_the_per_point_readings(case):
    """Away from the 1e-9 band's edge, one reader gives what the readings
    measured from each point gave: `on_grid`, `index_of` and `floor`."""
    grid, value = case
    k = _lattice_index(value, grid.step)
    assert (k is not None) == on_grid(value, grid.step)
    assert k is None or k == round(value / grid.step)
    assert _result(grid.index_of, value) == _result(grid_index_of, grid, value)
    assert _result(grid.floor, value) == _result(grid_floor, grid, value)


def test_the_dust_band_is_centred_on_the_lattice_point():
    # the anchor 0.3 replaces 3 * 0.1 == 0.30000000000000004; 0.299999999 is
    # within 1e-9 of the anchor but not of 3 * 0.1, so it now reads as no index
    g = Grid(0.1, 1.0, anchors=(0.3,))
    assert grid_index_of(g, 0.299999999) == 3
    assert grid_floor(g, 0.299999999) == 0.3
    with pytest.raises(ValueError, match="not on the grid"):
        g.index_of(0.299999999)
    assert g.floor(0.299999999) == 0.2


def test_default_grid_cap_scales_with_alpha():
    inst = gen_tradeoff(3, 1.5)  # largest finite entry 2.0
    assert float(default_grid(inst, FP).points[-1]) == pytest.approx(2.2)
    assert float(default_grid(inst, SPA2).points[-1]) == pytest.approx(4.2)


def test_default_grid_skips_off_grid_entries():
    # 1.01 cannot be anchored on a 0.1 lattice; the grid must still build
    inst = gen_fp_pos(3, 0.01)
    g = default_grid(inst, FP)
    assert 1.0 in set(g.points)
    assert 1.01 not in set(g.points)


def test_default_grid_with_a_cap_anchors_only_entries_up_to_it():
    inst = gen_tradeoff(3, 1.5)  # entries 2.0 and 0.5 below the sentinel
    g = default_grid(inst, FP, 0.5, 1.0)
    assert list(g.points) == [0.0, 0.5, 1.0]
    assert g.anchors == (0.5,)
    assert default_grid(inst, FP, 0.5, 3.0).anchors == (0.5, 2.0)


def test_degenerate_steps_are_refused_without_overflow():
    assert _lattice_index(1.0, 1e-320) is None
    with pytest.raises(ValueError):
        default_grid(gen_tradeoff(3, 1.5), FP, 0.0, 1.0)
    with pytest.raises(BudgetExceededError):
        Grid(1e-320, 4.0)
    with pytest.raises(ValueError):
        Grid(1e-320, -1.0)


def test_default_grid_accepts_plain_vectors():
    g = default_grid((1.0, 1.9, 1000000.0), SPA2)
    assert float(g.points[-1]) == pytest.approx(4.0)  # 2 * 1.9 + 0.2


# ---------------------------------------------------------------- verify

def test_verify_sp_low_bid_shield():
    """Second price, true times (0, 0.1): the fast machine bidding high while
    the slow one bids 0 is still an equilibrium -- the winner is paid 1."""
    rule = rule_for(SP, 2)
    g = Grid(0.1, 2.0)
    res = verify_equilibrium(rule, (0.0, 0.1), (1.0, 0.0), g)
    assert res.ok
    assert bool(res) is True


def test_verify_fp_underwater_bid_fails():
    rule = rule_for(FP, 2)
    g = Grid(0.1, 2.2)
    res = verify_equilibrium(rule, (1.0, 2.0), (0.5, 2.0), g)
    assert not res.ok
    # the best recovery: machine 0 raises to 2.0 and still wins the tie,
    # going from -0.5 to +1.0
    assert res.machine == 0
    assert res.deviation == 2.0
    assert res.gain == pytest.approx(1.5)


def test_verify_sp_truthful():
    rule = rule_for(SP, 3)
    g = Grid(0.1, 4.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = tuple(float(k) * 0.1 for k in rng.integers(0, 41, size=3))
        assert verify_equilibrium(rule, t, t, g).ok


def test_verify_rejects_off_grid_bids():
    rule = rule_for(FP, 2)
    g = Grid(0.1, 2.0)
    with pytest.raises(ValueError):
        verify_equilibrium(rule, (1.0, 2.0), (1.05, 2.0), g)


BAD_TIMES = [math.nan, math.inf, -math.inf, -5.0, -1e-300]


@pytest.mark.parametrize("bad", BAD_TIMES)
@pytest.mark.parametrize("machine", [0, 1])  # the winner, then a loser
def test_verify_refuses_a_bad_true_time(bad, machine):
    truth = [0.3, 0.5]
    truth[machine] = bad
    with pytest.raises(ValueError, match="^true times must be finite and >= 0, got "):
        verify_equilibrium(rule_for(SPA2, 2), truth, (0.3, 0.5), Grid(0.1, 1.0))


@pytest.mark.parametrize("bad", BAD_TIMES)
def test_enumerate_refuses_a_bad_true_time(bad):
    with pytest.raises(ValueError, match="^true times must be finite and >= 0, got "):
        enumerate_equilibria(rule_for(SPA2, 2), (bad, 0.5), Grid(0.1, 1.0))


def test_verify_reads_a_near_grid_bid_as_its_grid_point():
    """A bid within float dust of a grid point is judged as that point: the
    decimals 0.3 and 0.6 stand for the products 3 * 0.1 and 6 * 0.1."""
    rule, g = rule_for(FP, 2), Grid(0.1, 1.0)
    truth, points = (0.1, 0.1), (g.points[3], g.points[6])
    assert points == (0.30000000000000004, 0.6000000000000001)
    res = verify_equilibrium(rule, truth, (0.3, 0.6), g)
    assert res == verify_equilibrium(rule, truth, points, g) == \
        per_machine_scan(rule, truth, points, g)
    assert (res.machine, res.deviation, res.gain) == (0, 0.6000000000000001, 0.30000000000000004)


def test_verify_makes_no_batch_call(monkeypatch):
    """The closed form scores no bid matrix, yet still decides all n * g
    deviations."""
    rule, g = rule_for(SPA2, 3), Grid(0.1, 2.2)
    truth, bids = (1.0, 2.0, 1.5), (1.0, 1.5, 1.5)
    expected = per_machine_scan(rule, truth, bids, g)

    def refuse(self, B):
        raise AssertionError("verify_equilibrium called rule.batch")

    monkeypatch.setattr(SingleTaskRule, "batch", refuse)
    res = verify_equilibrium(rule, truth, bids, g)
    assert res == expected
    assert res.checked_deviations == 3 * len(g)


VERIFY_MECHS = ["fp", "sp", "spa:1", "spa:1.3", "spa:1.5", "spa:2", "spa:3"]
VERIFY_GRID = Grid(0.1, 2.0)
OFF_GRID = (0.0, 0.0, 1e-9, -1e-9, 0.05)
BID_SHIFTS = (0, 0, 0, -3, -1, 1, 3)  # ulps


@st.composite
def verify_cases(draw):
    """(rule, truth, bids, grid) on either the fixed grid, whose points are
    the float products k * 0.1, or `default_grid` anchored at decimal true
    times k / 10.  A true time is a grid value, just off it, or the
    sentinel; under spa:1.3, alpha * x and the plateau's start fall between
    round values.  A bid is a grid point or a few ulps off one that reads as
    that point."""
    n = draw(st.integers(2, 4))
    mech = MechanismId.parse(draw(st.sampled_from(VERIFY_MECHS)))
    anchored = draw(st.booleans())
    truth = []
    for _ in range(n):
        k = draw(st.integers(0, len(VERIFY_GRID) - 1))
        if draw(st.integers(0, 7)) == 0:
            truth.append(DEFAULT_BIG)
        else:
            t = k / 10 if anchored else float(VERIFY_GRID.points[k])
            truth.append(max(0.0, t + draw(st.sampled_from(OFF_GRID))))
    grid = default_grid(truth, mech) if anchored else VERIFY_GRID
    ks = draw(st.lists(st.integers(0, len(grid) - 1), min_size=n, max_size=n))
    bids = []
    for k in ks:
        point = float(grid.points[k])
        bid = _ulps(point, draw(st.sampled_from(BID_SHIFTS)))
        # an anchor at the dust band's edge, such as 1e-9 for the point 0,
        # stays put: a shift could leave the band
        bids.append(bid if _lattice_index(bid, grid.step) == k else point)
    return rule_for(mech, n), tuple(truth), tuple(bids), grid


@given(verify_cases())
@settings(max_examples=600, deadline=None)
def test_verify_matches_per_machine_scan(case):
    """The closed form returns the dense oracle's result on every field:
    verdict, witness machine and bid, gain, deviation count.  The oracle
    scores the grid points that the bids read as."""
    rule, truth, bids, grid = case
    points = tuple(grid.points[grid_index_of(grid, b)] for b in bids)
    assert verify_equilibrium(rule, truth, bids, grid) == \
        per_machine_scan(rule, truth, points, grid)


@given(verify_cases())
@settings(max_examples=200, deadline=None)
def test_verify_takes_arrays_and_lists_alike(case):
    """numpy arrays, numpy scalars and plain lists give one result, repr and
    all: no numpy scalar leaks into the witness."""
    rule, truth, bids, grid = case
    res = verify_equilibrium(rule, list(truth), list(bids), grid)
    assert repr(verify_equilibrium(rule, np.asarray(truth), np.asarray(bids), grid)) == repr(res)
    assert repr(verify_equilibrium(rule, map(np.float64, truth), bids, grid)) == repr(res)


def test_verify_witness_ties_go_to_lowest_machine_then_lowest_bid():
    # machines 0 and 1 (true time 0) each gain 1.5 by bidding anything up to
    # 1.5: they undercut machine 2 and are paid the second price 1.5
    rule = rule_for(SP, 3)
    g = Grid(0.5, 2.0)
    truth, bids = (0.0, 0.0, 1.0), (2.0, 2.0, 1.5)
    res = verify_equilibrium(rule, truth, bids, g)
    assert res == per_machine_scan(rule, truth, bids, g)
    assert (res.machine, res.deviation, res.gain) == (0, 0.0, 1.5)


# ---------------------------------------------------------------- enumerate

def test_enumerate_spa2_matches_bucket():
    rule = rule_for(SPA2, 3)
    g = default_grid((1.0, 1.9, 1000000.0), SPA2)
    res = enumerate_equilibria(rule, (1.0, 1.9, 1000000.0), g)
    assert res.winner_union() == {0, 1}
    assert res.scanned == len(g) ** 3


def test_enumerate_fp_winner_is_always_fastest():
    rule = rule_for(FP, 2)
    g = Grid(0.1, 2.2)
    res = enumerate_equilibria(rule, (1.0, 2.0), g)
    assert res.winner_union() == {0}
    assert len(res) > 0


def test_enumerate_budget_refusal(monkeypatch):
    # the budget bounds the 41 * 42 / 2 = 861 bid pairs of the pay table
    rule = rule_for(SPA2, 3)
    g = Grid(0.1, 4.0)
    monkeypatch.setattr(equilibria, "ENUMERATION_BUDGET", 860)
    with pytest.raises(BudgetExceededError,
                       match="^861 bid pairs of a 41-point grid exceed the enumeration budget 860$"):
        enumerate_equilibria(rule, (1.0, 2.0, 3.0), g)
    monkeypatch.setattr(equilibria, "ENUMERATION_BUDGET", 861)
    assert enumerate_equilibria(rule, (1.0, 2.0, 3.0), g).scanned == 41 ** 3


ORACLE_VECTORS = {
    2: {"on_grid": (1.0, 1.5), "off_grid": (0.7, 1.2), "zero": (0.0, 1.0),
        "zeros": (0.0, 0.0)},
    3: {"on_grid": (1.0, 1.5, 2.0), "off_grid": (0.3, 1.1, 0.8),
        "zero": (0.0, 0.5, 1.0), "runner_up": (1.5, 1.0, 3.0)},
}


@pytest.mark.parametrize("mid, n, kind", [
    (mid, n, kind) for mid in ("fp", "sp", "spa:2") for n, vecs in ORACLE_VECTORS.items()
    for kind in vecs])
def test_enumerate_matches_verify_oracle(mid, n, kind):
    """The vectorized scan keeps exactly the profiles that pass
    verify_equilibrium one at a time: same count, same winners."""
    mech = MechanismId.parse(mid)
    rule = rule_for(mech, n)
    truth = ORACLE_VECTORS[n][kind]
    g = Grid(0.5, 3.0)
    res = enumerate_equilibria(rule, truth, g)
    profiles = enumerate_by_verify(rule, truth, g)
    assert len(res) == len(profiles) > 0
    assert res.winner_union() == {scalar_outcome(mech, p)[0] for p in profiles}


@pytest.mark.parametrize("mid", ["fp", "sp", "spa:3"])
def test_enumerate_peak_memory(mid):
    # the count holds a few len(grid)^2 tables, never the 1.86M profiles
    # that a dense scan of this grid stacks (about 120 MB)
    rule = rule_for(MechanismId.parse(mid), 3)
    g = Grid(0.1, 12.2)
    assert len(g) == 123
    tracemalloc.start()
    try:
        res = enumerate_equilibria(rule, (1.0, 2.0, 3.0), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.scanned == 123 ** 3
    assert peak < 2 * 2 ** 20


def test_enumerate_refuses_duck_typed_rules():
    class Duck:
        n = 2
        id = FP

        def batch(self, B):
            return rule_for(FP, 2).batch(B)

    with pytest.raises(TypeError, match="fp, sp and spa rules only, not Duck"):
        enumerate_equilibria(Duck(), (1.0, 2.0), Grid(0.5, 3.0))


def test_enumerate_counts_past_int64():
    # 5^40 profiles: the per-winner counts are Python ints, exact past 2^63,
    # where len() would overflow
    res = enumerate_equilibria(rule_for(SP, 40), (1.0,) * 40, Grid(0.5, 2.0))
    assert res.scanned == 5 ** 40
    assert all(type(k) is int for k in res.counts)
    assert sum(res.counts) > 2 ** 63
    with pytest.raises(OverflowError):
        len(res)


ENUM_MECHS = ["fp", "sp", "spa:1", "spa:1.5", "spa:2"]
ENUM_MAX_POINTS = {2: 60, 3: 27, 4: 12}  # len(grid)^n stays near 20k or below


@st.composite
def enumerate_cases(draw):
    n = draw(st.integers(2, 4))
    mech = MechanismId.parse(draw(st.sampled_from(ENUM_MECHS)))
    step = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    points = ENUM_MAX_POINTS[n]
    k_max = (points - 3) // 2  # a default grid (cap about 2 * the largest time) still fits
    truth = []
    for _ in range(n):
        kind = draw(st.sampled_from(["on", "on", "off", "zero", "sentinel"]))
        k = draw(st.integers(0, k_max))
        if kind == "on":
            truth.append(k * step)
        elif kind == "off":
            truth.append(max(0.0, k * step + draw(st.sampled_from([1e-9, -1e-9, 0.3 * step]))))
        else:
            truth.append(0.0 if kind == "zero" else 1e6)
    if draw(st.booleans()):
        # machine 0 one step above the fastest of the others: fp's runner-up
        truth[0] = min(truth[1:]) + step
    truth = tuple(truth)
    grid_kind = draw(st.sampled_from(["default", "capped", "bare"]))
    if grid_kind == "default":
        grid = default_grid(truth, mech, step)
    else:
        # caps this low put the second-lowest bid at the top point
        cap = draw(st.integers(1, points - 1)) * step
        grid = default_grid(truth, mech, step, cap) if grid_kind == "capped" else Grid(step, cap)
    return mech, truth, grid


@given(enumerate_cases())
@settings(max_examples=400, deadline=None)
def test_enumerate_matches_dense_scan(case):
    """The closed-form count equals the dense scan's per-machine counts."""
    mech, truth, grid = case
    rule = rule_for(mech, len(truth))
    res = enumerate_equilibria(rule, truth, grid)
    dense = enumerate_dense(rule, truth, grid)
    assert res.counts == dense.counts
    assert res.scanned == dense.scanned
    assert res.winner_union() == dense.winner_union()


# ---------------------------------------------------------------- buckets

def test_achievable_winners_spa_bucket():
    inst = Instance(((1.0,), (1.9,), (5.0,)))
    ws = achievable_winners(SPA2, inst)
    assert ws.allowed[0] == {0, 1}


def test_achievable_winners_bucket_can_cover_everyone():
    inst = Instance(((1.0,), (1.9,), (2.0,)))
    assert achievable_winners(SPA2, inst).allowed[0] == {0, 1, 2}


def test_achievable_winners_fp_argmin_set():
    inst = Instance(((1.0,), (1.0,), (3.0,)))
    assert achievable_winners(FP, inst).allowed[0] == {0, 1}
    assert achievable_winners(MechanismId.parse("spa:1"), inst).allowed[0] == {0, 1}


def test_achievable_winners_sp_excludes_sentinels():
    inst = gen_tradeoff(3, 1.5)
    ws = achievable_winners(SP, inst)
    assert ws.allowed[0] == {0}          # only machine 0 is non-sentinel there
    assert ws.allowed[1] == {0, 1}


def test_bucket_boundary_machine_is_achievable():
    """A machine sitting exactly at alpha * t_min belongs to the winner set:
    cross-check the closed form against exhaustive enumeration."""
    inst = gen_hat(3, 2.0, "hat")
    col = inst.column(0)                 # (2, sentinel, 1): boundary at 2 = 2*1
    ws = achievable_winners(SPA2, inst)
    assert ws.allowed[0] == {0, 2}
    rule = rule_for(SPA2, 3)
    g = default_grid(inst, SPA2)
    assert enumerate_equilibria(rule, col, g).winner_union() == {0, 2}


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_bucket_equivalence_spot_checks(alpha):
    mech = MechanismId.parse(f"spa:{alpha:g}")
    rule = rule_for(mech, 3)
    rng = np.random.default_rng(17)
    for _ in range(5):
        t = tuple(float(k) * 0.1 for k in rng.integers(1, 41, size=3))
        inst = Instance((tuple([x] for x in t)))
        g = default_grid(t, mech)
        enum = enumerate_equilibria(rule, t, g).winner_union()
        assert enum == achievable_winners(mech, inst).allowed[0]


# ---------------------------------------------------------------- templates
# Constructive spa:2 equilibria crowning each member of the bucket
# {i : t_i <= alpha * t_min}.

def test_template_slow_target():
    # the fastest time is bid by the target, everyone else bids its time
    bids = (1.9, 1.0, 1.9)
    rule = rule_for(SPA2, 3)
    w, pay = rule.outcome(bids)
    assert (w, pay) == (1, 1.9)          # paid its own true time, utility 0
    g = Grid(0.1, 6.0)
    assert verify_equilibrium(rule, (1.0, 1.9, 5.0), bids, g).ok


def test_template_tied_fastest_target():
    # a tied-fastest target bids its time, the rest sit one step above
    bids = (1.0, 1.5, 1.5)
    rule = rule_for(SPA2, 3)
    w, pay = rule.outcome(bids)
    assert (w, pay) == (0, 1.5)
    g = Grid(0.5, 6.0)
    assert verify_equilibrium(rule, (1.0, 1.0, 5.0), bids, g).ok


def test_template_higher_index_tied_target():
    bids = (1.5, 1.0, 1.5)
    rule = rule_for(SPA2, 3)
    w, _ = rule.outcome(bids)
    assert w == 1
    assert verify_equilibrium(rule, (1.0, 1.0, 5.0), bids, Grid(0.5, 6.0)).ok


# ---------------------------------------------------------------- certificates

def columns_verify(mech, inst, cert, grid=None, true_times=None) -> bool:
    """Whether every column of a certificate is a grid equilibrium of
    `true_times` (default: the instance's own times)."""
    grid = default_grid(inst, mech) if grid is None else grid
    times = inst.times if true_times is None else true_times
    rule = rule_for(mech, inst.n)
    return all(
        verify_equilibrium(rule, [times[i][j] for i in range(inst.n)],
                           [cert.profile[i][j] for i in range(inst.n)], grid).ok
        for j in range(inst.m)
    )


TRADEOFF_CERTS = {
    "fp": ((2.0, 0.5, 0.5), (2.0, 0.5, 0.5), (2.0, 0.5, 0.5)),
    "sp": ((2.0, 0.5, 0.5), (2.2, 2.0, 2.2), (2.2, 2.2, 2.0)),
    "spa:2": ((2.0, 0.5, 0.5), (4.0, 1.0, 1.0), (4.0, 1.0, 1.0)),
}


@pytest.mark.parametrize("mid", sorted(TRADEOFF_CERTS))
def test_canonical_certificate_on_tradeoff(mid):
    inst = gen_tradeoff(3, 1.5)
    cert = canonical_certificate(MechanismId.parse(mid), inst)
    assert cert.profile == TRADEOFF_CERTS[mid]
    assert cert.winner == (0, 0, 0)


@pytest.mark.parametrize("mid", ["fp", "sp", "spa:2"])
def test_canonical_certificate_handles_off_grid_times(mid):
    # fp_pos entries 1.01 are not 0.1-multiples; losing reports get floored
    inst = gen_fp_pos(3, 0.01)
    mech = MechanismId.parse(mid)
    cert = canonical_certificate(mech, inst)
    assert cert.winner == (0, 0, 0)
    assert columns_verify(mech, inst, cert)


@pytest.mark.parametrize("mid", ["fp", "sp", "spa:2"])
def test_canonical_certificate_losers_bid_grid_points(mid):
    # task 3's fastest time is 1.7000000000000002, and adding the step to it
    # overshoots the grid point 1.8; fp's losers used to bid that sum and the
    # construction failed
    inst = gen_random(3, 4, seed=1)
    mech = MechanismId.parse(mid)
    grid = default_grid(inst, mech)
    cert = canonical_certificate(mech, inst, grid)
    assert columns_verify(mech, inst, cert, grid)
    points = set(grid.points)
    assert all(bid in points for row in cert.profile for bid in row)


def test_canonical_certificate_refuses_a_fastest_time_at_the_grid_top():
    inst = Instance(((2.0,), (1.0,)))  # machine 0 must bid above machine 1
    with pytest.raises(ValueError, match="top grid point"):
        canonical_certificate(FP, inst, Grid(0.5, 1.0))


@pytest.mark.parametrize("mech", [SP, SPA2, FP], ids=str)
def test_canonical_certificate_ties_at_the_grid_top_bid_it(mech):
    # both machines take 0.4, the top point: the tied one bids 0.4 too and
    # needs no point above it
    inst, grid = Instance(((0.4,), (0.4,))), Grid(0.2, 0.4)
    cert = canonical_certificate(mech, inst, grid)
    assert cert == EquilibriumCertificate(((0.4,), (0.4,)), (0,))
    assert cert == canonical_in_passes(mech, inst, grid)
    assert verify_equilibrium(rule_for(mech, 2), (0.4, 0.4), (0.4, 0.4), grid)


def test_canonical_certificate_refuses_spa_on_a_zero_fastest_time():
    # task 2 of thm3_hat(2) is (0, 1): the spa reserve alpha * 0 pays the
    # zero-time winner nothing, so it gains by raising its bid to the loser's
    with pytest.raises(ValueError, match="canonical construction failed for task 2: "
                                         "machine 0 gains 0.1 at bid 0.1"):
        canonical_certificate(SPA2, thm3_hat_image(2))


CERT_MECHS = tuple(map(MechanismId.parse, ("fp", "sp", "spa:1", "spa:1.5", "spa:2", "spa:3")))


@pytest.mark.parametrize("mech", CERT_MECHS, ids=str)
def test_canonical_certificate_matches_the_passes_on_the_regression_suite(mech):
    for name, inst in regression_suite():
        assert _result(canonical_certificate, mech, inst) == \
            _result(canonical_in_passes, mech, inst), name


def _random_entry(rng) -> float:
    """A typed decimal, its float product k * 0.1 (which can differ from it
    by an ulp and then reads as the same grid point), a zero, a sentinel or
    an off-lattice time; few values, so that ties are common."""
    k = int(rng.integers(1, 9))
    return (k / 10, k * 0.1, 0.0, float(DEFAULT_BIG), k / 10 + 0.03)[rng.integers(0, 5)]


def test_canonical_certificate_matches_the_passes_on_random_instances():
    """One pass per column builds the certificate, or the refusal, that the
    three-pass construction built: on default grids, coarse default grids and
    coarse grids whose top is a column's fastest time, bare or anchored."""
    rng = np.random.default_rng(21)
    seen = {"certificate": 0, "top grid point": 0, "dusty tie": 0}
    for _ in range(1500):
        mech = CERT_MECHS[rng.integers(0, len(CERT_MECHS))]
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        inst = Instance(tuple(tuple(_random_entry(rng) for _ in range(m)) for _ in range(n)))
        step = (0.1, 0.2, 0.5)[rng.integers(0, 3)]
        t = min(inst.column(int(rng.integers(0, m))))
        kind, grid = rng.integers(0, 4), None
        if kind == 1:
            grid = default_grid(inst, mech, step)
        elif kind > 1 and t < inst.big and (k := _lattice_index(t, step)):
            grid = Grid(step, k * step) if kind == 2 else default_grid(inst, mech, step, t)
        want = _result(canonical_in_passes, mech, inst, grid)
        assert _result(canonical_certificate, mech, inst, grid) == want, (mech, inst, grid)
        seen["certificate"] += want.startswith("EquilibriumCertificate")
        seen["top grid point"] += "top grid point" in want
        seen["dusty tie"] += any(len(set(col)) > len({round(x, 9) for x in col})
                                 for col in zip(*inst.times))
    assert seen["certificate"] >= 300 and seen["top grid point"] >= 30 and \
        seen["dusty tie"] >= 20, seen


def test_verify_certificate_with_modified_truth():
    inst = gen_tradeoff(3, 1.5)
    cert = canonical_certificate(FP, inst)
    # shrink a won time: still an equilibrium
    easier = [list(r) for r in inst.times]
    easier[0][0] = 1.0
    assert columns_verify(FP, inst, cert, true_times=easier)
    # grow a won time past the payment: the winner now loses money and walks
    harder = [list(r) for r in inst.times]
    harder[0][1] = 3.0
    assert not columns_verify(FP, inst, cert, true_times=harder)


# ---------------------------------------------------------------- composition

def test_per_task_equilibria_compose_and_decompose():
    """Whole-game equilibria are exactly the products of per-task equilibria.

    Brute-forces every full profile on a coarse grid (n=2, m=2) and checks
    every machine's deviations over complete report rows, then compares with
    the column-wise verdicts."""
    inst = Instance(((1.0, 0.5), (0.5, 2.0)), big=100.0)
    mech = SPA2
    rule = rule_for(mech, 2)
    g = Grid(0.5, 2.0)
    pts = [float(x) for x in g.points]

    def game_utility(rows, i):
        return utility(mech, inst, rows, i)

    def is_whole_game_eq(rows):
        for i in range(inst.n):
            here = game_utility(rows, i)
            for dev in itertools.product(pts, repeat=inst.m):
                trial = [list(r) for r in rows]
                trial[i] = list(dev)
                if game_utility(trial, i) > here + 1e-12:
                    return False
        return True

    col_eq = []
    for j in range(inst.m):
        col = tuple(inst.times[i][j] for i in range(inst.n))
        keep = set()
        for bids in itertools.product(pts, repeat=inst.n):
            if verify_equilibrium(rule, col, bids, g).ok:
                keep.add(bids)
        col_eq.append(keep)

    brute = set()
    for b00 in pts:
        for b01 in pts:
            for b10 in pts:
                for b11 in pts:
                    rows = ((b00, b01), (b10, b11))
                    if is_whole_game_eq(rows):
                        brute.add(rows)

    product = {
        ((c0[0], c1[0]), (c0[1], c1[1]))
        for c0 in col_eq[0]
        for c1 in col_eq[1]
    }
    assert brute == product
    assert brute  # sanity: the comparison is not vacuous
