import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechfront.model import MechanismId
from mechfront.optsolver import _greedy_placement
from mechfront.rules import rule_for
from oracles import apply, scalar_outcome, sp_rule, spa_rule

FP = MechanismId.parse("fp")
SP = MechanismId.parse("sp")
SPA2 = MechanismId.parse("spa:2")


def test_fp_rule():
    assert rule_for(FP, 3).outcome((2.0, 1.0, 3.0)) == (1, 1.0)


def test_sp_rule():
    assert rule_for(SP, 3).outcome((2.0, 1.0, 3.0)) == (1, 2.0)


def test_spa_rule_second_price_branch():
    assert rule_for(SPA2, 3).outcome((1.0, 1.5, 3.0)) == (0, 1.5)


def test_spa_rule_reserve_branch():
    assert rule_for(SPA2, 3).outcome((1.0, 3.0, 4.0)) == (0, 2.0)


def test_spa_alpha_one_is_first_price():
    spa1 = MechanismId.parse("spa:1")
    for bids in [(1.0, 2.0), (2.0, 2.0), (0.5, 0.4, 0.4)]:
        n = len(bids)
        assert rule_for(spa1, n).outcome(bids) == rule_for(FP, n).outcome(bids)


def test_ties_break_to_lowest_index():
    assert rule_for(FP, 2).outcome((1.0, 1.0))[0] == 0
    assert rule_for(SP, 3).outcome((2.0, 2.0, 2.0))[0] == 0
    assert rule_for(SPA2, 2).outcome((0.5, 0.5))[0] == 0


def test_losers_paid_nothing():
    """The oracle game pays each machine for the tasks it wins, and `batch`
    picks the same winners column by column."""
    profile = ((1.0, 3.0), (2.0, 1.0))
    for mid in ("fp", "sp", "spa:3"):
        mech = MechanismId.parse(mid)
        winner, payments = apply(mech, profile)
        assert winner == (0, 1)
        assert all(p > 0 for p in payments)
        assert rule_for(mech, 2).batch(np.array(profile).T)[0].tolist() == [0, 1]
    # a machine that wins nothing is paid nothing
    winner, payments = apply(SP, ((1.0, 1.0), (2.0, 2.0)))
    assert winner == (0, 0)
    assert payments == (4.0, 0.0)


def test_outcome_validates_bids():
    rule = rule_for(SP, 2)
    with pytest.raises(ValueError, match="expected 2 bids"):
        rule.outcome((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match=">= 0"):
        rule.outcome((1.0, -0.5))


def test_outcome_refuses_nan_bids():
    rule = rule_for(SP, 2)
    with pytest.raises(ValueError, match=">= 0"):
        rule.outcome((1.0, float("nan")))
    with pytest.raises(ValueError, match=">= 0"):
        rule.outcome((float("nan"), 1.0))


def test_outcome_returns_python_scalars():
    w, pay = rule_for(SPA2, 3).outcome((1.0, 3.0, 4.0))
    assert type(w) is int
    assert type(pay) is float


# The branch-and-bound's first incumbent, optsolver._greedy_placement.

def test_greedy_assigns_in_task_order_to_min_load():
    # equal times: task 0 -> machine 0, then machine 1 is less loaded
    winner, load = _greedy_placement(((1.0, 1.0), (1.0, 1.0)), [range(2)] * 2)
    assert winner == [0, 1]
    assert load == [1.0, 1.0]


def test_greedy_load_comparison_uses_reports():
    # task 1 would lift machine 0 to 6, machine 1 only to 1
    winner, load = _greedy_placement(((1.0, 5.0), (2.0, 1.0)), [range(2)] * 2)
    assert winner == [0, 1]
    assert load == [1.0, 1.0]


def test_greedy_pays_sum_of_winning_reports():
    winner, load = _greedy_placement(((1.0, 1.0, 1.0), (4.0, 4.0, 4.0)), [range(2)] * 3)
    # machine 0 stays the least loaded throughout and takes everything
    assert winner == [0, 0, 0]
    assert load == [3.0, 0.0]


def test_greedy_respects_the_mask():
    # unmasked, task 1 goes to the empty machine 1 (load 0.5); masked out of
    # it, task 1 lands on machine 0 (load 1), not machine 2 (load 2.5)
    times = ((1.0, 1.0, 1.0), (5.0, 0.5, 9.0), (0.5, 2.0, 9.0))
    assert _greedy_placement(times, [range(3)] * 3)[0] == [2, 1, 0]
    winner, load = _greedy_placement(times, [[0, 1, 2], [0, 2], [0, 1, 2]])
    assert winner == [2, 0, 0]
    assert load == [2.0, 0.0, 0.5]


def test_rule_for_needs_two_machines_for_second_price():
    # first price is SP_1, the family's end: alone it too bids the grid top
    for mid in ("sp", "spa:2", "spa:1", "fp"):
        with pytest.raises(ValueError, match=f"^{mid} needs n >= 2$"):
            rule_for(MechanismId.parse(mid), 1)
        with pytest.raises(ValueError, match=f"^{mid} needs n >= 2$"):
            rule_for(MechanismId.parse(mid), 0)


ALL_MECHS = ["fp", "sp", "spa:1.5", "spa:2", "spa:3"]


@pytest.mark.parametrize("mid", ALL_MECHS)
def test_batch_agrees_with_scalar(mid):
    """The batch kernel and `outcome` must be bit-identical to the scalar
    oracle rules."""
    rng = np.random.default_rng(42)
    mech = MechanismId.parse(mid)
    rule = rule_for(mech, 3)
    B = np.round(rng.uniform(0, 4, size=(500, 3)), 1)
    winners, pay = rule.batch(B)
    for row, w, p in zip(B, winners, pay):
        expected = scalar_outcome(mech, tuple(row))
        assert (int(w), float(p)) == expected
        assert rule.outcome(tuple(row)) == expected


@given(st.lists(st.integers(0, 40), min_size=2, max_size=5),
       st.sampled_from([1.0, 1.5, 2.0, 4.0]))
@settings(max_examples=200, deadline=None)
def test_spa_payment_never_exceeds_reserve(ks, alpha):
    bids = tuple(k * 0.1 for k in ks)
    rule = rule_for(MechanismId.spa(alpha), len(bids))
    w, pay = rule.outcome(bids)
    ow, opay = spa_rule(alpha, bids)
    assert (w, pay) == (ow, opay[ow])
    bw, bpay = rule.batch(np.array([bids]))
    assert (int(bw[0]), float(bpay[0])) == (w, pay)
    assert pay <= alpha * bids[w] + 1e-12
    assert bids[w] == min(bids)


@given(st.lists(st.integers(0, 40), min_size=2, max_size=5))
@settings(max_examples=200, deadline=None)
def test_sp_payment_is_second_lowest(ks):
    bids = tuple(k * 0.1 for k in ks)
    rule = rule_for(SP, len(bids))
    w, pay = rule.outcome(bids)
    ow, opay = sp_rule(bids)
    assert (w, pay) == (ow, opay[ow])
    bw, bpay = rule.batch(np.array([bids]))
    assert (int(bw[0]), float(bpay[0])) == (w, pay)
    others = [b for i, b in enumerate(bids) if i != w]
    assert pay == min(others)


@given(st.lists(st.one_of(st.integers(0, 40).map(lambda k: k * 0.1),
                          st.floats(0, 10, allow_subnormal=False)), min_size=2, max_size=5),
       st.sampled_from(["fp", "sp", "spa:1", "spa:1.3", "spa:1.5", "spa:2", "spa:3"]))
@settings(max_examples=300, deadline=None)
def test_pay_matches_scalar_rules_bit_for_bit(bids, mid):
    """`pay(low, second)` is the oracle rules' payment to the winner, to the
    last bit, given the winning bid and the lowest bid among the others."""
    mech = MechanismId.parse(mid)
    w, pay = scalar_outcome(mech, bids)  # fp_rule, sp_rule or spa_rule
    second = min(b for i, b in enumerate(bids) if i != w)
    assert repr(rule_for(mech, len(bids)).pay(bids[w], second)) == repr(pay)


def float_bits(x: float) -> str:
    """The float's exact bits, with -0.0 read as 0.0: numpy's min and
    partition do not say which of two equal zeros they return, and the
    scalar oracle rules differ from each other on it."""
    return (x + 0.0).hex()


OUTCOME_BIDS = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.integers(0, 4).map(lambda k: k * 0.5),
                         st.floats(0, 10, allow_subnormal=False))


@given(st.sampled_from(["fp", "sp", "spa:1.5", "spa:2", "spa:1"]), st.data())
@settings(max_examples=400, deadline=None)
def test_outcome_is_batch_on_one_row(mid, data):
    """`outcome` is `batch` on that one row as (int, float), to the last
    bit, and the scalar oracle rules up to the sign of a zero payment, on
    ties, zeros and -0.0 included."""
    mech = MechanismId.parse(mid)
    n = data.draw(st.integers(2, 6), label="n")
    bids = tuple(data.draw(st.lists(OUTCOME_BIDS, min_size=n, max_size=n), label="bids"))
    w, pay = rule_for(mech, n).outcome(bids)
    assert (type(w), type(pay)) == (int, float)
    bw, bpay = rule_for(mech, n).batch(np.array([bids]))
    ow, opay = scalar_outcome(mech, bids)
    assert (w, pay.hex()) == (int(bw[0]), float(bpay[0]).hex())
    assert (w, float_bits(pay)) == (ow, float_bits(opay))
