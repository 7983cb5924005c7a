import math

import pytest

from mechfront.model import DEFAULT_BIG, Instance, MechanismId, loads, makespan
from oracles import apply, utility


def test_instance_basic_shape():
    inst = Instance(((1.0, 2.0), (3.0, 4.0)))
    assert inst.n == 2
    assert inst.m == 2
    assert inst.column(1) == (2.0, 4.0)
    assert inst.big == DEFAULT_BIG


def test_instance_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Instance(((1.0, 2.0), (3.0,)))


def test_instance_rejects_negative_times():
    with pytest.raises(ValueError):
        Instance(((1.0, -0.5),))


def test_instance_rejects_empty():
    with pytest.raises(ValueError):
        Instance(())


def test_instance_rejects_zero_tasks():
    with pytest.raises(ValueError, match="need at least one column"):
        Instance(((), ()))


def test_instance_reads_negative_zero_as_zero():
    inst = Instance(((-0.0, 1.0), (1.0, 1.0)))
    assert [math.copysign(1.0, x) for row in inst.times for x in row] == [1.0] * 4
    assert Instance(((1.0, -0.0),)).times == ((1.0, 0.0),)


@pytest.mark.parametrize("row", [
    (1.0, math.nan, 2.0), (math.nan, 1.0), (1.0, math.inf), (2.0, -math.inf, 1.0),
    (1.0, 2.0, -1.0),
])
def test_instance_refuses_any_non_finite_or_negative_entry(row):
    # a NaN inside a row hides from min and max; the row's sum shows it
    with pytest.raises(ValueError, match="entries must be finite and >= 0"):
        Instance((row,))


def test_instance_accepts_finite_entries_whose_sum_overflows():
    inst = Instance(((1e308, 1e308, 1.0), (1.0, 1.0, 1.0)))
    # both 1e308 entries are at or above big, so sentinels; the largest time below big is 1
    assert inst.times[0][:2] == (1e308, 1e308)


def test_sentinel_dominance_guard():
    # big must dominate any feasible makespan: > 2*(n+m)*max_finite
    with pytest.raises(ValueError):
        Instance(((1.0, 2.0), (3.0, 10.0)), big=20.0)
    inst = Instance(((1.0, 2.0), (3.0, 10.0)), big=100.0)
    assert inst.big == 100.0


def test_is_sentinel():
    inst = Instance(((1.0, DEFAULT_BIG),))
    assert not inst.is_sentinel(1.0)
    assert inst.is_sentinel(DEFAULT_BIG)


def test_mechanism_id_parse_roundtrip():
    for s in ("fp", "sp", "spa:2", "spa:1.5"):
        mech = MechanismId.parse(s)
        assert str(mech) == s
        assert MechanismId.parse(str(mech)) == mech


def test_mechanism_id_spa_alpha():
    mech = MechanismId.parse("spa:2")
    assert mech.kind == "spa"
    assert mech.alpha == 2.0
    # alpha is a spa-only concept
    assert MechanismId.parse("fp").alpha is None


def test_mechanism_id_rejects_greedy():
    """The load-greedy baseline is not a task-independent mechanism and is
    not a kind: parsing it fails like any other unknown name."""
    with pytest.raises(ValueError, match="cannot parse mechanism 'greedy'"):
        MechanismId.parse("greedy")
    with pytest.raises(ValueError, match="unknown mechanism kind 'greedy'"):
        MechanismId("greedy")


@pytest.mark.parametrize("bad", ["", "spa", "spa:0", "spa:0.5", "third", "fp:2"])
def test_mechanism_id_rejects_garbage(bad):
    with pytest.raises(ValueError):
        MechanismId.parse(bad)


@pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
def test_mechanism_id_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="finite alpha"):
        MechanismId.spa(alpha)
    with pytest.raises(ValueError, match="finite alpha"):
        MechanismId.parse(f"spa:{alpha}")


def test_loads_and_makespan():
    inst = Instance(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))
    assignment = (0, 1, 0)  # machine 0 takes tasks 0 and 2
    assert loads(inst, assignment) == [4.0, 5.0]
    assert makespan(inst, assignment) == 5.0


def test_makespan_of_outcome():
    inst = Instance(((1.0, 2.0), (3.0, 1.0)))
    assert makespan(inst, (0, 1)) == 1.0
    with pytest.raises(ValueError, match="covers 1 tasks"):
        makespan(inst, (0,))


# The whole game, played by the test oracle (tests/oracles.py) that
# tests/test_equilibria.py checks the per-task equilibria against.

def test_apply_spa_example():
    """One task, three machines bidding 1 / 1.5 / 3 under alpha=2: the
    low bidder wins and is paid min(second-lowest, 2 * own) = 1.5."""
    winner, payments = apply(MechanismId.parse("spa:2"), ((1.0,), (1.5,), (3.0,)))
    assert winner == (0,)
    assert payments == (1.5, 0.0, 0.0)


def test_apply_spa_reserve_binds():
    _, payments = apply(MechanismId.parse("spa:2"), ((1.0,), (3.0,), (4.0,)))
    assert payments[0] == 2.0  # reserve 2*1 < second-lowest 3


def test_apply_fp_pays_own_bid():
    winner, payments = apply(MechanismId.parse("fp"), ((1.0, 2.0), (1.5, 1.0)))
    assert winner == (0, 1)
    assert payments == (1.0, 1.0)


def test_apply_ties_go_to_lowest_index():
    for s in ("fp", "sp", "spa:3"):
        winner, _ = apply(MechanismId.parse(s), ((2.0,), (2.0,), (2.0,)))
        assert winner == (0,)


def test_utility_is_payment_minus_time():
    inst = Instance(((1.0,), (2.0,)))
    prof = ((1.0,), (1.5,))
    mech = MechanismId.parse("fp")
    assert utility(mech, inst, prof, 0) == pytest.approx(0.0)  # paid 1, spent 1
    assert utility(mech, inst, prof, 1) == 0.0  # wins nothing

    mech = MechanismId.parse("sp")
    assert utility(mech, inst, prof, 0) == pytest.approx(0.5)  # paid 1.5


def test_utility_spans_tasks():
    inst = Instance(((1.0, 1.0), (2.0, 2.0)))
    prof = ((1.0, 1.0), (2.0, 2.0))
    # fp: wins both, paid 1 each, spends 1 each
    assert utility(MechanismId.parse("fp"), inst, prof, 0) == pytest.approx(0.0)
    # sp: paid 2 each
    assert utility(MechanismId.parse("sp"), inst, prof, 0) == pytest.approx(2.0)
