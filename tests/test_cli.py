import argparse
import json
import subprocess
import sys
import time

import pytest

from mechfront import analysis, cli, equilibria, instances, model, optsolver, rules
from mechfront.analysis import SuiteReport
from mechfront.instances import gen_random, gen_tradeoff, gen_uniform
from mechfront.model import DEFAULT_BIG, makespan
import stdout_corpus

FRONTIER_ARGS = ["frontier", "-n", "3", "--alphas", "1,1.5,2,4"]


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def tradeoff_file(tmp_path):
    path = tmp_path / "tradeoff.json"
    instances.save_instance(gen_tradeoff(3, 1.5), str(path))
    return str(path)


# ---------------------------------------------------------------- opt

def test_opt_plain(capsys, tradeoff_file):
    code, out, _ = run_cli(capsys, "opt", "-i", tradeoff_file)
    assert code == 0
    data = json.loads(out)
    assert data["opt"] == 2.0
    assert data["witness"] == [0, 1, 2]


def test_opt_masked_max(capsys, tradeoff_file):
    code, out, _ = run_cli(capsys, "opt", "-i", tradeoff_file,
                           "--mech", "sp", "--objective", "max")
    assert code == 0
    data = json.loads(out)
    assert data["mech"] == "sp"
    assert data["value"] == 3.0        # all three tasks dumped on machine 0
    assert data["witness"] == [0, 0, 0]


def test_opt_refuses_zero_task_instance(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"times": [[], []], "big": 1000000.0}))
    code, out, err = run_cli(capsys, "opt", "-i", str(path))
    assert code == 2
    assert out == ""
    assert "error: times: need at least one column" in err


@pytest.mark.parametrize("verb", ["equilibria", "analyze"])
def test_infinite_alpha_refused(capsys, tradeoff_file, verb):
    code, out, err = run_cli(capsys, verb, "-i", tradeoff_file, "--mech", "spa:inf")
    assert code == 2
    assert out == ""
    assert "error:" in err and "finite alpha" in err


def test_oversized_grid_refused(capsys, tradeoff_file):
    code, _, err = run_cli(capsys, "equilibria", "-i", tradeoff_file,
                           "--mech", "fp", "--grid", "1e-7,2")
    assert code == 3
    assert "budget refused" in err


def tenths(m):
    return [0.1 * (j % 7 + 1) for j in range(m)]


def test_opt_deep_search(capsys, tmp_path):
    # one search level per task: the all-ones instance meets the root bound
    # and stops there; the 0.1-step ones search every level down to the greedy
    # value, which no leaf beats, so the greedy witness stays
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps({"times": [[1.0] * 1200], "big": 1e7}))
    code, out, _ = run_cli(capsys, "opt", "-i", str(ones))
    assert code == 0
    assert json.loads(out) == {"opt": 1200.0, "witness": [0] * 1200}

    for times, big in (([tenths(1200)], 1e7), ([tenths(3000), [5000.0] * 3000], 1e8)):
        path = tmp_path / "tenths.json"
        path.write_text(json.dumps({"times": times, "big": big}))
        code, out, err = run_cli(capsys, "opt", "-i", str(path))
        assert (code, err) == (0, "")
        greedy = makespan(instances.load_instance(str(path)), [0] * len(times[0]))
        assert json.loads(out) == {"opt": float(f"{greedy:.6g}"), "witness": [0] * len(times[0])}


def test_opt_search_budget_refused(capsys, tmp_path, monkeypatch):
    path = tmp_path / "random.json"
    instances.save_instance(gen_random(2, 80, seed=0), str(path))
    monkeypatch.setattr(optsolver, "SEARCH_BUDGET", 10 ** 4)
    code, out, err = run_cli(capsys, "opt", "-i", str(path))
    assert code == 3
    assert out == ""
    assert err == "budget refused: branch-and-bound passes 10000 nodes\n"


@pytest.mark.parametrize("objective", ["min", "max"])
def test_opt_objective_needs_mech(capsys, tradeoff_file, objective):
    code, out, err = run_cli(capsys, "opt", "-i", tradeoff_file, "--objective", objective)
    assert (code, out, err) == (2, "", "error: --objective needs --mech\n")


def test_opt_missing_file(capsys):
    code, _, err = run_cli(capsys, "opt", "-i", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_unreadable_instance_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", "-i", str(tmp_path), "--mech", "spa:2")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


# ---------------------------------------------------------------- equilibria

def test_equilibria_default_grid(capsys, tradeoff_file):
    code, out, _ = run_cli(capsys, "equilibria", "-i", tradeoff_file, "--mech", "spa:2")
    assert code == 0
    data = json.loads(out)
    assert data["mech"] == "spa:2"
    assert data["eps"] == 0.1
    assert data["cap"] == pytest.approx(4.2)
    assert [row["task"] for row in data["tasks"]] == [0, 1, 2]
    assert data["tasks"][0]["winners"] == [0]
    assert all(row["profiles"] > 0 for row in data["tasks"])


def test_equilibria_explicit_grid_and_task(capsys, tradeoff_file):
    code, out, _ = run_cli(capsys, "equilibria", "-i", tradeoff_file,
                           "--mech", "fp", "--task", "0", "--grid", "0.5,3")
    assert code == 0
    data = json.loads(out)
    assert data["eps"] == 0.5
    assert data["cap"] == 3.0
    assert len(data["tasks"]) == 1
    assert data["tasks"][0]["winners"] == [0]


@pytest.mark.parametrize("argv, message", [
    (("frontier", "-n", "3", "--alphas", "2,,3"), "--alphas: not a number: ''"),
    (("frontier", "-n", "3", "--alphas", "1,x"), "--alphas: not a number: 'x'"),
    (("equilibria", "-i", None, "--mech", "fp", "--grid", "0.1,x"),
     "--grid: not a number: 'x'"),
    # a long item is echoed cut short
    (("frontier", "-n", "3", "--alphas", "1," + "9" * 5000 + "x"),
     "--alphas: not a number: '999999999999...999999999999x'"),
    (("equilibria", "-i", None, "--mech", "fp", "--grid", "0.1," + "9" * 5000 + "x"),
     "--grid: not a number: '999999999999...999999999999x'"),
], ids=["alphas-empty", "alphas-x", "grid-x", "alphas-long", "grid-long"])
def test_a_number_flag_names_itself_and_the_bad_item(capsys, tradeoff_file, argv, message):
    argv = [tradeoff_file if a is None else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err) < 100


LONG = "x" * 5000
BIG = "9" * 401


@pytest.mark.parametrize("argv, echo", [
    (("probe", "--mech", "fp", "-n", "3", "--eps", LONG),
     "argument --eps: invalid float value: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (("frontier", "-n", LONG, "--alphas", "2"),
     "argument -n: invalid int value: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (("opt", "-i", LONG), "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (("gen", "uniform", "n=3", "-o", LONG), "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (("gen", "uniform", "n=3", LONG + "=1", "-o", "x.json"),
     "got an unexpected keyword argument 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (("frontier", "-n", "3", "--alphas", "2", "--suite", f"uniform:n=3,{LONG}=1"),
     "got an unexpected keyword argument 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (("verify", "--suite", LONG), "argument --suite: invalid choice: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (("opt", "-i", "x", "--objective", LONG),
     "argument --objective: invalid choice: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ((LONG,), "argument verb: invalid choice: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (("equilibria", "-i", None, "--mech", "fp", "--task", BIG),
     "error: task 999999999999999999...9999999999999999999 out of range"),
    (("verify", "--seed", "-" + BIG),
     "error: --seed must be >= 0, got -99999999999999999...9999999999999999999"),
], ids=["probe-eps", "frontier-n", "opt-i", "gen-o", "gen-key", "frontier-suite-key",
        "verify-suite", "opt-objective", "verb", "equilibria-task", "verify-seed"])
def test_a_long_value_is_echoed_cut_short(capsys, tradeoff_file, argv, echo):
    code, out, err = run_cli(capsys, *[tradeoff_file if a is None else a for a in argv])
    assert (code, out) == (2, "")
    assert echo in err
    assert max(map(len, err.splitlines())) < 300


@pytest.mark.parametrize("argv, echo", [
    (("probe", "--mech", "fp", "-n", BIG),
     "budget refused: 299999999999999999...9999999999999999994 winner passes of "
     "999999999999999999...9999999999999999999-machine ladders"),
    (("gen", "uniform", f"n={BIG}", "-o", "x.json"),
     "budget refused: 999999999999999999...9999999999999999999 x "
     "999999999999999999...0000000000000000001 = 999999999999999999...9999999999999999999 "
     "entries"),
    (("gen", "random", f"n={BIG}", "m=2", "seed=1", "-o", "x.json"),
     "budget refused: 999999999999999999...9999999999999999999 x 2 = "
     "199999999999999999...9999999999999999998 entries"),
    (("frontier", "-n", BIG, "--alphas", "2"),
     ": 999999999999999999...9999999999999999999 x 999999999999999999...9999999999999999999 = "
     "999999999999999999...0000000000000000001 entries"),
    (("equilibria", "-i", None, "--mech", "spa:1e300"),
     "budget refused: 200000000000000010...7737309188010803200 grid points"),
], ids=["probe-n", "gen-uniform-n", "gen-random-n", "frontier-n", "equilibria-alpha"])
def test_a_long_count_is_echoed_cut_short(capsys, tradeoff_file, argv, echo):
    code, out, err = run_cli(capsys, *[tradeoff_file if a is None else a for a in argv])
    assert (code, out) == (3, "")
    assert echo in err
    assert max(map(len, err.splitlines())) < 300


@pytest.mark.parametrize("argv, echo", [
    (("verify", "--suite", "bogus"), "argument --suite: invalid choice: 'bogus'"),
    (("bogus",), "argument verb: invalid choice: 'bogus'"),
    (("probe", "--mech", "fp", "-n", "x"), "argument -n: invalid int value: 'x'"),
])
def test_a_short_bad_value_reads_as_argparse_prints_it(capsys, monkeypatch, argv, echo):
    ours = run_cli(capsys, *argv)
    assert echo in ours[2]
    monkeypatch.setattr(cli._Parser, "_get_values", argparse.ArgumentParser._get_values)
    assert run_cli(capsys, *argv) == ours


def test_equilibria_malformed_grid(capsys, tradeoff_file):
    code, _, err = run_cli(capsys, "equilibria", "-i", tradeoff_file,
                           "--mech", "fp", "--grid", "0.5")
    assert code == 2
    assert "--grid" in err


def test_equilibria_task_out_of_range(capsys, tradeoff_file):
    code, _, err = run_cli(capsys, "equilibria", "-i", tradeoff_file,
                           "--mech", "fp", "--task", "9")
    assert code == 2
    assert "out of range" in err


def test_equilibria_greedy_refused(capsys, tradeoff_file):
    code, _, err = run_cli(capsys, "equilibria", "-i", tradeoff_file, "--mech", "greedy")
    assert code == 2
    assert "greedy" in err


def test_equilibria_anchors_one_of_two_entries_near_a_grid_point(capsys, tmp_path):
    # both entries are within float dust of the grid point 0.1
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"times": [[0.099999999], [0.100000001]], "big": 1e6}))
    code, out, err = run_cli(capsys, "equilibria", "-i", str(path), "--mech", "fp")
    assert (code, err) == (0, "")
    assert json.loads(out)["tasks"][0]["winners"]


def test_equilibria_budget_refused(capsys, tmp_path, monkeypatch):
    path = tmp_path / "u.json"
    instances.save_instance(gen_uniform(3), str(path))
    # the budget bounds a grid's bid pairs: 13 * 14 / 2 = 91 for the
    # instance's default grid, 7 * 8 / 2 = 28 for probe's
    monkeypatch.setattr(equilibria, "ENUMERATION_BUDGET", 27)
    code, out, err = run_cli(capsys, "equilibria", "-i", str(path), "--mech", "fp")
    assert (code, out) == (3, "")
    assert err == ("budget refused: 91 bid pairs of a 13-point grid exceed the "
                   "enumeration budget 27\n")
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "3")
    assert (code, out) == (3, "")
    assert err == ("budget refused: 28 bid pairs of a 7-point grid exceed the "
                   "enumeration budget 27\n")


EQUILIBRIA_RANDOM_4X2_FP = """\
{
 "mech": "fp",
 "eps": 0.1,
 "cap": 4.1,
 "tasks": [
  {
   "task": 0,
   "profiles": 51138,
   "winners": [
    2
   ]
  },
  {
   "task": 1,
   "profiles": 36880,
   "winners": [
    2
   ]
  }
 ]
}
"""


@pytest.mark.parametrize("n, mech", [(4, "fp"), (4, "spa:2"), (5, "fp"), (5, "sp")])
def test_equilibria_on_random_files(capsys, tmp_path, n, mech):
    # 73^4 profiles per task under spa:2 and 38^5 under fp were past the
    # dense scan's budget; the count answers them
    path = str(tmp_path / "r.json")
    assert run_cli(capsys, "gen", "random", f"n={n}", "m=2", "seed=1", "-o", path)[0] == 0
    code, out, _ = run_cli(capsys, "equilibria", "-i", path, "--mech", mech)
    assert code == 0
    if (n, mech) == (4, "fp"):
        assert out == EQUILIBRIA_RANDOM_4X2_FP
    else:
        assert [len(row["winners"]) > 0 for row in json.loads(out)["tasks"]] == [True, True]


@pytest.mark.parametrize("verb", ["equilibria", "probe"])
def test_budget_flag_is_gone(capsys, tradeoff_file, verb):
    argv = (["equilibria", "-i", tradeoff_file] if verb == "equilibria" else
            ["probe", "-n", "2"]) + ["--mech", "fp", "--budget", "10"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --budget 10" in err


# ---------------------------------------------------------------- analyze

def test_analyze_report(capsys, tmp_path):
    path = tmp_path / "hat.json"
    instances.save_instance(instances.gen_hat(3, 2.0, "tilde"), str(path))
    code, out, _ = run_cli(capsys, "analyze", "-i", str(path), "--mech", "spa:2")
    assert code == 0
    data = json.loads(out)
    assert data["opt"] == 1.0
    assert data["poa_ratio"] == 5.0
    assert data["pos_ratio"] == 1.0


def test_analyze_rounds_to_six_significant_digits(capsys, tmp_path):
    path = tmp_path / "fp_pos.json"
    instances.save_instance(instances.gen_fp_pos(3, 0.01), str(path))
    code, out, _ = run_cli(capsys, "analyze", "-i", str(path), "--mech", "fp")
    assert code == 0
    data = json.loads(out)
    assert data["poa_ratio"] == 2.9703   # 3/1.01 printed at 6 significant digits
    assert data["pos_ratio"] == 2.9703


@pytest.mark.parametrize("mech", ["fp", "sp", "spa:2"])
def test_analyze_reads_a_negative_zero_time_as_zero(capsys, tmp_path, mech):
    outs = []
    for zero in ("-0.0", "0.0"):
        path = tmp_path / f"zero{zero}.json"
        path.write_text(f'{{"times": [[{zero}, 1.0], [1.0, {zero}]], "big": 1000000.0}}')
        outs.append(run_cli(capsys, "analyze", "-i", str(path), "--mech", mech))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and "-0" not in outs[0][1]


def test_analyze_best_witness_is_the_optimum_when_it_is_an_equilibrium(capsys, tmp_path):
    # every winner of the optimum is in spa:2's winner sets, so the best
    # equilibrium reports the optimum's witness; a masked search would pick
    # [2, 2, 0, 1, 0, 0], which has the same makespan 4.0
    path = tmp_path / "random.json"
    instances.save_instance(gen_random(3, 6, 66), str(path))
    code, out, _ = run_cli(capsys, "analyze", "-i", str(path), "--mech", "spa:2")
    assert code == 0
    data = json.loads(out)
    assert data["opt"] == data["best_makespan"] == 4.0
    assert data["witnesses"]["best"] == data["witnesses"]["opt"] == [1, 2, 0, 2, 0, 0]


@pytest.mark.parametrize("mid", ["fp", "spa:1", "spa:2", "sp"])
def test_every_mechanism_refuses_one_machine(capsys, tmp_path, mid):
    """The rule, the winner sets and every verb that takes --mech refuse a
    one-machine instance with one message, fp and spa:1 alike; plain opt
    still solves it."""
    mech = model.MechanismId.parse(mid)
    inst = model.Instance(((0.3, 0.5),))
    message = f"{mid} needs n >= 2"
    with pytest.raises(ValueError, match=f"^{message}$"):
        rules.SingleTaskRule(mech, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        equilibria.achievable_winners(mech, inst)
    path = str(tmp_path / "one.txt")
    instances.save_instance(inst, path)
    for verb in ("analyze", "equilibria", "opt"):
        assert run_cli(capsys, verb, "-i", path, "--mech", mid) == (2, "", f"error: {message}\n")
    assert run_cli(capsys, "opt", "-i", path)[0] == 0


# ---------------------------------------------------------------- frontier

# the default suite's tilde member meets the worst-case bound at every n
@pytest.mark.parametrize("n", [10, 20, 40])
def test_frontier_golden_stdout_for_large_n(n):
    code, out = stdout_corpus.load()[f"frontier -n {n} --alphas 1,1.5,2,4"]
    assert code == 0
    for row in out.splitlines()[1:]:
        alpha, poa_bound, pos_bound, poa_emp, pos_emp = map(float, row.split(","))
        assert poa_emp == poa_bound
        assert pos_emp <= pos_bound


def test_frontier_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, *FRONTIER_ARGS)
    _, second, _ = run_cli(capsys, *FRONTIER_ARGS)
    assert first == second


def test_frontier_custom_suite(capsys):
    code, out, _ = run_cli(capsys, "frontier", "-n", "3", "--alphas", "2",
                           "--suite", "tilde:n=3,alpha=2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,poa_bound,pos_bound,poa_emp,pos_emp"
    assert lines[1] == "2,5,2,5,1"


def test_frontier_builds_a_repeated_suite_member_once(capsys, monkeypatch):
    code, once, _ = run_cli(capsys, "frontier", "-n", "3", "--alphas", "1.5,2",
                            "--suite", "uniform:n=3;hat:n=3,alpha=2")
    assert code == 0
    built = []
    real = instances.GeneratorSpec.build
    monkeypatch.setattr(instances.GeneratorSpec, "build",
                        lambda spec: built.append(spec.label()) or real(spec))
    code, twice, _ = run_cli(capsys, "frontier", "-n", "3", "--alphas", "1.5,2",
                             "--suite", "uniform:n=3;hat:n=3,alpha=2;uniform:n=3")
    assert (code, twice) == (0, once)
    assert built == ["uniform:n=3", "hat:alpha=2,n=3"]


def test_frontier_reaches_every_engine_binding(capsys, monkeypatch):
    """Each engine call of the sweep goes through the module binding a
    tracer or a patch would wrap: none is reached by a private shortcut."""
    calls = {}

    def count(owner, name, label=None):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            key = label(args, kwargs) if label else name
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("opt_makespan", "achievable_winners", "inefficiency"):
        count(analysis, name)
    count(analysis, "opt_makespan_masked",
          lambda args, kwargs: "masked_" + kwargs.get("objective", args[2] if len(args) > 2 else "min"))
    count(instances.GeneratorSpec, "build")
    count(model.Instance, "__init__")
    code, out, _ = run_cli(capsys, "frontier", "-n", "3", "--alphas", "1.5,2,3,4")
    assert code == 0 and out.startswith("alpha,")
    assert set(calls) == {"opt_makespan", "achievable_winners", "inefficiency", "masked_min",
                          "masked_max", "build", "__init__"}
    assert calls["masked_max"] == calls["inefficiency"] == calls["achievable_winners"]
    # every member is built and solved once
    assert calls["opt_makespan"] == calls["build"] <= calls["__init__"]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_frontier_refuses_a_non_finite_alpha(capsys, bad):
    code, out, err = run_cli(capsys, "frontier", "-n", "3", "--alphas", f"2,{bad}",
                             "--suite", "uniform:n=3")
    assert (code, out) == (2, "")
    assert err == f"error: spa needs a finite alpha >= 1, got {bad}\n"


def test_frontier_suite_instance_needs_n_machines(capsys):
    code, out, err = run_cli(capsys, "frontier", "-n", "2", "--alphas", "1.5",
                             "--suite", "uniform:n=3")
    assert (code, out) == (2, "")
    assert err == "error: suite instance uniform:n=3 has 3 machines, not n = 2\n"


@pytest.mark.parametrize("alphas, member, cause", [
    ("999999", "tilde:alpha=999999,n=3", "big=1000000 does not dominate: "),
    ("1e308", "tilde:alpha=1e+308,n=3", "need 1 <= alpha < 1000000\n"),
    ("999999.5", "tilde:alpha=999999.5,n=3", "big=1000000 does not dominate: "),
])
def test_frontier_names_the_suite_instance_that_fails_to_build(capsys, alphas, member, cause):
    code, out, err = run_cli(capsys, "frontier", "-n", "3", "--alphas", alphas)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: suite instance {member}: {cause}")


def test_frontier_bad_alpha(capsys):
    # the alpha is refused where every spa mechanism is made
    code, out, err = run_cli(capsys, "frontier", "-n", "3", "--alphas", "0.5")
    assert (code, out, err) == (2, "", "error: spa needs a finite alpha >= 1, got 0.5\n")


@pytest.mark.parametrize("suite", [";", " ; ;"])
def test_frontier_empty_suite(capsys, suite):
    code, out, err = run_cli(capsys, "frontier", "-n", "3", "--alphas", "2", "--suite", suite)
    assert code == 2
    assert out == ""
    assert err == "error: the frontier suite is empty\n"


# ---------------------------------------------------------------- probe

def test_probe_spa2(capsys):
    code, out, _ = run_cli(capsys, "probe", "--mech", "spa:2", "-n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]


def test_probe_fp_asymmetry(capsys):
    code, out, _ = run_cli(capsys, "probe", "--mech", "fp", "-n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == [[0.0, 1.0], [1.5, 0.0]]


def test_probe_cap_below_one(capsys):
    # 1.0 is a grid multiple above the cap: it is not anchored, not refused;
    # the grid top stands in for fp's reach 1, and a note on stderr says so
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "2", "--eps", "0.1",
                             "--cap", "0.3")
    assert code == 0
    assert json.loads(out) == {"mech": "fp", "eps": 0.1, "a": [[0, 0.2], [0.3, 0]]}
    assert err == ("note: --cap 0.3 is below fp's reach 1; "
                   "an entry at the grid top means the reach lies above it\n")
    # second price has no finite reach: any cap is its grid top, no note
    code, out, err = run_cli(capsys, "probe", "--mech", "sp", "-n", "2", "--eps", "0.1",
                             "--cap", "0.3")
    assert (code, err) == (0, "")
    assert json.loads(out)["a"] == [[0, 0.3], [0.3, 0]]


def test_probe_note_names_the_grid_top_it_built(capsys):
    # --cap 1 at eps 0.3 builds a grid up to 0.9, below fp's reach 1
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "2", "--eps", "0.3",
                             "--cap", "1")
    assert code == 0
    assert json.loads(out)["a"] == [[0, 0.6], [0.9, 0]]
    assert err == ("note: --cap 1 builds a grid whose top 0.9 is below fp's reach 1; "
                   "an entry at the grid top means the reach lies above it\n")
    # --cap 0.9 at eps 0.6 builds a grid up to 1.2, which holds the reach
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "2", "--eps", "0.6",
                             "--cap", "0.9")
    assert (code, err) == (0, "note: --cap 0.9 builds a grid whose top is 1.2\n")
    assert json.loads(out)["a"] == [[0, 0.6], [1.2, 0]]


@pytest.mark.parametrize("mech, note", [
    ("sp", "note: --cap 0.9 builds a grid whose top is 1.2\n"),
    # below the reach, the reach note already names the top it built
    ("spa:2", "note: --cap 0.9 builds a grid whose top 1.2 is below spa:2's reach 2; "
              "an entry at the grid top means the reach lies above it\n"),
])
def test_probe_notes_a_grid_top_above_the_cap(capsys, mech, note):
    code, out, err = run_cli(capsys, "probe", "--mech", mech, "-n", "2", "--eps", "0.6",
                             "--cap", "0.9")
    assert (code, err) == (0, note)
    assert json.loads(out)["a"] == [[0, 1.2], [1.2, 0]]
    # the default cap, and a cap the grid top passes by float dust, get no such note
    for extra in ([], ["--eps", "0.1", "--cap", "0.3"]):
        assert "whose top is" not in run_cli(capsys, "probe", "--mech", mech, "-n", "2", *extra)[2]


def test_probe_refuses_a_huge_machine_count_before_allocating(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "100000")
    assert (code, out) == (3, "")
    assert err == ("budget refused: 2999970000000000 winner passes of 100000-machine "
                   "ladders on a 7-point grid exceed the probe budget 100000\n")
    assert time.perf_counter() - t0 < 0.5


def test_probe_admits_32_machines_and_refuses_33(capsys, monkeypatch):
    # fp's default grid has 7 points, so each ladder bisects 6 rungs in at
    # most 3 probes: 32 * 32 * 31 * 3 = 95232 winner passes fit the budget,
    # 33 * 33 * 32 * 3 = 104544 do not; no ladder here enumerates anything
    calls = []

    def nobody_wins(rule, times, grid):
        calls.append(times)
        return equilibria.EnumerationResult((0,) * rule.n, len(grid) ** rule.n)

    monkeypatch.setattr(analysis, "enumerate_equilibria", nobody_wins)
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "32")
    assert (code, err) == (0, "")
    assert json.loads(out)["a"] == [[0] * 32] * 32
    assert len(calls) == 32 * 31 * 3
    calls.clear()
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "33")
    assert (code, out, calls) == (3, "", [])
    assert err == ("budget refused: 104544 winner passes of 33-machine ladders on a "
                   "7-point grid exceed the probe budget 100000\n")


@pytest.mark.parametrize("eps, cap", [("1e-12", "1e-11"), ("1e-300", "1e-299")])
def test_probe_with_a_tiny_step_stays_on_its_grid(capsys, monkeypatch, eps, cap):
    # every probe is a grid point: an absolute 1e-9 slack on the cap would
    # take a tiny step thousands of steps past the top, or forever at 1e-300
    calls = []
    real = analysis.enumerate_equilibria

    def counting(rule, times, grid):
        calls.append(times)
        assert len(calls) <= 2 * (len(grid) - 1).bit_length(), "probe left its bisection"
        return real(rule, times, grid)

    monkeypatch.setattr(analysis, "enumerate_equilibria", counting)
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "2", "--eps", eps,
                             "--cap", cap)
    assert code == 0
    assert err.startswith(f"note: --cap {float(cap):.6g} is below fp's reach 1;")
    assert err.count("\n") == 1
    entries = [x for row in json.loads(out)["a"] for x in row]
    assert max(entries) > 0
    assert all(x <= float(cap) for x in entries)


# ---------------------------------------------------------------- verify

def test_verify_tech1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "tech1")
    assert code == 0
    assert "tech1: pass" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(
        analysis.VERIFY_SUITES, "tech1",
        lambda seed: SuiteReport(False, ("forced failure",)))
    code, out, _ = run_cli(capsys, "verify", "--suite", "tech1")
    assert code == 1
    assert "tech1: FAIL" in out
    assert "forced failure" in out


def test_verify_seed_reaches_seeded_suites(capsys, monkeypatch):
    seen = {}

    def recorder(name):
        def suite(seed):
            seen[name] = seed
            return SuiteReport(True, ())
        return suite

    for name in analysis.VERIFY_SUITES:
        monkeypatch.setitem(analysis.VERIFY_SUITES, name, recorder(name))
    assert run_cli(capsys, "verify", "--suite", "tech1")[0] == 0
    assert seen == {"tech1": 0}
    seen.clear()
    assert run_cli(capsys, "verify", "--suite", "all", "--seed", "5")[0] == 0
    assert seen == dict.fromkeys(analysis.VERIFY_SUITES, 5)


def test_verify_seedless_suite_refuses_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "anonymity", "--seed", "5")
    assert (code, out) == (2, "")
    assert err == "error: suite 'anonymity' has fixed fixtures and takes no --seed\n"


@pytest.mark.parametrize("suite", ["all", "tech1"])
def test_verify_refuses_a_negative_seed_before_any_suite_runs(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be >= 0, got -1\n")


def test_verify_unknown_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2                    # argparse choices rejection


# ---------------------------------------------------------------- gen

def test_gen_json_round_trip(capsys, tmp_path):
    out_path = tmp_path / "u.json"
    code, out, _ = run_cli(capsys, "gen", "uniform", "n=3", "-o", str(out_path))
    assert code == 0
    assert "wrote uniform:n=3" in out
    assert instances.load_instance(str(out_path)) == gen_uniform(3)


def test_gen_text_round_trip(capsys, tmp_path):
    out_path = tmp_path / "t.txt"
    code, _, _ = run_cli(capsys, "gen", "tradeoff", "n=3", "rho=1.5", "-o", str(out_path))
    assert code == 0
    assert instances.load_instance(str(out_path)) == gen_tradeoff(3, 1.5)


def test_gen_names_the_member_it_wrote(capsys, tmp_path):
    path = str(tmp_path / "h.txt")
    code, out, _ = run_cli(capsys, "gen", "hat", "n=3", "alpha=2.0000001", "-o", path)
    assert (code, out) == (0, f"wrote hat:alpha=2.0000001,n=3 to {path}\n")


GEN_PARAMS = {"uniform": ["n=3"], "thm3_hat": ["n=2"], "tradeoff": ["n=3", "rho=1.5"],
              "fp_pos": ["n=3", "eps=0.5"], "hat": ["n=3", "alpha=2"],
              "tilde": ["n=2", "alpha=1.5"], "random": ["n=3", "m=3", "seed=7"]}


@pytest.mark.parametrize("name", sorted(instances._BUILDERS))
@pytest.mark.parametrize("filename", ["f.json", "f.txt"])
def test_gen_file_reads_back(capsys, tmp_path, name, filename):
    spec = instances.GeneratorSpec.parse(name + ":" + ",".join(GEN_PARAMS[name]))
    path = str(tmp_path / filename)
    code, out, _ = run_cli(capsys, "gen", name, *GEN_PARAMS[name], "-o", path)
    assert (code, out) == (0, f"wrote {spec.label()} to {path}\n")
    assert run_cli(capsys, "opt", "-i", path)[0] == 0
    assert instances.load_instance(path) == spec.build()


def test_gen_random_refuses_a_negative_seed(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, err = run_cli(capsys, "gen", "random", "n=1", "m=2", "seed=-1",
                             "-o", str(out_path))
    assert (code, out, err) == (2, "", "error: need seed >= 0\n")
    assert not out_path.exists()
    code, out, err = run_cli(capsys, "frontier", "-n", "3", "--alphas", "2",
                             "--suite", "random:n=3,m=2,seed=-1")
    assert (code, out) == (2, "")
    assert err == "error: suite instance random:m=2,n=3,seed=-1: need seed >= 0\n"


def test_gen_circulant_file(capsys, tmp_path):
    # circulant is a helper of combi_fuzz, not a generator: gen refuses it
    out_path = tmp_path / "c.json"
    code, out, err = run_cli(capsys, "gen", "circulant", "n=3", "alpha=2", "delta=0.6",
                             "-o", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: unknown generator 'circulant'\n"
    assert not out_path.exists()
    a = instances.gen_circulant(3, 2, 0.6)
    assert len(a) == 3 and a[0][0] == 0.0


def test_gen_canonical_vector_file(capsys, tmp_path):
    # canonical is a helper of probe_matrix, not a generator: gen refuses it
    out_path = tmp_path / "v.json"
    code, out, err = run_cli(capsys, "gen", "canonical", "n=3", "fast=0", "slow=1", "a=2",
                             "-o", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: unknown generator 'canonical'\n"
    assert not out_path.exists()
    assert instances.gen_canonical(3, 0, 1, 2) == (1.0, 2.0, 1000002.0)


@pytest.mark.parametrize("argv", [["canonical", "n=3", "fast=0", "slow=1", "a=2"],
                                  ["circulant", "n=3", "alpha=2", "delta=0.6"]])
def test_gen_text_refused_for_non_instances(capsys, tmp_path, argv):
    out_path = tmp_path / "c.txt"
    code, out, err = run_cli(capsys, "gen", *argv, "-o", str(out_path), "--text")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --text" in err
    assert not out_path.exists()


def test_gen_text_flag_is_gone(capsys, tmp_path):
    out_path = tmp_path / "u.txt"
    code, out, err = run_cli(capsys, "gen", "uniform", "n=2", "-o", str(out_path), "--text")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --text" in err
    assert not out_path.exists()


def test_gen_unknown_generator(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", "bogus", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in err


def test_gen_requires_output(capsys):
    code, _, _ = run_cli(capsys, "gen", "uniform", "n=2")
    assert code == 2                    # argparse: missing -o


# ---------------------------------------------------------------- bad input exits 2

@pytest.mark.parametrize("argv, names", [
    (["gen", "uniform"], ("'uniform'", "'n'")),
    (["gen", "uniform", "n=3", "foo=2"], ("'uniform'", "'foo'")),
    (["frontier", "-n", "3", "--alphas", "2", "--suite", "uniform"], ("'uniform'", "'n'")),
    (["frontier", "-n", "3", "--alphas", "2", "--suite", "hat:n=3,alpha=2,variant=x"],
     ("'hat'", "'variant'")),
    (["gen", "uniform", "n=1.5"], ("'uniform'", "'n'", "'1.5'")),
    (["gen", "hat", "n=3", "alpha=zz"], ("'hat'", "'alpha'", "'zz'")),
    (["gen", "random", "n=2", "m=2", "seed=1", "grid_step=1e-300"], ("'random'", "'grid_step'")),
    (["gen", "uniform", "n=2", "n=3"], ("'uniform'", "'n'", "twice")),
    (["frontier", "-n", "3", "--alphas", "2", "--suite", "uniform:n=2,n=3"],
     ("'uniform'", "'n'", "twice")),
    # the sentinel and the random lattice are fixed: no generator takes them
    (["gen", "uniform", "n=3", "big=1e6"], ("'uniform'", "'big'")),
    (["gen", "random", "n=2", "m=2", "seed=1", "lo=0.5"], ("'random'", "'lo'")),
    (["gen", "random", "n=2", "m=2", "seed=1", "hi=2"], ("'random'", "'hi'")),
    (["frontier", "-n", "3", "--alphas", "2", "--suite", "tradeoff:n=3,rho=1.5,big=1e6"],
     ("'tradeoff'", "'big'")),
    (["frontier", "-n", "3", "--alphas", "2", "--suite", "random:n=3,m=4,seed=1,lo=0.5"],
     ("'random'", "'lo'")),
    (["frontier", "-n", "3", "--alphas", "2", "--suite", "random:n=3,m=4,seed=1,hi=2"],
     ("'random'", "'hi'")),
    (["frontier", "-n", "3", "--alphas", "2", "--suite",
      "random:n=3,m=4,seed=1,grid_step=0.2"], ("'random'", "'grid_step'")),
])
def test_generator_parameter_errors_exit_two(capsys, tmp_path, argv, names):
    if argv[0] == "gen":
        argv = argv + ["-o", str(tmp_path / "x.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and all(name in err for name in names)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["gen", "fp_pos", "n=2", "eps=2e6"],
    ["gen", "fp_pos", "n=2", "eps=999999"],
    ["gen", "tilde", "n=3", "alpha=2e6"],
    ["gen", "hat", "n=3", "alpha=1e6"],
    ["gen", "tradeoff", "n=3", "rho=2e6"],
])
def test_generator_entries_stay_below_the_sentinel(capsys, tmp_path, argv):
    """A parameter that would push a finite entry to the sentinel is refused
    before anything is written."""
    path = tmp_path / "x.json"
    code, out, err = run_cli(capsys, *argv, "-o", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(DEFAULT_BIG) in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "uniform", "n=1000", "-o", "u.json"],
    ["frontier", "-n", "3163", "--alphas", "2"],
    ["gen", "random", "n=10000", "m=10000", "seed=1", "-o", "r.txt"],
])
def test_oversized_generator_refused_before_allocating(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("budget refused:") and "generator budget" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("data, field", [
    ({"times": 5, "big": 1e6}, "times"),
    ([1, 2], "times"),
    ({"times": [[1.0]]}, "'big'"),
    # a JSON bool or string is not a number, nor an int past the float range
    ({"times": [[1, 2], [1, 1]], "big": True}, "big: not a number: True"),
    ({"times": [[1, 2], [1, 1]], "big": "1e6"}, "big: not a number: '1e6'"),
    ({"times": [[1, 2], [1, 1]], "big": 10 ** 400}, "big: not a number: 1000"),
    ({"times": [[True, "2.5"], [1, 1]], "big": 1e6}, "times: row 0: not a number: True"),
    ({"times": [[1, 2], [1, "2.5"]], "big": 1e6}, "times: row 1: not a number: '2.5'"),
    ({"times": [[1, None], [1, 1]], "big": 1e6}, "times: row 0: not a number: None"),
    ({"times": [[1, 2], [10 ** 400, 1]], "big": 1e6}, "times: row 1: not a number: 1000"),
    # a long or deep value is echoed cut short
    pytest.param('{"times": [[1, ' + "[" * 498 + "]" * 498 + '], [1, 1]], "big": 1e6}',
                 "times: row 0: not a number: [[[[[[[...]]]]]]]", id="entry-498-deep"),
    pytest.param({"times": [[1, 2], [1, "9" * 5000]], "big": 1e6},
                 "times: row 1: not a number: '999999999999...9999999999999'",
                 id="string-5000-long"),
    # json's reader, and writer, recurse once per level: given as text
    pytest.param('{"times": ' + "[" * 1000 + "]" * 1000 + ', "big": 1e6}',
                 "JSON nests too deeply", id="nested-1000-deep"),
])
def test_malformed_instance_file_exits_two(capsys, tmp_path, data, field):
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run_cli(capsys, "opt", "-i", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err
    assert len(err) < 100


@pytest.mark.parametrize("text, message", [
    ("2 x 1e6\n1 2\n3 4\n", "first line must be 'n m big', got '2 x 1e6'"),
    ("1 2\n1 2\n", "first line must be 'n m big', got '1 2'"),
    ("1 2 1e6\n1 a\n", "times: row 0: could not convert string to float: 'a'"),
    # a long token, or first line, is echoed cut short
    pytest.param("1 2 1e6\n1 " + "1" * 5000 + "a\n",
                 "times: row 0: could not convert string to float: "
                 "'111111111111...111111111111a'", id="token-5001-long"),
    pytest.param("2 2 " + "1" * 5000 + "x\n1 2\n3 4\n",
                 "first line must be 'n m big', got '2 2 11111111...111111111111x'",
                 id="first-line-5005-long"),
])
def test_malformed_text_instance_file_exits_two(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "opt", "-i", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err) < 100


@pytest.mark.parametrize("extra", [["--eps", "0"], ["--eps", "1e-320"], ["--cap", "inf"],
                                   ["--cap", "0"], ["--cap", "-1"], ["--eps", "inf"],
                                   ["--eps", "1e308", "--cap", "1e308"]])
def test_probe_bad_eps_or_cap_exits_two(capsys, extra):
    code, out, err = run_cli(capsys, "probe", "--mech", "sp", "-n", "2", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("extra, got", [(["--eps", "inf"], "inf, 3.0"),
                                        (["--eps", "1e308", "--cap", "1e308"], "1e+308, 1e+308")])
def test_probe_refuses_a_grid_top_that_overflows(capsys, extra, got):
    # the grid top k * eps is inf: the message names the flags, not a cap never given
    code, out, err = run_cli(capsys, "probe", "--mech", "sp", "-n", "2", *extra)
    assert (code, out, err) == (2, "", f"error: need --eps > 0 and a finite --cap/--eps, "
                                       f"got {got}\n")


@pytest.mark.parametrize("alpha, code, message", [
    ("1e308", 2, "error: default cap 1e+308 * 2.0 overflows in steps of 0.1\n"),
    ("1e300", 3, "budget refused: "),
])
def test_equilibria_with_a_huge_alpha_is_refused(capsys, tradeoff_file, alpha, code, message):
    # alpha * 2.0 overflows the default cap to inf, which is bad input, not
    # a traceback (exit 1); a finite huge cap is past the enumeration budget
    got, out, err = run_cli(capsys, "equilibria", "-i", tradeoff_file, "--mech",
                            f"spa:{alpha}")
    assert (got, out) == (code, "")
    assert err.startswith(message)


@pytest.mark.parametrize("grid, code", [("0,4", 2), ("1e-320,4", 3), ("1e-320,-1", 2)])
def test_degenerate_grid_step_refused(capsys, tradeoff_file, grid, code):
    got, out, err = run_cli(capsys, "equilibria", "-i", tradeoff_file, "--mech", "fp",
                            "--grid", grid)
    assert got == code
    assert out == ""
    assert "Traceback" not in err


# ---------------------------------------------------------------- entry point

def test_parser_built_once(capsys):
    cli._parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "probe", "--mech", "fp", "-n", "2")[0] == 0
    assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 1)


def test_closed_stdout_exits_141_quietly(tmp_path):
    path = str(tmp_path / "t3.txt")
    instances.save_instance(instances.thm3_hat_image(3), path)
    with subprocess.Popen(
            [sys.executable, "-m", "mechfront.cli", "analyze", "-i", path, "--mech", "spa:2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # the reader goes away before the child writes
        err = proc.stderr.read()
    assert (proc.wait(), err) == (141, b"")


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mechfront.cli", "probe", "--mech", "fp", "-n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mech"] == "fp"
