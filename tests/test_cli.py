import json
import subprocess
import sys
import time

import pytest

from mechfront import analysis, cli, equilibria, instances, optsolver
from mechfront.analysis import SuiteReport
from mechfront.instances import gen_random, gen_tradeoff, gen_uniform
from mechfront.model import DEFAULT_BIG, makespan

FRONTIER_ARGS = ["frontier", "-n", "3", "--alphas", "1,1.5,2,4"]

FRONTIER_CSV = """\
alpha,poa_bound,pos_bound,poa_emp,pos_emp
1,3,3,3,2.81818
1.5,4,2.33333,4,2.25
2,5,2,5,1.95238
4,9,1.5,9,1.4878
"""


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


UNIFORM3_ROUND_ROBIN = [0, 1, 2, 0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("mech", ["fp", "spa:2"])
def test_analyze_uniform_golden_stdout(capsys, tmp_path, mech):
    """Byte-exact report, witnesses included: the optimum's witness is the
    first optimal leaf of the branch-and-bound's search order."""
    path = tmp_path / "uniform.json"
    instances.save_instance(gen_uniform(3), str(path))
    code, out, _ = run_cli(capsys, "analyze", "-i", str(path), "--mech", mech)
    assert code == 0
    expected = {
        "mech": mech, "opt": 3.0, "worst_makespan": 9.0, "best_makespan": 3.0,
        "poa_ratio": 3.0, "pos_ratio": 1.0,
        "witnesses": {"opt": UNIFORM3_ROUND_ROBIN, "worst": [0] * 9,
                      "best": UNIFORM3_ROUND_ROBIN},
    }
    assert out == json.dumps(expected, indent=1) + "\n"


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


# ---------------------------------------------------------------- golden stdout

def _golden(data) -> str:
    return json.dumps(data, indent=1) + "\n"


def _tasks(profiles):
    return [{"task": j, "profiles": k, "winners": [0]} for j, k in enumerate(profiles)]


GOLDEN_TRADEOFF = {
    ("opt",): {"opt": 2.0, "witness": [0, 1, 2]},
    ("opt", "--mech", "sp", "--objective", "max"):
        {"mech": "sp", "objective": "max", "value": 3.0, "witness": [0, 0, 0]},
    ("equilibria", "--mech", "fp"):
        {"mech": "fp", "eps": 0.1, "cap": 2.2, "tasks": _tasks((9, 323, 323))},
    ("equilibria", "--mech", "spa:2"):
        {"mech": "spa:2", "eps": 0.1, "cap": 4.2, "tasks": _tasks((7590, 9676, 9676))},
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_TRADEOFF))
def test_tradeoff_golden_stdout(capsys, tradeoff_file, argv):
    code, out, _ = run_cli(capsys, argv[0], "-i", tradeoff_file, *argv[1:])
    assert code == 0
    assert out == _golden(GOLDEN_TRADEOFF[argv])


GOLDEN_PROBE = {
    ("spa:2", "3"): {"mech": "spa:2", "eps": 0.5,
                     "a": [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]},
    ("fp", "2"): {"mech": "fp", "eps": 0.5, "a": [[0.0, 1.0], [1.5, 0.0]]},
}


@pytest.mark.parametrize("mech,n", sorted(GOLDEN_PROBE))
def test_probe_golden_stdout(capsys, mech, n):
    code, out, _ = run_cli(capsys, "probe", "--mech", mech, "-n", n)
    assert code == 0
    assert out == _golden(GOLDEN_PROBE[(mech, n)])


VERIFY_ANONYMITY = """\
anonymity: pass
  fp: 4 permuted enumerations, ok
  spa:2: 4 permuted enumerations, ok
"""

REVERSE_FAILURES = (
    ("uniform-2", 800, 800, 800), ("uniform-3", 1800, 1800, 1800),
    ("tradeoff-3-1.5", 600, 91, 91), ("fp_pos-3-0.01", 600, 400, 400),
    ("hat-3-2", 600, 374, 191), ("tilde-3-2", 600, 193, 193),
    ("random-2x3-101", 600, 419, 419), ("random-3x4-201", 800, 575, 575),
    ("random-3x4-202", 800, 764, 764), ("random-3x5-301", 1000, 741, 741),
)

VERIFY_MONOTONICITY_REVERSE = "monotonicity-reverse: pass\n" + "".join(
    f"  {label} {mech}: 200 trials, {k} failures\n"
    for label, *counts in REVERSE_FAILURES
    for mech, k in zip(("fp", "sp", "spa:2"), counts)
)


@pytest.mark.parametrize("suite,expected", [
    ("anonymity", VERIFY_ANONYMITY),
    ("monotonicity-reverse", VERIFY_MONOTONICITY_REVERSE),
])
def test_verify_golden_stdout(capsys, suite, expected):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert out == expected


# ---------------------------------------------------------------- frontier

def test_frontier_csv_exact(capsys):
    code, out, _ = run_cli(capsys, *FRONTIER_ARGS)
    assert code == 0
    assert out == FRONTIER_CSV


def test_frontier_n5_csv_exact(capsys):
    code, out, _ = run_cli(capsys, "frontier", "-n", "5", "--alphas", "1,1.5,2,4")
    assert code == 0
    assert out == """\
alpha,poa_bound,pos_bound,poa_emp,pos_emp
1,5,5,5,4.63636
1.5,7,3.66667,7,3.5
2,9,3,9,2.90476
4,17,2,17,1.97561
"""


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
    ("1e308", "tilde:alpha=1e+308,n=3", "need 1 < alpha < 1000000\n"),
])
def test_frontier_names_the_suite_instance_that_fails_to_build(capsys, alphas, member, cause):
    code, out, err = run_cli(capsys, "frontier", "-n", "3", "--alphas", alphas)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: suite instance {member}: {cause}")


def test_frontier_bad_alpha(capsys):
    code, _, err = run_cli(capsys, "frontier", "-n", "3", "--alphas", "0.5")
    assert code == 2
    assert "error:" in err


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


def test_probe_refuses_a_huge_machine_count_before_allocating(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "probe", "--mech", "fp", "-n", "100000")
    assert (code, out) == (3, "")
    assert err == ("budget refused: 5999940000000000 winner passes of 100000-machine "
                   "ladders on a 7-point grid exceed the probe budget 100000\n")
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("eps, cap", [("1e-12", "1e-11"), ("1e-300", "1e-299")])
def test_probe_with_a_tiny_step_stays_on_its_grid(capsys, monkeypatch, eps, cap):
    # every probe is a grid point: an absolute 1e-9 slack on the cap would
    # take a tiny step thousands of steps past the top, or forever at 1e-300
    calls = []
    real = analysis.enumerate_equilibria

    def counting(rule, times, grid):
        calls.append(times)
        assert len(calls) <= 2 * (len(grid) - 1), "probe left its grid"
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
    assert instances.load_text(str(out_path)) == gen_tradeoff(3, 1.5)


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
    load = instances.load_text if filename.endswith(".txt") else instances.load_instance
    assert load(path) == spec.build()


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
    ["frontier", "-n", "1000", "--alphas", "2"],
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
])
def test_malformed_instance_file_exits_two(capsys, tmp_path, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "opt", "-i", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("text, message", [
    ("2 x 1e6\n1 2\n3 4\n", "first line must be 'n m big', got '2 x 1e6'"),
    ("1 2\n1 2\n", "first line must be 'n m big', got '1 2'"),
    ("1 2 1e6\n1 a\n", "times: row 0: could not convert string to float: 'a'"),
])
def test_malformed_text_instance_file_exits_two(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "opt", "-i", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("extra", [["--eps", "0"], ["--eps", "1e-320"], ["--cap", "inf"]])
def test_probe_bad_eps_or_cap_exits_two(capsys, extra):
    code, out, err = run_cli(capsys, "probe", "--mech", "sp", "-n", "2", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
    instances.save_text(instances.thm3_hat_image(3), path)
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
