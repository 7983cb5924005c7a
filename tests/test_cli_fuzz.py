"""Fuzz of the command line: varied argv for every verb but `verify`, and
varied instance-file contents.  Each run must exit 0 (done), 2 (usage or bad
input) or 3 (budget refused) and never print a traceback; exit 1 is kept for
`verify`'s property violations.  Sizes stay small (at most 3 machines, coarse
grids, the enumeration budget lowered to FUZZ_BUDGET, `frontier -n` at most 3)
so the fuzz takes seconds.  No verb has a `--budget` flag and `gen` has no
`--text` flag, so argv that passes either must exit 2.  A file `gen` writes
must load back through `opt -i`."""
import contextlib
import io
import json
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mechfront import cli, equilibria
from mechfront.instances import save_instance
from mechfront.model import Instance

MECHS = st.sampled_from(["fp", "sp", "greedy", "spa:1", "spa:1.5", "spa:2", "spa:0.5",
                         "spa:inf", "spa:nan", "spa:", "spa:x", "bogus", " SP "])
NUMBERS = ["-1", "0", "0.5", "1", "1.5", "2", "3", "nan", "inf", "-inf", "1e-320",
           "1e308", "x", ""]
SMALL_N = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
GENERATORS = ["uniform", "thm3_hat", "tradeoff", "fp_pos", "hat", "tilde", "random",
              "bogus", "canonical", "circulant", ""]
PARAM_KEYS = ["n", "m", "alpha", "rho", "eps", "seed", "variant", "fast", "slow", "a",
              "delta", "lo", "hi", "grid_step", "big", "k", "foo"]
PARAM_VALUES = {"n": st.sampled_from(["-1", "0", "1", "2", "3", "1.5", "x"]),
                "m": st.sampled_from(["0", "1", "3"]),
                "seed": st.sampled_from(["-1", "0", "7"])}

FUZZ_BUDGET = 20000  # bid pairs of one task's grid (and grid points)

ENTRIES = st.sampled_from([0, 0.0, 0.1, 0.5, 1, 1.5, 2, 3.5, 1e6])
WILD_ENTRIES = st.one_of(ENTRIES, st.sampled_from(
    [-1, 1e308, float("nan"), float("inf"), "1", None, True, [1], {}]))


@st.composite
def times_matrices(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    return [[draw(ENTRIES) for _ in range(m)] for _ in range(n)]


INSTANCE_DATA = st.one_of(
    st.fixed_dictionaries({"times": times_matrices()},
                          optional={"big": st.sampled_from([1e6, 1000, 10, 0, -1, 1e308,
                                                            float("inf"), "big", None]),
                                    "n": st.integers(0, 4), "m": st.integers(0, 5)}),
    st.fixed_dictionaries({"times": st.lists(st.lists(WILD_ENTRIES, max_size=4), max_size=3)},
                          optional={"big": st.sampled_from([1e6, "1e6", None, [1]])}),
    st.sampled_from([[1, 2], 5, "times", None, {}, {"times": 5, "big": 1e6},
                     {"times": [[1.0]]}, {"times": [1.0, 2.0]}, {"times": None},
                     {"times": [[1.0, 2.0]], "n": "1"}, {"times": [["a"]]}]),
)


@st.composite
def text_files(draw):
    lines = draw(st.lists(st.one_of(
        st.sampled_from(["2 2 1e6", "2 2 1000000.0", "1 1 10", "3 1 1e6", "2 2", "x y z",
                         "2.5 2 1e6", "-1 2 1e6", "2 2 nan"]),
        st.lists(st.sampled_from(NUMBERS), max_size=3).map(" ".join)), max_size=4))
    return "\n".join(lines) + "\n"


def numbers(*extra):
    return st.sampled_from(NUMBERS + list(extra))


def budget_flag(draw):
    """Now and then the removed `--budget` flag."""
    return ["--budget", "10"] if draw(st.integers(0, 4)) == 0 else []


VALID_PARAMS = {"uniform": {"n": "3"}, "thm3_hat": {"n": "2"},
                "tradeoff": {"n": "3", "rho": "1.5"}, "fp_pos": {"n": "3", "eps": "0.5"},
                "hat": {"n": "3", "alpha": "2"}, "tilde": {"n": "2", "alpha": "1.5"},
                "random": {"n": "3", "m": "3", "seed": "7"}}


@st.composite
def generator_spec(draw, sep):
    """A generator name with its parameters: a valid set with a few keys
    dropped, changed or added, or an arbitrary one."""
    name = draw(st.sampled_from(GENERATORS))
    params = dict(VALID_PARAMS.get(name, {})) if draw(st.booleans()) else {}
    for key in draw(st.lists(st.sampled_from(PARAM_KEYS), max_size=3, unique=True)):
        if key in params and draw(st.booleans()):
            del params[key]
        else:
            params[key] = draw(PARAM_VALUES.get(key, numbers("hat", "tilde")))
    params = [f"{k}={v}" for k, v in params.items()]
    params += draw(st.lists(st.sampled_from(["n", "=3", "n=3=4", ""]), max_size=1))
    return [name, *params] if sep is None else name + (":" + sep.join(params) if params else "")


@st.composite
def instance_argv(draw, path):
    verb = draw(st.sampled_from(["opt", "equilibria", "analyze"]))
    argv = [verb, "-i", path]
    if verb == "opt":
        if draw(st.booleans()):
            argv += ["--mech", draw(MECHS)]
        if draw(st.booleans()):
            argv += ["--objective", draw(st.sampled_from(["min", "max", "mean"]))]
    elif verb == "analyze":
        argv += ["--mech", draw(MECHS)]
    else:
        argv += ["--mech", draw(MECHS), *budget_flag(draw)]
        if draw(st.booleans()):
            argv += ["--task", draw(st.sampled_from(["-1", "0", "1", "3", "x"]))]
        if draw(st.booleans()):
            argv += ["--grid", draw(st.one_of(
                st.tuples(numbers("0.25", "0.1"), numbers("2.5", "4")).map(",".join),
                st.sampled_from(["0.5", "a,b", "0.5,3,4", ""])))]
    return argv


@st.composite
def other_argv(draw, out_path):
    verb = draw(st.sampled_from(["frontier", "probe", "gen"]))
    if verb == "frontier":
        argv = ["frontier", "-n", draw(SMALL_N), "--alphas",
                ",".join(draw(st.lists(st.sampled_from(["1", "1.5", "2", "4", "0.5", "nan",
                                                        "inf", "x", ""]),
                                       min_size=1, max_size=3)))]
        if draw(st.booleans()):
            argv += ["--suite", ";".join(draw(st.lists(generator_spec(","), max_size=3)))]
        return argv
    if verb == "probe":
        argv = ["probe", "--mech", draw(MECHS), "-n", draw(SMALL_N), *budget_flag(draw)]
        if draw(st.booleans()):
            argv += ["--eps", draw(numbers("0.25"))]
        if draw(st.booleans()):
            argv += ["--cap", draw(numbers("2.5", "5"))]
        return argv
    argv = ["gen", *draw(generator_spec(None)), "-o", out_path]
    if draw(st.booleans()):
        argv.append("--text")
    return argv


def run_quiet(argv):
    err = io.StringIO()
    with mock.patch.object(equilibria, "ENUMERATION_BUDGET", FUZZ_BUDGET), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


def check(argv):
    code, err = run_quiet(argv)
    removed_flag = "--budget" in argv or "--text" in argv
    assert code in ((2,) if removed_flag else (0, 2, 3)), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=st.data())
def test_fuzz_instance_verbs(tmp_path_factory, data):
    """A valid instance file and varied argv for opt, equilibria and analyze."""
    inst = Instance(tuple(map(tuple, data.draw(times_matrices()))))
    path = tmp_path_factory.mktemp("fuzz") / data.draw(st.sampled_from(["i.json", "i.txt"]))
    save_instance(inst, str(path))
    check(data.draw(instance_argv(str(path))))


@FUZZ
@given(data=st.data())
def test_fuzz_instance_files(tmp_path_factory, data):
    """Varied instance-file contents under each instance verb."""
    folder = tmp_path_factory.mktemp("fuzz")
    if data.draw(st.booleans()):
        path = folder / "inst.json"
        path.write_text(json.dumps(data.draw(INSTANCE_DATA)))
    else:
        path = folder / "inst.txt"
        path.write_text(data.draw(text_files()))
    check(data.draw(st.sampled_from([
        ["opt", "-i", str(path)], ["opt", "-i", str(path), "--mech", "sp"],
        ["analyze", "-i", str(path), "--mech", "spa:2"],
        ["equilibria", "-i", str(path), "--mech", "fp"]])))


@FUZZ
@given(data=st.data())
def test_fuzz_frontier_probe_and_gen(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("fuzz")
    out = data.draw(st.sampled_from([str(folder / "out.json"), str(folder / "out.txt"),
                                     str(folder)]))
    argv = data.draw(other_argv(out))
    if check(argv) == 0 and argv[0] == "gen":
        assert run_quiet(["opt", "-i", out]) == (0, ""), argv
