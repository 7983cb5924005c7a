import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mechfront.instances import (
    _BUILDERS,
    _INT_PARAMS,
    GENERATOR_BUDGET,
    GeneratorSpec,
    gen_canonical,
    gen_circulant,
    gen_fp_pos,
    gen_hat,
    gen_random,
    gen_tradeoff,
    gen_uniform,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    regression_suite,
    save_instance,
    thm3_hat_image,
)
from mechfront.model import DEFAULT_BIG, GRID_STEP, BudgetExceededError, Instance

BIG = float(DEFAULT_BIG)


def test_gen_uniform():
    inst = gen_uniform(3)
    assert inst.n == 3
    assert inst.m == 9
    assert all(t == 1.0 for row in inst.times for t in row)
    assert gen_uniform(2).m == 4


def test_gen_tradeoff_exact_matrices():
    assert gen_tradeoff(3, 1.5).times == (
        (2.0, 0.5, 0.5),
        (BIG, 2.0, BIG),
        (BIG, BIG, 2.0),
    )
    assert gen_tradeoff(3, 3.0).times == (
        (2.0, 2.0, 2.0),
        (BIG, 2.0, BIG),
        (BIG, BIG, 2.0),
    )
    assert gen_tradeoff(2, 1.5).times == ((1.0, 0.5), (BIG, 1.0))


def test_gen_tradeoff_validates():
    with pytest.raises(ValueError):
        gen_tradeoff(1, 2.0)
    with pytest.raises(ValueError):
        gen_tradeoff(3, 0.5)  # needs rho >= 1
    with pytest.raises(ValueError):
        gen_tradeoff(2, DEFAULT_BIG + 2.0)  # rho - 1 would read as a sentinel


def test_gen_fp_pos():
    assert gen_fp_pos(3, 0.01).times == (
        (1.0, 1.0, 1.0),
        (1.01, BIG, BIG),
        (BIG, 1.01, BIG),
    )
    assert gen_fp_pos(2, 0.01).times == ((1.0, 1.0), (1.01, BIG))
    with pytest.raises(ValueError):
        gen_fp_pos(3, 0.0)


def test_gen_hat_variants():
    assert gen_hat(3, 2.0, "hat").times == (
        (2.0, BIG, BIG),
        (BIG, 2.0, BIG),
        (1.0, 1.0, 2.0),
    )
    assert gen_hat(3, 2.0, "tilde").times == (
        (1.0, BIG, BIG),
        (BIG, 1.0, BIG),
        (2.0, 2.0, 1.0),
    )
    assert gen_hat(2, 2.0, "hat").times == ((2.0, BIG), (1.0, 2.0))
    assert gen_hat(2, 2.0, "tilde").times == ((1.0, BIG), (2.0, 1.0))
    with pytest.raises(ValueError):
        gen_hat(3, 2.0, "flat")


# rows of thm3_hat_image(n), one digit per task
THM3_HAT_ROWS = {
    2: ["1100",
        "1111"],
    3: ["111000000",
        "111111111",
        "111111111"],
    4: ["1111000000000000",
        "1111111111111111",
        "1111111111111111",
        "1111111111111111"],
    5: ["1111100000000000000000000",
        "1111111111111111111111111",
        "1111111111111111111111111",
        "1111111111111111111111111",
        "1111111111111111111111111"],
}


def test_thm3_hat_image():
    for n, rows in THM3_HAT_ROWS.items():
        inst = thm3_hat_image(n)
        assert inst.times == tuple(tuple(float(c) for c in row) for row in rows)
        assert inst.big == BIG
    with pytest.raises(ValueError):
        thm3_hat_image(1)


def test_gen_canonical():
    assert gen_canonical(3, 0, 1, 2.0) == (1.0, 2.0, 1000002.0)
    assert gen_canonical(3, 2, 0, 0.5) == (0.5, 1000001.0, 1.0)
    with pytest.raises(ValueError):
        gen_canonical(3, 1, 1, 2.0)


def test_gen_circulant():
    a = gen_circulant(3, 2.0, 0.6)
    c = 2.0 * (math.sqrt(2) - 0.6) / 2
    assert a[0] == [0.0, c, 2 * c]
    assert a[1] == [2 * c, 0.0, c]
    assert a[2] == [c, 2 * c, 0.0]
    # premise: every column sums below (n-1) * alpha / sqrt(2)
    limit = 2 * 2.0 / math.sqrt(2)
    for j in range(3):
        assert sum(a[i][j] for i in range(3)) < limit


def test_gen_circulant_delta_bounds():
    with pytest.raises(ValueError):
        gen_circulant(3, 2.0, 0.0)
    with pytest.raises(ValueError):
        gen_circulant(3, 2.0, 1.5)  # >= sqrt(2)
    # delta <= sqrt(2)/n still *builds* (premise checking is the verifier's
    # job), it just fails the column-sum premise downstream
    a = gen_circulant(3, 2.0, 0.3)
    limit = 2 * 2.0 / math.sqrt(2)
    assert any(sum(a[i][j] for i in range(3)) >= limit for j in range(3))


GOLDEN_RANDOM_3x4_SEED7 = (
    (3.8000000000000003, 2.6, 2.8000000000000003, 3.6),
    (2.4000000000000004, 3.2, 3.4000000000000004, 1.0),
    (0.30000000000000004, 1.3, 1.2000000000000002, 3.5),
)


def test_gen_random_golden():
    inst = gen_random(3, 4, seed=7)
    assert inst.times == GOLDEN_RANDOM_3x4_SEED7


def test_gen_random_entries_are_grid_products():
    """Every entry must be bit-identical to integer * step, so grids anchored
    on the entries reproduce the exact same floats."""
    inst = gen_random(3, 6, seed=123)
    for row in inst.times:
        for x in row:
            k = round(x / 0.1)
            assert x == k * 0.1
            assert 0.1 <= x <= 4.0


def test_gen_random_determinism():
    a = gen_random(2, 5, seed=9)
    b = gen_random(2, 5, seed=9)
    c = gen_random(2, 5, seed=10)
    assert a.times == b.times
    assert a.times != c.times


@pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (3, 4, 7), (2, 9, 123), (7, 3, 2 ** 31 - 1)])
def test_gen_random_matches_numpy_scalar_construction(n, m, seed):
    """The instance is built from plain floats; every entry is bit-equal to
    the numpy product k * GRID_STEP of the same draw, in row-major order."""
    ks = np.random.default_rng(seed).integers(1, 41, size=(n, m))
    new = gen_random(n, m, seed)
    assert [[x.hex() for x in row] for row in new.times] == \
        [[x.hex() for x in row] for row in (ks * GRID_STEP).tolist()]
    assert all(type(x) is float for row in new.times for x in row)


# ----------------------------------------------------------- generator specs

def test_generator_spec_parse_and_label():
    spec = GeneratorSpec.parse("tilde:n=3,alpha=2")
    assert spec.name == "tilde"
    assert dict(spec.params) == {"n": 3, "alpha": 2.0}
    assert spec.label() == "tilde:alpha=2,n=3"
    inst = spec.build()
    assert inst.times == gen_hat(3, 2.0, "tilde").times


def test_generator_spec_no_params():
    spec = GeneratorSpec.parse("uniform:n=2")
    assert isinstance(spec.build(), Instance)


def test_generator_spec_unknown_name():
    with pytest.raises(ValueError):
        GeneratorSpec.parse("nosuch:n=2").build()


def test_generator_spec_thm3_hat():
    spec = GeneratorSpec.parse("thm3_hat:n=3")
    assert spec.label() == "thm3_hat:n=3"
    assert spec.build() == thm3_hat_image(3)


@pytest.mark.parametrize("text, names", [
    ("uniform", ("'uniform'", "'n'")),
    ("uniform:n=3,foo=2", ("'uniform'", "'foo'")),
    ("hat:n=3,alpha=2,variant=x", ("'hat'", "'variant'")),
    ("thm3_hat:n=2,k=1", ("'thm3_hat'", "'k'")),
    ("random:n=2,seed=1", ("'random'", "'m'")),
])
def test_generator_spec_names_a_missing_or_unknown_parameter(text, names):
    with pytest.raises(ValueError) as err:
        GeneratorSpec.parse(text).build()
    assert all(name in str(err.value) for name in names)


@pytest.mark.parametrize("text, message", [
    ("uniform:n=1.5", "generator 'uniform': parameter 'n' wants int, got '1.5'"),
    ("hat:n=3,alpha=zz", "generator 'hat': parameter 'alpha' wants float, got 'zz'"),
])
def test_generator_spec_names_a_value_that_does_not_convert(text, message):
    with pytest.raises(ValueError) as err:
        GeneratorSpec.parse(text)
    assert str(err.value) == message


GENERATOR_PARAMETERS = {
    "uniform": ["n"], "tradeoff": ["n", "rho"], "fp_pos": ["n", "eps"],
    "hat": ["n", "alpha"], "tilde": ["n", "alpha"], "random": ["n", "m", "seed"],
    "thm3_hat": ["n"],
}


def test_generators_take_only_their_family_parameters():
    assert {name: list(inspect.signature(builder).parameters)
            for name, builder in _BUILDERS.items()} == GENERATOR_PARAMETERS


@st.composite
def generator_specs(draw):
    name = draw(st.sampled_from(sorted(GENERATOR_PARAMETERS)))
    return GeneratorSpec(name, tuple(
        (key, draw(st.integers() if key in _INT_PARAMS else st.floats(allow_nan=False)))
        for key in GENERATOR_PARAMETERS[name]))


@given(generator_specs())
@example(GeneratorSpec("hat", (("n", 3), ("alpha", 2.0000001))))
@example(GeneratorSpec("tilde", (("n", 3), ("alpha", 999999.5))))
def test_a_spec_label_parses_back_to_the_spec(spec):
    assert GeneratorSpec.parse(spec.label()) == spec


@pytest.mark.parametrize("build, shape", [
    (lambda: gen_uniform(216), "216 x 46656"),
    (lambda: thm3_hat_image(216), "216 x 46656"),
    (lambda: gen_tradeoff(3163, 2.0), "3163 x 3163"),
    (lambda: gen_fp_pos(3163, 0.5), "3163 x 3163"),
    (lambda: gen_hat(3163, 2.0, "tilde"), "3163 x 3163"),
    (lambda: gen_random(10 ** 5, 101, seed=0), "100000 x 101"),
])
def test_generators_refuse_oversized_instances(build, shape):
    # each shape is the smallest past GENERATOR_BUDGET entries, refused before allocating
    with pytest.raises(BudgetExceededError, match=shape):
        build()
    assert 215 ** 3 <= GENERATOR_BUDGET < 216 ** 3


# ---------------------------------------------------------------- file I/O

def test_json_roundtrip(tmp_path):
    inst = gen_random(3, 4, seed=7)
    p = tmp_path / "r.json"
    save_instance(inst, str(p))
    back = load_instance(str(p))
    assert back.times == inst.times
    assert back.big == inst.big


def test_json_roundtrip_preserves_awkward_floats(tmp_path):
    inst = gen_fp_pos(3, 0.01)
    p = tmp_path / "fp.json"
    save_instance(inst, str(p))
    assert load_instance(str(p)).times == inst.times


def test_text_roundtrip(tmp_path):
    inst = gen_random(2, 3, seed=4)
    p = tmp_path / "r.txt"
    save_instance(inst, str(p))
    back = load_instance(str(p))
    assert back.times == inst.times
    assert back.big == inst.big


@pytest.mark.parametrize("name, head", [("i.txt", "3 3 1000000\n1.0 1.0 1.0\n"),
                                        ("i.json", '{\n "n": 3,\n "m": 3,')])
def test_one_pair_picks_the_format_from_the_extension(tmp_path, name, head):
    inst = gen_fp_pos(3, 0.01)
    p = tmp_path / name
    save_instance(inst, str(p))
    assert p.read_text().startswith(head)
    assert load_instance(str(p)) == inst
    assert load_instance(p) == inst  # a path object reads the same


def test_text_format_shape(tmp_path):
    inst = gen_tradeoff(3, 1.5)
    p = tmp_path / "t.txt"
    save_instance(inst, str(p))
    lines = p.read_text().strip().split("\n")
    assert lines[0].split() == ["3", "3", "1000000"]
    assert len(lines) == 4


@pytest.mark.parametrize("data, field", [
    ([1, 2], "'times'"),
    ({"times": 5, "big": 1e6}, "times:"),
    ({"times": [1.0, 2.0], "big": 1e6}, "times:"),
    ({"times": [[1.0, None]], "big": 1e6}, "times: row 0"),
    ({"times": [[1.0]]}, "'big'"),
    ({"big": 1e6}, "'times'"),
    ({"times": [[1.0]], "big": [1]}, "big:"),
])
def test_instance_from_dict_names_the_bad_field(data, field):
    with pytest.raises(ValueError) as err:
        instance_from_dict(data)
    assert field in str(err.value)


def test_dict_roundtrip():
    inst = gen_hat(3, 2.0, "hat")
    assert instance_from_dict(instance_to_dict(inst)).times == inst.times
    ints = {"times": [[1, 2], [2, 1]], "big": 1000000}  # a JSON int is a number
    assert instance_from_dict(ints) == Instance(((1.0, 2.0), (2.0, 1.0)))


# ---------------------------------------------------------------- suite

def test_regression_suite_composition():
    suite = regression_suite()
    names = [name for name, _ in suite]
    assert len(suite) >= 25
    assert len(set(names)) == len(names)
    for name, inst in suite:
        assert isinstance(inst, Instance)
        assert inst.n in (2, 3)
    assert "hat-3-2" in names
    assert "tilde-3-2" in names
