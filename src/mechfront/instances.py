"""Instance generators, file formats, and the shared regression suite.

The named families reproduce the worked examples the analysis module leans
on:

  uniform     -- n machines, n^2 unit tasks; every mechanism's worst
                 equilibrium parks everything on one machine.
  thm3_hat    -- uniform(n) rewritten around its everything-on-machine-0
                 worst equilibrium: machine 0 keeps unit times on the first n
                 tasks and gets zeros on the rest, so that allocation stays
                 an equilibrium while the optimum collapses to 1.
  tradeoff    -- one flexible machine that can cover for everyone at cost
                 rho-1, n-1 specialists; equilibria trade makespan against
                 payments as rho grows.
  fp_pos      -- near-tied columns: first price keeps every task on machine 0
                 while the optimum spreads them at 1+eps, pushing the
                 best-equilibrium ratio toward n as eps -> 0.
  hat / tilde -- the reserve-price stress pair: n-1 specialist tasks the last
                 machine can also run, plus one task only the last machine
                 runs.  tilde makes the last machine slower by factor alpha
                 (worst equilibria pile onto it); hat makes the specialists
                 slower by alpha (bucket membership flips with the
                 mechanism's own alpha).
  random      -- seeded multiples of the 0.1 lattice step in [0.1, 4.0].

Every generator builds an Instance.  Two helpers build what the analysis
checks need and no file holds: `gen_canonical`, a single task's bid-vector
scaffold (time 1 on one machine, a on another, sentinels elsewhere) for the
probe ladders, and `gen_circulant`, a plain matrix hitting the combinatorial
bound's premises with equality margin delta.

Machine and task indices are 0-based everywhere.
"""
from __future__ import annotations

import inspect
import json
import math
import reprlib
from dataclasses import dataclass

from .model import DEFAULT_BIG, GRID_STEP, BudgetExceededError, Instance

GENERATOR_BUDGET = 10 ** 7  # entries of one generated instance


def _check_shape(n: int, m: int, min_n: int = 2) -> None:
    """Refuse fewer than min_n machines, and an n x m instance of more than
    GENERATOR_BUDGET entries before any of it is allocated."""
    if n < min_n:
        raise ValueError(f"need n >= {min_n}")
    if n * m > GENERATOR_BUDGET:
        raise BudgetExceededError(
            f"{n} x {m} = {n * m} entries exceed the generator budget {GENERATOR_BUDGET}")


def gen_uniform(n: int) -> Instance:
    """n machines, n^2 tasks, every true time 1."""
    _check_shape(n, n * n)
    return Instance(tuple((1.0,) * (n * n) for _ in range(n)))


def thm3_hat_image(n: int) -> Instance:
    """uniform(n) with machine 0's times zeroed past its first n tasks."""
    _check_shape(n, n * n)
    row0 = (1.0,) * n + (0.0,) * (n * n - n)
    return Instance((row0,) + ((1.0,) * (n * n),) * (n - 1))


def gen_tradeoff(n: int, rho: float) -> Instance:
    """Flexible machine 0 (n-1 on its own task, rho-1 on the others) plus
    n-1 specialists (n-1 on their task, sentinel elsewhere).  Past
    rho = DEFAULT_BIG machine 0's rho-1 would itself read as a sentinel."""
    _check_shape(n, n)
    if not 1 < rho <= DEFAULT_BIG:
        raise ValueError(f"need 1 < rho <= {DEFAULT_BIG}")
    row0 = [float(n - 1)] + [rho - 1] * (n - 1)
    times = [tuple(row0)]
    for i in range(1, n):
        row = [DEFAULT_BIG] * n
        row[i] = float(n - 1)
        times.append(tuple(row))
    return Instance(tuple(times))


def gen_fp_pos(n: int, eps: float) -> Instance:
    """Machine 0 runs all n tasks at 1; machine i >= 1 runs task i-1 at 1+eps.

    First price keeps every task on machine 0 (it is strictly fastest), so
    the best equilibrium makespan is n while the optimum spreads tasks at
    1+eps; the ratio n/(1+eps) climbs to n as eps shrinks.  From 1+eps =
    DEFAULT_BIG on the specialists' entries would read as sentinels.
    """
    _check_shape(n, n)
    if not (eps > 0 and 1.0 + eps < DEFAULT_BIG):
        raise ValueError(f"need eps > 0 and 1 + eps < {DEFAULT_BIG}")
    times = [(1.0,) * n]
    for i in range(1, n):
        row = [DEFAULT_BIG] * n
        row[i - 1] = 1.0 + eps
        times.append(tuple(row))
    return Instance(tuple(times))


def gen_canonical(n: int, fast: int, slow: int, a: float) -> tuple:
    """Single-task true-time vector: 1 at `fast`, `a` at `slow`, sentinels
    (DEFAULT_BIG + index) elsewhere.  Returns the vector, not an Instance."""
    if n < 2:
        raise ValueError("need n >= 2")
    if fast == slow or not (0 <= fast < n and 0 <= slow < n):
        raise ValueError("fast and slow must be distinct machine indices")
    if not a > 0:
        raise ValueError("need a > 0")
    vec = [DEFAULT_BIG + i for i in range(n)]
    vec[fast] = 1.0
    vec[slow] = float(a)
    return tuple(vec)


def gen_hat(n: int, alpha: float, variant: str) -> Instance:
    """The reserve-price stress pair (variant "tilde" or "hat").

    Both have n-1 specialist tasks plus one task only machine n-1 can run.
    tilde: specialists at 1, machine n-1 at alpha on their tasks, 1 on its
    own -- its bucket membership lets worst equilibria pile (n-1)*alpha + 1
    onto it.  hat: specialists at alpha, machine n-1 at 1 on their tasks,
    alpha on its own -- whether the specialists stay winnable depends on the
    mechanism's multiplier, which is what pins the best equilibrium.  At
    alpha = 1 both are one matrix, whose worst case n is first price's
    bound.  From alpha = DEFAULT_BIG the alpha entries would be sentinels.
    """
    _check_shape(n, n)
    if not 1 <= alpha < DEFAULT_BIG:
        raise ValueError(f"need 1 <= alpha < {DEFAULT_BIG}")
    if variant not in ("tilde", "hat"):
        raise ValueError("variant must be 'tilde' or 'hat'")
    spec_t, last_t = (1.0, float(alpha)) if variant == "tilde" else (float(alpha), 1.0)
    times = []
    for i in range(n - 1):
        row = [DEFAULT_BIG] * n
        row[i] = spec_t
        times.append(tuple(row))
    last = [last_t] * (n - 1) + [float(alpha) if variant == "hat" else 1.0]
    times.append(tuple(last))
    return Instance(tuple(times))


def gen_circulant(n: int, alpha: float, delta: float):
    """Matrix a[i][j] = c * ((j - i) mod n) with c = alpha*(sqrt(2)-delta)/(n-1).

    Zero diagonal, positive elsewhere; every column sums to
    alpha*n*(sqrt(2)-delta)/2, which sits below the combinatorial bound's
    premise (n-1)*alpha/sqrt(2) exactly when delta > sqrt(2)/n.  Returns a
    plain list of rows.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not alpha > 0:
        raise ValueError("need alpha > 0")
    if not 0 < delta < math.sqrt(2):
        raise ValueError("need 0 < delta < sqrt(2)")
    c = alpha * (math.sqrt(2) - delta) / (n - 1)
    return [[c * ((j - i) % n) for j in range(n)] for i in range(n)]


def gen_random(n: int, m: int, seed: int) -> Instance:
    """Seeded instance whose entries are k * GRID_STEP for k drawn from
    1..40, i.e. the multiples of 0.1 in [0.1, 4.0]: the very float products
    a Grid of that step generates, so enumeration and the analytic winner
    sets stay bit-for-bit comparable."""
    if m < 1:
        raise ValueError("need m >= 1")
    if seed < 0:
        raise ValueError("need seed >= 0")
    _check_shape(n, m, min_n=1)
    import numpy as np

    ks = np.random.default_rng(seed).integers(1, 41, size=(n, m))
    return Instance((ks * GRID_STEP).tolist())


# ---------------------------------------------------------------------------
# generator specs (CLI / frontier suites)
# ---------------------------------------------------------------------------

_BUILDERS = {
    "uniform": gen_uniform,
    "tradeoff": gen_tradeoff,
    "fp_pos": gen_fp_pos,
    "hat": lambda n, alpha: gen_hat(n, alpha, "hat"),
    "tilde": lambda n, alpha: gen_hat(n, alpha, "tilde"),
    "random": gen_random,
    "thm3_hat": thm3_hat_image,
}

_INT_PARAMS = {"n", "m", "seed"}


@dataclass(frozen=True)
class GeneratorSpec:
    """A named generator plus keyword parameters, e.g. hat with n=3, alpha=2."""

    name: str
    params: tuple = ()

    def __post_init__(self):
        if self.name not in _BUILDERS:
            raise ValueError(f"unknown generator {reprlib.repr(self.name)}")
        object.__setattr__(self, "params", tuple(sorted(dict(self.params).items())))

    @staticmethod
    def parse(text: str) -> "GeneratorSpec":
        """Parse 'name' or 'name:k=v,k=v' (ints where the parameter is one)."""
        name, _, rest = text.strip().partition(":")
        params = {}
        if rest:
            for part in rest.split(","):
                key, _, val = part.partition("=")
                if not _:
                    raise ValueError(f"bad generator parameter {reprlib.repr(part)}")
                key = key.strip()
                where = f"generator {reprlib.repr(name)}: parameter {reprlib.repr(key)}"
                if key in params:
                    raise ValueError(f"{where} given twice")
                kind = int if key in _INT_PARAMS else float
                try:
                    params[key] = kind(val)
                except ValueError:
                    raise ValueError(f"{where} wants {kind.__name__}, "
                                     f"got {reprlib.repr(val)}") from None
        return GeneratorSpec(name, tuple(params.items()))

    def build(self):
        builder = _BUILDERS[self.name]
        kwargs = dict(self.params)
        try:
            return builder(**kwargs)
        except TypeError:
            # name a missing, then an unknown parameter; re-raise any other fault
            sig = inspect.signature(builder)
            try:
                sig.bind(**{k: v for k, v in kwargs.items() if k in sig.parameters})
            except TypeError as e:
                raise ValueError(f"generator {self.name!r}: {e}") from None
            unknown = [k for k in kwargs if k not in sig.parameters]
            if unknown:
                raise ValueError(f"generator {self.name!r}: got an unexpected keyword "
                                 f"argument {reprlib.repr(unknown[0])}") from None
            raise

    def label(self) -> str:
        """The text `parse` reads back as this spec: a float is written with
        `:g` when that reads back as the same float, else in full."""
        if not self.params:
            return self.name
        return self.name + ":" + ",".join(
            f"{k}={v:g}" if isinstance(v, float) and float(f"{v:g}") == v else f"{k}={v}"
            for k, v in self.params)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def instance_to_dict(inst: Instance) -> dict:
    return {"n": inst.n, "m": inst.m, "big": inst.big,
            "times": [list(row) for row in inst.times]}


def _json_number(x, field: str) -> float:
    """A JSON int or float as a float; true, "2.5" and an int past the float
    range are refused, naming the field."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            pass
    raise ValueError(f"{field}: not a number: {reprlib.repr(x)}")


def instance_from_dict(data: dict) -> Instance:
    """Instance from its JSON form; a missing or malformed field is named."""
    for key in ("times", "big"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"instance has no {key!r} field")
    times = data["times"]
    if not isinstance(times, list) or not all(isinstance(row, list) for row in times):
        raise ValueError("times: must be a list of rows, each a list of numbers")
    big = _json_number(data["big"], "big")
    inst = Instance(tuple(tuple(_json_number(x, f"times: row {r}") for x in row)
                          for r, row in enumerate(times)), big)
    if inst.n != data.get("n", inst.n) or inst.m != data.get("m", inst.m):
        raise ValueError("declared shape does not match the times matrix")
    return inst


def _open(path: str, mode: str = "r"):
    """open(), whose OSError names the path cut short."""
    try:
        return open(path, mode)
    except OSError as e:
        raise type(e)(f"[Errno {e.errno}] {e.strerror}: {reprlib.repr(path)}") from None


def save_instance(inst: Instance, path: str) -> None:
    """A path ending in .txt gets the text format -- first line 'n m big',
    then one whitespace row per machine -- and any other JSON; both
    round-trip floats losslessly."""
    with _open(path, "w") as f:
        if str(path).endswith(".txt"):
            f.write(f"{inst.n} {inst.m} {inst.big!r}\n")
            f.writelines(" ".join(map(repr, row)) + "\n" for row in inst.times)
        else:
            json.dump(instance_to_dict(inst), f, indent=1)
            f.write("\n")


def load_instance(path: str) -> Instance:
    """Read what `save_instance` writes; the extension picks the format."""
    with _open(path) as f:
        if not str(path).endswith(".txt"):
            try:
                return instance_from_dict(json.load(f))
            except RecursionError:  # json's reader recurses once per nesting level
                raise ValueError("JSON nests too deeply to be an instance") from None
        head = f.readline().split()
        try:
            n, m, big = head
            n, m, big = int(n), int(m), float(big)
        except ValueError:
            raise ValueError("first line must be 'n m big', "
                             f"got {reprlib.repr(' '.join(head))}") from None
        rows = [line.split() for line in f if line.strip()]
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ValueError(f"expected {n} rows of {m} entries")
    return Instance(tuple(rows), big)


# ---------------------------------------------------------------------------
# regression suite
# ---------------------------------------------------------------------------

def regression_suite() -> list:
    """Named instances (n in {2, 3}) exercised by the analysis checks."""
    suite = [
        ("uniform-2", gen_uniform(2)),
        ("uniform-3", gen_uniform(3)),
        ("thm3hat-2", thm3_hat_image(2)),
        ("thm3hat-3", thm3_hat_image(3)),
        ("tradeoff-2-1.5", gen_tradeoff(2, 1.5)),
        ("tradeoff-3-1.5", gen_tradeoff(3, 1.5)),
        ("tradeoff-3-3", gen_tradeoff(3, 3.0)),
        ("fp_pos-2-0.01", gen_fp_pos(2, 0.01)),
        ("fp_pos-3-0.01", gen_fp_pos(3, 0.01)),
        ("fp_pos-3-0.005", gen_fp_pos(3, 0.005)),
        ("hat-2-2", gen_hat(2, 2.0, "hat")),
        ("hat-3-1.5", gen_hat(3, 1.5, "hat")),
        ("hat-3-2", gen_hat(3, 2.0, "hat")),
        ("hat-3-4", gen_hat(3, 4.0, "hat")),
        ("tilde-2-2", gen_hat(2, 2.0, "tilde")),
        ("tilde-3-1.5", gen_hat(3, 1.5, "tilde")),
        ("tilde-3-2", gen_hat(3, 2.0, "tilde")),
        ("tilde-3-4", gen_hat(3, 4.0, "tilde")),
    ]
    for seed in range(101, 106):
        suite.append((f"random-2x3-{seed}", gen_random(2, 3, seed)))
    for seed in range(201, 206):
        suite.append((f"random-3x4-{seed}", gen_random(3, 4, seed)))
    for seed in range(301, 303):
        suite.append((f"random-3x5-{seed}", gen_random(3, 5, seed)))
    return suite
