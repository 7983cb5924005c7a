"""Strategic scheduling on unrelated machines: payment rules that award each
task to its lowest bidder, exact optimal makespans, grid-equilibrium
enumeration, and the worst-case/best-case inefficiency frontier those
equilibria trace out."""

from .model import (
    DEFAULT_BIG,
    BudgetExceededError,
    Instance,
    MechanismId,
    loads,
    makespan,
)
from .rules import SingleTaskRule, rule_for
from .optsolver import (
    EligibilityMask,
    opt_makespan,
    opt_makespan_masked,
)
from .equilibria import (
    EnumerationResult,
    EquilibriumCertificate,
    Grid,
    VerifyResult,
    achievable_winners,
    canonical_certificate,
    default_grid,
    enumerate_equilibria,
    verify_equilibrium,
)
from .instances import (
    GeneratorSpec,
    gen_canonical,
    gen_circulant,
    gen_fp_pos,
    gen_hat,
    gen_random,
    gen_tradeoff,
    gen_uniform,
    load_instance,
    regression_suite,
    save_instance,
    thm3_hat_image,
)
from .analysis import (
    AnonymityResult,
    CombiPremiseError,
    FrontierPoint,
    InefficiencyReport,
    MonotonicityResult,
    anonymity_check,
    check_combi,
    check_tech1,
    combi_row_best,
    frontier_sweep,
    inefficiency,
    monotonicity_check,
    probe_matrix,
)

__version__ = "0.1.0"
