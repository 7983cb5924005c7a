"""The public API of the package, pinned so that it only grows on purpose."""
import dataclasses
import types

import mechfront

PUBLIC_NAMES = [
    "AnonymityResult", "BudgetExceededError", "CombiPremiseError", "DEFAULT_BIG",
    "EligibilityMask", "EnumerationResult", "EquilibriumCertificate", "FrontierPoint",
    "GeneratorSpec", "Grid", "InefficiencyReport", "Instance", "MechanismId",
    "MonotonicityResult", "Outcome", "ProbeMatrix", "SingleTaskRule", "StrategyProfile",
    "UnsupportedMechanismError", "VerifyResult", "achievable_winners", "anonymity_check",
    "apply", "brute_force_makespan", "canonical_certificate", "check_combi", "check_tech1",
    "combi_row_best", "default_grid", "enumerate_equilibria", "frontier_sweep", "full_mask",
    "gen_canonical", "gen_circulant", "gen_fp_pos", "gen_hat", "gen_random", "gen_thm3_hat",
    "gen_tradeoff", "gen_uniform", "inefficiency", "load_instance", "load_text", "loads",
    "makespan", "monotonicity_check", "opt_makespan", "opt_makespan_masked",
    "payload_greedy", "probe_matrix", "regression_suite", "rule_for", "save_instance",
    "save_text", "thm3_hat_image", "utility", "verify_equilibrium",
]


def test_public_names():
    names = sorted(n for n in dir(mechfront) if not n.startswith("_")
                   and not isinstance(getattr(mechfront, n), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_record_fields():
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert fields(mechfront.MechanismId) == ["kind", "alpha"]
    assert fields(mechfront.EquilibriumCertificate) == \
        ["profile", "winner", "checked_deviations"]
    assert fields(mechfront.EnumerationResult) == ["profiles", "winners", "scanned"]
    assert fields(mechfront.ProbeMatrix) == ["a", "eps", "rule"]
