"""The package surface: each module's __all__, re-exported once by mmeskit."""

from __future__ import annotations

import pkgutil

import mmeskit
from mmeskit import bipartite, bitspace, cli, mmes, potential, search, states

MODULES = (bitspace, states, bipartite, potential, mmes, search, cli)

# The package's exports when they were still listed by hand in
# mmeskit/__init__.py, less the removed alias `energy_uniform` (use
# `pi_me_uniform`); code written against that list keeps working.
EARLIER_EXPORTS = (
    "__version__",
    "BasisIndex", "QubitMask", "Rational", "balanced_bipartitions", "binomial",
    "embed", "extract", "weight",
    "NormalizationWarning", "PolarState", "PureState", "SignVector",
    "apply_single_qubit_unitary", "assemble", "from_amplitudes", "fully_factorized",
    "ghz", "max_entangled_state", "permute_qubits", "polar", "random_phases",
    "random_state", "state_from_json", "state_to_json", "uniform_from_signs",
    "DensityMatrix", "SchmidtSpectrum", "bipartite_term_counts", "entanglement_E",
    "linear_entropy_L", "purity_form1", "purity_form2", "purity_uniform",
    "reduced_density_matrix", "schmidt_spectrum",
    "CouplingTable", "MonomialCounts", "admissible_q", "avg_linear_entropy",
    "build_coupling_table", "coupling_delta", "coupling_row_sum",
    "energy_uniform_exact", "g", "g_hat", "g_hat_dual", "monomial_counts",
    "pi_me_form1", "pi_me_form2", "pi_me_form4", "pi_me_uniform",
    "MmesVerdict", "PopulationVector", "WalshCoefficients", "catalog",
    "catalog_sign_vector", "equation_variable_counts", "free_coefficient_count",
    "is_perfect_mmes", "marginal", "marginal_uniformity_gap",
    "phase_equation_residual", "population", "population_from_walsh",
    "walsh_coefficients",
    "AnnealConfig", "SearchReport", "anneal", "exhaustive_search", "flip_delta",
    "main", "read_state", "run", "write_state",
)


def test_package_exports_each_module_surface_once():
    public = {m.name for m in pkgutil.iter_modules(mmeskit.__path__) if not m.name.startswith("_")}
    assert public == {m.__name__.rpartition(".")[2] for m in MODULES}

    names = mmeskit.__all__
    assert len(names) == len(set(names)) == 1 + sum(len(m.__all__) for m in MODULES)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mmeskit, name) is getattr(module, name), (module.__name__, name)

    star: dict = {}
    exec("from mmeskit import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert set(EARLIER_EXPORTS) <= set(names)
    assert not hasattr(mmeskit, "energy_uniform")
