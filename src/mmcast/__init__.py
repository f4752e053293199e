"""Multisource multicast toolkit.

Decides whether every client of a capacitated DAG can recover a file held
as correlated side information across the source nodes, computes
minimum-linear-cost per-edge rate allocations (single- and multi-client),
and, for linearly correlated sources, constructs and verifies an explicit
finite-field network code end to end.
"""

__version__ = "0.1.0"

from .entropy import EntropyOracle, LinearSource, PmfSource, TabularSource, validate_polymatroid
from .errors import MmcastError
from .feasibility import (FeasibilityCertificate, FeasibilityReport, check_feasible_multi,
                          check_feasible_single)
from .instance_io import load_instance
from .model import (ClientSubproblem, Edge, NetworkInstance, boundary, check_reconstructability,
                    client_subproblem, validate_instance)
from .multi_client import (MulticastRates, StepSchedule, SubgradientResult,
                           solve_multi_bruteforce, solve_multi_exact, solve_multi_subgradient,
                           step_size)
from .netcode import (CodeAssignment, CodedNetwork, assign_coefficients, build_coded_network,
                      build_decoder, propagate_global_vectors, simulate, transfer_matrix)
from .single_client import (SingleClientSolution, solve_single_client,
                            solve_single_client_bruteforce)
from .submodular import SetFunction, in_base_polyhedron, sfm_brute_force

__all__ = [
    "__version__",
    "EntropyOracle", "LinearSource", "PmfSource", "TabularSource", "validate_polymatroid",
    "MmcastError",
    "FeasibilityCertificate", "FeasibilityReport", "check_feasible_multi",
    "check_feasible_single",
    "load_instance",
    "ClientSubproblem", "Edge", "NetworkInstance", "boundary", "check_reconstructability",
    "client_subproblem", "validate_instance",
    "MulticastRates", "StepSchedule", "SubgradientResult", "solve_multi_bruteforce",
    "solve_multi_exact", "solve_multi_subgradient", "step_size",
    "CodeAssignment", "CodedNetwork", "assign_coefficients", "build_coded_network",
    "build_decoder", "propagate_global_vectors", "simulate", "transfer_matrix",
    "SingleClientSolution", "solve_single_client", "solve_single_client_bruteforce",
    "SetFunction", "in_base_polyhedron", "sfm_brute_force",
]
