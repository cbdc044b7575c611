"""Decentralized consensus optimization toolkit.

Implements a curvature-tracked second-order method ("Newton tracking")
in its q-form, with a primal-dual form as an independent oracle, and
first-order baselines: gradient tracking, and extra and dlm as q-form
instances with a constant curvature per node.  Also synthetic network
topologies with Metropolis mixing, logistic and quadratic objective
families, a numerical linear-rate certificate, and an experiment harness
with CLI entry points.
"""

from .algorithms import (GradientTrackingState, NewtonTrackingState,
                         PrimalDualState, centralized_reference, dlm_init,
                         dlm_step, extra_init, extra_step, gt_init, gt_step,
                         nt_init, nt_step, pd_init, pd_step, reg_solve)
from .analysis import (RateCertificate, consensus_penalty_matrix,
                       contraction_check, dual_optimum, g_norm_metric,
                       lemma_remainder_check, rate_certificate,
                       stationarity_identity_check)
from .harness import (AlgorithmSpec, ConvergenceTrace, DataSpec, RunConfig,
                      RunRecord, TopologySpec, load_record, preset,
                      run_checks, run_experiment, topology_sweep,
                      write_outputs)
from .objectives import (LogisticFamily, ObjectiveBounds, QuadraticFamily,
                         convexity_bounds, generate_logistic_data,
                         generate_quadratic_set)
from .topology import (Graph, MixingMatrix, SpectralStats, build_topology,
                       laplacian, metropolis_weights, spectral_stats,
                       topology_from_doc, topology_to_doc)

__version__ = "0.1.0"
