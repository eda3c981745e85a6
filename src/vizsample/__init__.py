"""Visualization-aware subset selection for 2-D point data."""

from .baselines import StratifiedConfig, balanced_allocation, reservoir_sample, stratified_sample
from .dataio import Sample, gen_blobs, read_points_csv, read_sample_csv, write_points_csv, write_sample_csv
from .density import attach_counts
from .exact import (
    WeightedGraph,
    WeightMatrix,
    brute_force_vas,
    export_mip_lp,
    reduce_mes_to_vas,
    solve_mes_brute,
    weights_from_points,
)
from .geometry import KernelParams, default_epsilon, kappa, kappa_tilde, make_params
from .interchange import InterchangeConfig, ResponsibilitySet, RunStats, run_interchange
from .quality import (
    QualityReport,
    bound_check,
    evaluate,
    log_loss_ratio,
    marginal_gain,
    mc_loss,
    point_loss,
    submodular_f,
    surrogate_objective,
)

__version__ = "0.1.0"

# the classes and functions imported above, not the submodules they come from
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and callable(v))
