import vizsample

EXPORTED = {
    "InterchangeConfig", "KernelParams", "QualityReport", "ResponsibilitySet", "RunStats", "Sample",
    "StratifiedConfig", "WeightMatrix", "WeightedGraph", "attach_counts", "balanced_allocation",
    "bound_check", "brute_force_vas", "default_epsilon", "evaluate", "export_mip_lp", "gen_blobs",
    "kappa", "kappa_tilde", "log_loss_ratio", "make_params", "marginal_gain", "mc_loss", "point_loss",
    "read_points_csv", "read_sample_csv", "reduce_mes_to_vas", "reservoir_sample", "run_interchange",
    "solve_mes_brute", "stratified_sample", "submodular_f", "surrogate_objective", "weights_from_points",
    "write_points_csv", "write_sample_csv",
}  # fmt: skip


def test_public_names_are_pinned_and_importable():
    assert set(vizsample.__all__) == EXPORTED
    assert vizsample.__all__ == sorted(EXPORTED)
    ns: dict = {}
    exec("from vizsample import *", ns)
    assert set(ns) - {"__builtins__"} == EXPORTED
