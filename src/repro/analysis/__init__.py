"""Regenerators for every table and figure in the paper's evaluation."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "calibration": ("HeadlineResult", "render_headline", "run_headline"),
    "export": ("figure4_csv", "figure5_csv", "sweep_csv", "table1_csv"),
    "figure3": ("Scenario", "check_figure3", "render_figure3", "run_figure3"),
    "figure4": (
        "Figure4Result", "check_figure4_shape", "render_figure4",
        "run_figure4",
    ),
    "figure5": (
        "Figure5Result", "check_figure5_shape", "render_figure5",
        "run_figure5",
    ),
    "figure_blame": (
        "CONFLICT_CAUSES", "FigureBlameResult", "check_figure_blame_shape",
        "conflict_share", "render_figure_blame", "run_figure_blame",
    ),
    "figure_degradation": (
        "FigureDegradationResult", "check_figure_degradation_shape",
        "figure_degradation_configs", "render_figure_degradation",
        "run_figure_degradation",
    ),
    "figure_policies": (
        "FigurePoliciesResult", "check_figure_policies_shape",
        "figure_policies_configs", "render_figure_policies",
        "run_figure_policies",
    ),
    "reproduce": ("ReproductionManifest", "reproduce_all"),
    "table1": ("Table1Result", "check_table1", "render_table1", "run_table1"),
    "table2": ("check_table2", "render_table2"),
})
