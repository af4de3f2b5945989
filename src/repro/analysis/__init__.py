"""Paper reproduction layer: published values, tables, figures, claims."""

from .compare import Claim, all_claims
from .expected import ExpectedBar, fig2_expected, fig3_expected, fig4_expected
from .figures import (
    FIGURE_TITLES,
    MINIAPP_ORDER,
    LatencySeries,
    RatioPoint,
    figure1,
    figure2,
    figure3,
    figure4,
    render_figure,
    render_ratio_points,
)
from .report import (
    claims_markdown,
    full_report,
    render_bench,
    table2_markdown,
    table6_markdown,
)
from .roofline_data import KernelPoint, RooflineSeries, paper_kernels, roofline_series
from .scaling_study import ScalingPoint, ScalingStudy, app_scaling, micro_scaling
from .paper_values import (
    FIG1_RELATIVE_LATENCY,
    MINIBUDE_PEAK_FRACTIONS,
    SCALING_QUOTES,
    TABLE_II,
    TABLE_III,
    TABLE_IV,
    TABLE_VI,
    scope_key,
)
from .tables import table_i, table_ii, table_iii, table_iv, table_v, table_vi

__all__ = [
    "Claim",
    "all_claims",
    "ExpectedBar",
    "fig2_expected",
    "fig3_expected",
    "fig4_expected",
    "MINIAPP_ORDER",
    "LatencySeries",
    "RatioPoint",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "render_figure",
    "render_ratio_points",
    "FIGURE_TITLES",
    "claims_markdown",
    "full_report",
    "render_bench",
    "table2_markdown",
    "table6_markdown",
    "KernelPoint",
    "RooflineSeries",
    "paper_kernels",
    "roofline_series",
    "ScalingPoint",
    "ScalingStudy",
    "app_scaling",
    "micro_scaling",
    "FIG1_RELATIVE_LATENCY",
    "MINIBUDE_PEAK_FRACTIONS",
    "SCALING_QUOTES",
    "TABLE_II",
    "TABLE_III",
    "TABLE_IV",
    "TABLE_VI",
    "scope_key",
    "table_i",
    "table_ii",
    "table_iii",
    "table_iv",
    "table_v",
    "table_vi",
]
