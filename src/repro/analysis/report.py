"""Markdown report generator: the whole reproduction in one document.

``pvc-bench report`` (or :func:`full_report`) renders every regenerated
table, the figure series, the expected bars, and the claim checklist into
a single Markdown document — the programmatic source of EXPERIMENTS.md's
comparison sections.
"""

from __future__ import annotations

import io

from ..dtypes import Precision
from ..errors import CampaignError
from ..hw.systems import get_system
from ..sim.engine import PerfEngine
from ..sim.noise import QUIET
from .compare import all_claims
from .figures import figure1, figure2, figure3, figure4, render_figure
from .paper_values import TABLE_II, TABLE_VI
from .tables import table_i, table_ii, table_iii, table_iv, table_v, table_vi

__all__ = [
    "claims_markdown",
    "full_report",
    "render_bench",
    "table2_markdown",
    "table6_markdown",
]

#: The paper artifacts :func:`render_bench` renders: the CLI commands of the
#: same names and the benchmark daemon's ``bench`` requests.  Each is a
#: pure function of ``(command, scenario, seed)``.
_BENCH_COMMANDS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "report",
)

_GEMM = {
    "dgemm": Precision.FP64,
    "sgemm": Precision.FP32,
    "hgemm": Precision.FP16,
    "bf16gemm": Precision.BF16,
    "tf32gemm": Precision.TF32,
    "i8gemm": Precision.I8,
}

_SCOPES = {"aurora": {1: 1, 2: 2, "node": 12}, "dawn": {1: 1, 2: 2, "node": 8}}


def _cell_value(engine: PerfEngine, row: str, n: int) -> float:
    if row in _GEMM:
        return engine.gemm_rate(_GEMM[row], n)
    if row == "fp64_flops":
        return engine.fma_rate(Precision.FP64, n)
    if row == "fp32_flops":
        return engine.fma_rate(Precision.FP32, n)
    if row == "triad":
        return engine.stream_bw(n)
    if row.startswith("pcie"):
        direction = row.split("_")[1]
        refs = engine.node.stacks()[:n]
        if n == 1:
            return engine.transfers.host_device_bw(refs[0], direction)
        return engine.transfers.node_host_bw(direction, refs)
    if row.startswith("fft"):
        return engine.fft_rate(int(row[4]), n)
    raise KeyError(row)


def _engines() -> dict[str, PerfEngine]:
    return {
        name: PerfEngine(get_system(name), noise=QUIET)
        for name in ("aurora", "dawn", "jlse-h100", "jlse-mi250")
    }


def table2_markdown() -> str:
    """Per-cell Table II comparison as a Markdown table."""
    engines = _engines()
    out = io.StringIO()
    out.write("| Row | System | Scope | Paper | Simulated | Dev |\n")
    out.write("|---|---|---|---|---|---|\n")
    for row, columns in TABLE_II.items():
        for system, cells in columns.items():
            for scope, paper in cells.items():
                n = _SCOPES[system][scope]
                got = _cell_value(engines[system], row, n)
                dev = 100 * (got - paper) / paper
                out.write(
                    f"| {row} | {system} | {scope} | {paper:.3g} | "
                    f"{got:.3g} | {dev:+.1f}% |\n"
                )
    return out.getvalue()


def table6_markdown() -> str:
    """Per-cell Table VI comparison as a Markdown table."""
    from ..apps import Hacc, OpenMc
    from ..errors import BuildError
    from ..miniapps import CloverLeaf, MiniBude, MiniQmc, Rimp2

    apps = {
        "minibude": MiniBude(),
        "cloverleaf": CloverLeaf(),
        "miniqmc": MiniQmc(),
        "rimp2": Rimp2(),
        "openmc": OpenMc(),
        "hacc": Hacc(),
    }
    engines = _engines()
    out = io.StringIO()
    out.write("| App | System | Scope | Paper | Simulated | Dev |\n")
    out.write("|---|---|---|---|---|---|\n")
    for app_key, columns in TABLE_VI.items():
        for system, cells in columns.items():
            engine = engines[system]
            for scope, paper in cells.items():
                n = engine.node.n_stacks if scope == "node" else int(scope)
                try:
                    got = apps[app_key].fom(engine, n)
                except BuildError:
                    got = None
                paper_s = "-" if paper is None else f"{paper:g}"
                got_s = "build fails" if got is None else f"{got:.4g}"
                dev = (
                    ""
                    if paper is None or got is None
                    else f"{100 * (got - paper) / paper:+.1f}%"
                )
                out.write(
                    f"| {app_key} | {system} | {scope} | {paper_s} | "
                    f"{got_s} | {dev} |\n"
                )
    return out.getvalue()


def claims_markdown() -> str:
    """The prose-claim checklist as a Markdown table."""
    out = io.StringIO()
    out.write("| Claim | Paper | Simulated | Holds |\n|---|---|---|---|\n")
    for c in all_claims():
        out.write(
            f"| {c.name} | {c.paper} | {c.simulated} | "
            f"{'yes' if c.holds else 'NO'} |\n"
        )
    return out.getvalue()


def figures_markdown() -> str:
    out = io.StringIO()
    out.write("### Figure 1 endpoints (cycles)\n\n")
    out.write("| System | L1 plateau | HBM plateau |\n|---|---|---|\n")
    for s in figure1():
        out.write(
            f"| {s.system} | {s.latency_cycles[0]:.0f} | "
            f"{s.latency_cycles[-1]:.0f} |\n"
        )
    for label, points in (
        ("Figure 2 (Aurora/Dawn)", figure2()),
        ("Figure 3 (vs H100)", figure3()),
        ("Figure 4 (vs MI250)", figure4()),
    ):
        out.write(f"\n### {label}\n\n")
        out.write("| App | Scope | Measured | Expected bar |\n|---|---|---|---|\n")
        for p in points:
            measured = "-" if p.ratio is None else f"{p.ratio:.2f}x"
            bar = "-" if p.expected.ratio is None else f"{p.expected.ratio:.2f}x"
            out.write(f"| {p.app} | {p.scope} | {measured} | {bar} |\n")
    return out.getvalue()


def fault_injection_markdown(ctx) -> str:
    """Fault-injection section: active scenario, schedules, incident log."""
    for name in ("aurora", "dawn"):
        # Materialise the per-system plans so the section can list them.
        ctx.engine(name)
    out = io.StringIO()
    out.write("```\n")
    out.write(ctx.describe())
    out.write("\n```\n")
    incidents = ctx.incident_log()
    if incidents:
        out.write("\nIncidents applied during this report:\n\n")
        for msg in incidents:
            out.write(f"- {msg}\n")
    out.write(f"\nWorst cell status: **{ctx.worst_status.name}**\n")
    return out.getvalue()


def full_report(ctx=None) -> str:
    """The complete reproduction report as Markdown.

    Pass an active :class:`~repro.faults.ExecutionContext` to append a
    fault-injection section documenting the scenario and its incidents.
    """
    parts = [
        "# Reproduction report",
        "",
        "## Table II: microbenchmarks",
        "",
        table2_markdown(),
        "## Table III: point-to-point",
        "",
        "```",
        table_iii(ctx=ctx).render(),
        "```",
        "",
        "## Table IV: reference GPUs",
        "",
        "```",
        table_iv().render(),
        "```",
        "",
        "## Table V: applications",
        "",
        "```",
        table_v(),
        "```",
        "",
        "## Table VI: figures of merit",
        "",
        table6_markdown(),
        "## Figures",
        "",
        figures_markdown(),
        "## Claims",
        "",
        claims_markdown(),
    ]
    if ctx is not None and ctx.active:
        parts += ["## Fault injection", "", fault_injection_markdown(ctx)]
    return "\n".join(parts)


def render_bench(command: str, ctx=None) -> str:
    """One paper artifact as text; ``ctx`` carries any injected faults."""
    if command == "table1":
        return table_i()
    if command == "table2":
        return table_ii(ctx=ctx).render()
    if command == "table3":
        return table_iii(ctx=ctx).render()
    if command == "table4":
        return table_iv().render()
    if command == "table5":
        return table_v()
    if command == "table6":
        return table_vi(ctx=ctx).render()
    if command == "report":
        return full_report(ctx)
    if command in ("fig1", "fig2", "fig3", "fig4"):
        return render_figure(command)
    raise CampaignError(
        f"unknown bench command {command!r}; choose from: "
        + ", ".join(_BENCH_COMMANDS)
    )
