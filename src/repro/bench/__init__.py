"""Benchmark harness: experiment definitions regenerating every figure."""

from .experiments import (ablation_locality, ablation_prefetcher,
                          ablation_restart_policy, ablation_scheduling,
                          ablation_threads, build_fig2_automaton,
                          extension_contract, extension_dynamic_shares,
                          extension_energy, extension_sram_runtime,
                          fig02_pipeline_schedule, fig10_organizations,
                          fig11_conv2d, fig12_histeq, fig13_dwt53,
                          fig14_debayer, fig15_kmeans,
                          fig16_conv2d_output, fig17_dwt53_output,
                          fig18_kmeans_output, fig19_precision,
                          fig20_sram)
from .harness import (FigureData, bench_cores, bench_size, format_rows,
                      run_profile)

__all__ = [
    "ablation_locality", "ablation_prefetcher",
    "ablation_restart_policy", "ablation_scheduling", "ablation_threads",
    "extension_contract", "extension_dynamic_shares",
    "extension_energy", "extension_sram_runtime",
    "build_fig2_automaton", "fig02_pipeline_schedule",
    "fig10_organizations", "fig11_conv2d", "fig12_histeq", "fig13_dwt53",
    "fig14_debayer", "fig15_kmeans", "fig16_conv2d_output",
    "fig17_dwt53_output", "fig18_kmeans_output", "fig19_precision",
    "fig20_sram",
    "FigureData", "bench_cores", "bench_size", "format_rows",
    "run_profile",
]
