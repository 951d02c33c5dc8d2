"""Per-figure experiment definitions.

One function per table/figure of the paper (see DESIGN.md's experiment
index).  Each returns a :class:`~repro.bench.harness.FigureData` whose
rows are the series the paper plots; the pytest-benchmark targets in
``benchmarks/`` call these and print the result.
"""

from __future__ import annotations

import numpy as np

from ..anytime.permutations import (LfsrPermutation, SequentialPermutation,
                                    TreePermutation)
from ..apps.conv2d import build_conv2d_automaton, sample_size_sweep
from ..apps.debayer import build_debayer_automaton
from ..apps.dwt53 import build_dwt53_automaton, reconstruction_metric
from ..apps.histeq import build_histeq_automaton
from ..apps.kmeans import build_kmeans_automaton, clustered_image_metric
from ..apps.pipeline_demo import ORGANIZATIONS, build_organization
from ..core.automaton import AnytimeAutomaton
from ..core.buffer import VersionedBuffer
from ..core.iterative import AccuracyLevel, IterativeStage
from ..core.scheduling import (POLICIES, equal_shares,
                               final_stage_shares, proportional_shares)
from ..data.images import bayer_mosaic, clustered_image, scene_image
from ..hw.cache import Cache, CacheConfig, trace_for_permutation
from ..hw.prefetch import run_prefetched_trace
from .harness import FigureData, bench_cores, bench_size, run_profile

__all__ = [
    "build_fig2_automaton", "fig02_pipeline_schedule",
    "fig10_organizations", "fig11_conv2d", "fig12_histeq", "fig13_dwt53",
    "fig14_debayer", "fig15_kmeans", "fig16_conv2d_output",
    "fig17_dwt53_output", "fig18_kmeans_output", "fig19_precision",
    "fig20_sram", "ablation_threads", "ablation_scheduling",
    "ablation_locality", "ablation_restart_policy",
    "ablation_prefetcher", "extension_sram_runtime",
    "extension_contract", "extension_dynamic_shares",
    "extension_energy",
]


# ---------------------------------------------------------------------------
# Figure 2 — pipeline interleaving


def build_fig2_automaton(cost: float = 100.0, size: int = 64,
                         f_scale: float = 2.0) -> AnytimeAutomaton:
    """The paper's four-stage example: f -> (g, h) -> i, each anytime
    with n = 2 intermediate computations.

    ``f`` is ``f_scale`` times more expensive than the other stages —
    the shape the paper's scheduling discussion assumes ("allocate more
    threads to the longest stage f").
    """
    x = np.arange(size, dtype=np.int64) * 3 + 1
    b_in = VersionedBuffer("input")
    b_f = VersionedBuffer("F")
    b_g = VersionedBuffer("G")
    b_h = VersionedBuffer("H")
    b_o = VersionedBuffer("O")

    def coarse(v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, np.int64) >> 4) << 4

    def two_level(fn, level_cost):
        return [AccuracyLevel(lambda *a, f=fn: coarse(f(*a)),
                              cost=level_cost, label="approx"),
                AccuracyLevel(fn, cost=level_cost, label="precise")]

    f = IterativeStage("f", b_f, (b_in,),
                       two_level(lambda x: x + 7, cost * f_scale))
    g = IterativeStage("g", b_g, (b_f,),
                       two_level(lambda F: F * 2, cost))
    h = IterativeStage("h", b_h, (b_f,),
                       two_level(lambda F: F + 100, cost))
    i = IterativeStage("i", b_o, (b_g, b_h),
                       two_level(lambda G, H: G + H, cost))
    return AnytimeAutomaton([f, g, h, i], name="fig2",
                            external={"input": x})


def fig02_pipeline_schedule() -> FigureData:
    """Output-version timeline of the Figure 2 pipeline."""
    automaton = build_fig2_automaton()
    baseline = automaton.baseline_duration(4.0)
    result = automaton.run_simulated(total_cores=4.0,
                                     schedule=equal_shares)
    fig = FigureData(
        "Figure 2", "parallel pipeline interleaving (O versions)",
        headers=("output", "runtime", "final"))
    for k, rec in enumerate(result.output_records("O"), start=1):
        fig.add(f"O_{k}", rec.time / baseline, rec.final)
    fig.note("early availability: the first whole-application output "
             "lands well before the precise one")
    return fig


# ---------------------------------------------------------------------------
# Figure 10 — organizations


def fig10_organizations(m: int = 64) -> FigureData:
    """Completion time of the five automaton organizations."""
    fig = FigureData(
        "Figure 10", "anytime automaton organizations (m x m dot "
        "product; one core per stage)",
        headers=("organization", "runtime vs baseline",
                 "first output"))
    reference: np.ndarray | None = None
    baseline_time: float | None = None
    for org in ORGANIZATIONS:
        automaton = build_organization(org, m=m)
        result = automaton.run_simulated(
            total_cores=float(len(automaton.graph.stages)),
            schedule=equal_shares)
        records = result.output_records(automaton.terminal_buffer_name)
        final = records[-1]
        if reference is None:
            reference = automaton.precise_output()
        if not np.array_equal(final.value, reference):
            raise AssertionError(
                f"organization {org!r} did not reach the precise output")
        if baseline_time is None:
            baseline_time = final.time
        fig.add(org, final.time / baseline_time,
                records[0].time / baseline_time)
    fig.note("expected ordering: sync < baseline = diffusive-async < "
             "iterative-async < iterative")
    return fig


# ---------------------------------------------------------------------------
# Figures 11-15 — runtime-accuracy profiles


def _profile_figure(figure: str, app: str, profile,
                    extra_notes: list[str] | None = None) -> FigureData:
    fig = FigureData(figure, f"{app} runtime-accuracy",
                     headers=("runtime", "SNR (dB)"))
    for runtime, snr in profile.to_rows():
        fig.add(runtime, snr)
    ttp = profile.time_to_precise
    fig.note(f"precise output (SNR inf) reached at "
             f"{ttp:.2f}x baseline" if ttp is not None
             else "precise output not reached (run was stopped)")
    for note in extra_notes or []:
        fig.note(note)
    return fig


def fig11_conv2d(size: int | None = None) -> FigureData:
    size = size or bench_size()
    image = scene_image(size, seed=0)
    profile, _, _ = run_profile(lambda: build_conv2d_automaton(image))
    return _profile_figure("Figure 11", "2dconv", profile)


def fig12_histeq(size: int | None = None) -> FigureData:
    size = size or bench_size()
    image = scene_image(size, seed=1)
    profile, _, _ = run_profile(lambda: build_histeq_automaton(image))
    return _profile_figure(
        "Figure 12", "histeq", profile,
        ["paper: precise reached at ~6x baseline due to the non-anytime "
         "CDF/normalize stages"])


def fig13_dwt53(size: int | None = None) -> FigureData:
    size = size or bench_size()
    image = scene_image(size, seed=2)
    profile, _, _ = run_profile(
        lambda: build_dwt53_automaton(image),
        metric=reconstruction_metric(), reference=image)
    return _profile_figure(
        "Figure 13", "dwt53", profile,
        ["steep curve: iterative loop perforation re-executes the "
         "transform at shrinking strides"])


def fig14_debayer(size: int | None = None) -> FigureData:
    size = size or bench_size()
    mosaic = bayer_mosaic(size, seed=3)
    profile, _, _ = run_profile(lambda: build_debayer_automaton(mosaic))
    return _profile_figure("Figure 14", "debayer", profile)


def fig15_kmeans(size: int | None = None, k: int = 6) -> FigureData:
    size = size or max(bench_size() // 2, 64)
    image = clustered_image(size, seed=4, clusters=k)
    profile, _, _ = run_profile(
        lambda: build_kmeans_automaton(image, k=k),
        schedule=final_stage_shares, metric=clustered_image_metric)
    return _profile_figure(
        "Figure 15", "kmeans", profile,
        ["final-stage scheduling policy (paper IV-C2): the reduce stage "
         "re-runs per assignment version, so boosting it shrinks the "
         "output gap"])


# ---------------------------------------------------------------------------
# Figures 16-18 — halted sample outputs


def _halted_output(figure: str, app: str, profile,
                   paper_runtime: float, paper_snr: float) -> FigureData:
    fig = FigureData(
        figure, f"{app} output halted near the paper's operating point",
        headers=("quantity", "paper", "measured"))
    snr = profile.snr_at(paper_runtime)
    fig.add("halt runtime (x baseline)", paper_runtime, paper_runtime)
    fig.add("SNR at halt (dB)", paper_snr, snr)
    target = profile.time_to_snr(paper_snr)
    fig.add("runtime to reach paper SNR", "-",
            target if target is not None else float("nan"))
    return fig


def fig16_conv2d_output(size: int | None = None) -> FigureData:
    size = size or bench_size()
    image = scene_image(size, seed=0)
    profile, _, _ = run_profile(lambda: build_conv2d_automaton(image))
    return _halted_output("Figure 16", "2dconv", profile,
                          paper_runtime=0.21, paper_snr=15.8)


def fig17_dwt53_output(size: int | None = None) -> FigureData:
    size = size or bench_size()
    image = scene_image(size, seed=2)
    profile, _, _ = run_profile(
        lambda: build_dwt53_automaton(image),
        metric=reconstruction_metric(), reference=image)
    return _halted_output("Figure 17", "dwt53", profile,
                          paper_runtime=0.78, paper_snr=16.8)


def fig18_kmeans_output(size: int | None = None, k: int = 6) -> FigureData:
    size = size or max(bench_size() // 2, 64)
    image = clustered_image(size, seed=4, clusters=k)
    profile, _, _ = run_profile(
        lambda: build_kmeans_automaton(image, k=k),
        schedule=final_stage_shares, metric=clustered_image_metric)
    return _halted_output("Figure 18", "kmeans", profile,
                          paper_runtime=0.63, paper_snr=16.7)


# ---------------------------------------------------------------------------
# Figures 19-20 — precision and approximate-storage sweeps


def fig19_precision(size: int | None = None) -> FigureData:
    """2dconv sample size vs SNR at 8/6/4/2-bit pixel precision."""
    size = size or bench_size()
    image = scene_image(size, seed=0)
    fig = FigureData(
        "Figure 19", "2dconv accuracy vs sample size, by pixel precision",
        headers=("bits", "sample fraction", "SNR (dB)"))
    n = image.size
    for bits in (8, 6, 4, 2):
        for count, snr in sample_size_sweep(image, pixel_bits=bits):
            fig.add(bits, count / n, snr)
    fig.note("paper full-sample anchors: 6-bit ~37.9 dB, 4-bit ~24.2 dB")
    return fig


def fig20_sram(size: int | None = None) -> FigureData:
    """2dconv sample size vs SNR under SRAM read upsets."""
    size = size or bench_size()
    image = scene_image(size, seed=0)
    fig = FigureData(
        "Figure 20",
        "2dconv accuracy vs sample size, by SRAM read-upset probability",
        headers=("upset prob", "sample fraction", "SNR (dB)"))
    n = image.size
    for prob, label in ((0.0, "0%"), (1e-7, "0.00001%"),
                        (1e-5, "0.001%")):
        for count, snr in sample_size_sweep(image, read_upset_prob=prob,
                                            seed=7):
            fig.add(label, count / n, snr)
    fig.note("curves overlay at small sample sizes: flips scale with "
             "elements processed (paper IV-B2)")
    return fig


# ---------------------------------------------------------------------------
# Ablations (paper Section IV-C)


def ablation_threads(size: int = 4096) -> FigureData:
    """Multi-threaded sampling (IV-C1): cyclic splits preserve coverage."""
    from ..anytime.permutations import split_blocked, split_cyclic

    fig = FigureData(
        "Ablation A", "multi-threaded sampling: global coverage after "
        "each worker processed k elements",
        headers=("permutation", "workers", "split", "k",
                 "coverage matches prefix"))
    for perm in (TreePermutation(), LfsrPermutation(seed=3)):
        order = perm.order(size)
        for workers in (2, 8, 32):
            for split_name, split in (("cyclic", split_cyclic),
                                      ("blocked", split_blocked)):
                parts = split(order, workers)
                k = min(len(p) for p in parts) // 2
                done = np.concatenate([p[:k] for p in parts])
                prefix = set(order[:k * workers].tolist())
                fig.add(perm.name, workers, split_name, k,
                        set(done.tolist()) == prefix)
    fig.note("cyclic splits keep the first k*workers elements of the "
             "global sequence complete; blocked splits do not")
    return fig


def ablation_scheduling(cost: float = 100.0) -> FigureData:
    """Pipeline scheduling (IV-C2): allocation policy tradeoffs."""
    fig = FigureData(
        "Ablation B", "scheduling policy vs first-output time and "
        "output gap (Figure 2 pipeline, 8 cores)",
        headers=("f/other cost", "policy", "first output", "mean gap",
                 "time to precise"))
    for f_scale in (2.0, 10.0):
        for name, policy in POLICIES.items():
            automaton = build_fig2_automaton(cost=cost, f_scale=f_scale)
            result = automaton.run_simulated(total_cores=8.0,
                                             schedule=policy)
            records = result.output_records("O")
            times = [r.time for r in records]
            gaps = np.diff(times)
            fig.add(f_scale, name, times[0],
                    float(gaps.mean()) if len(gaps) else 0.0, times[-1])
    fig.note("final-stage allocation minimizes the inter-output gap in "
             "both pipeline shapes (paper IV-C2); boosting the longest "
             "stage only pays off when it truly dominates")
    fig.note("correctness is schedule-independent; only the output "
             "granularity moves")
    return fig


def ablation_locality(elements: int = 16384) -> FigureData:
    """Data locality (IV-C3): cache miss rates and DRAM row-buffer hit
    rates by permutation, with and without a permutation-aware
    prefetcher."""
    from ..hw.rowbuffer import RowBufferModel

    fig = FigureData(
        "Ablation C", "cache and row-buffer locality of sampling "
        "permutations",
        headers=("permutation", "miss rate", "prefetched miss rate",
                 "row-buffer hit rate"))
    config = CacheConfig(size_bytes=8 * 1024, line_bytes=64, ways=4)
    for perm in (SequentialPermutation(), TreePermutation(),
                 LfsrPermutation(seed=5)):
        trace = trace_for_permutation(perm.order(elements),
                                      element_bytes=4)
        plain = Cache(config)
        plain.run_trace(trace)
        fetched = run_prefetched_trace(trace, Cache(config), depth=16)
        rows = RowBufferModel().run_trace(trace)
        fig.add(perm.name, plain.stats.miss_rate, fetched.miss_rate,
                rows.hit_rate)
    fig.note("motivates DEFAULT_ACCESS_PENALTIES and the prefetcher "
             "discount (paper IV-C3)")
    fig.note("the tree order additionally aliases its early "
             "power-of-two strides onto one cache set — a conflict "
             "pathology prefetch depth cannot fix")
    return fig


# ---------------------------------------------------------------------------
# Extensions beyond the paper's figures


def ablation_restart_policy(size: int | None = None) -> FigureData:
    """Restart policy (complete vs preempt) on histeq's apply stage.

    The paper's asynchronous pipeline lets a child finish its current
    pass before looking at newer input versions; preempting instead
    abandons stale passes, reaching the precise output earlier at the
    cost of fewer intermediate outputs.
    """
    from ..apps.histeq import build_histeq_automaton

    size = size or max((bench_size()) // 2, 64)
    image = scene_image(size, seed=1)
    fig = FigureData(
        "Extension D", "histeq restart policy: complete vs preempt",
        headers=("policy", "time to precise", "output versions"))
    for policy in ("complete", "preempt"):
        profile, _, _ = run_profile(
            lambda: build_histeq_automaton(image, restart_policy=policy))
        fig.add(policy, profile.time_to_precise, len(profile))
    fig.note("preempting stale passes trades intermediate outputs for "
             "an earlier precise finish")
    return fig


def ablation_prefetcher(size: int | None = None) -> FigureData:
    """The three IV-C3 locality mitigations applied end to end.

    plain (penalty 1.8x) vs permutation-aware prefetcher (1.1x) vs
    near-data in-memory reordering (sequential access + one streaming
    reorder pass per execution).
    """
    from ..apps.conv2d import build_conv2d_automaton
    from ..apps.debayer import build_debayer_automaton

    size = size or max(bench_size() // 2, 64)
    fig = FigureData(
        "Extension E", "app time-to-precise under the IV-C3 locality "
        "mitigations",
        headers=("app", "plain", "prefetched", "reordered"))
    image = scene_image(size, seed=0)
    mosaic = bayer_mosaic(size, seed=3)
    for name, build in (
            ("2dconv", lambda kw: build_conv2d_automaton(image, **kw)),
            ("debayer", lambda kw: build_debayer_automaton(
                mosaic, **kw))):
        times = []
        for kw in ({}, {"prefetcher": True}, {"reorder": True}):
            profile, _, _ = run_profile(lambda: build(kw))
            times.append(profile.time_to_precise)
        fig.add(name, *times)
    fig.note("paper IV-C3: deterministic permutations admit simple "
             "prefetchers, and static permutations allow in-memory "
             "reordering — which removes the penalty entirely for one "
             "cheap streaming pass")
    return fig


def extension_sram_runtime(size: int | None = None) -> FigureData:
    """Runtime-accuracy of conv2d on drowsy SRAM (iterative, III-B1).

    Complements Figure 20's sample-size view: the automaton re-executes
    the convolution at rising supply voltage, flushing between levels.
    """
    from ..apps.conv2d import conv2d_precise
    from ..apps.conv2d_storage import build_conv2d_sram_automaton
    from ..hw.sram import VoltageLevel
    from ..metrics.snr import snr_db

    size = size or max(bench_size() // 2, 64)
    image = scene_image(size, seed=0)
    reference = conv2d_precise(image)
    fig = FigureData(
        "Extension F", "2dconv on drowsy SRAM: runtime-accuracy of the "
        "iterative voltage ladder",
        headers=("level", "runtime", "SNR (dB)"))
    # A hotter ladder than Figure 20's: the benchmark images are small,
    # so the paper's per-bit probabilities would flip < 1 bit per level
    # and every version would be exact.
    ladder = (VoltageLevel("0.1%", 1e-3, 0.05),
              VoltageLevel("0.01%", 1e-4, 0.15),
              VoltageLevel("nominal", 0.0, 1.0))
    automaton = build_conv2d_sram_automaton(image, ladder=ladder,
                                            seed=11)
    baseline = automaton.baseline_duration(bench_cores())
    result = automaton.run_simulated(total_cores=bench_cores())
    stage = automaton.graph.stages[0]
    for level, record in zip(stage.levels,
                             result.output_records("filtered")):
        fig.add(level.label, record.time / baseline,
                snr_db(record.value, reference))
    fig.note("storage upsets are destructive: each level flushes the "
             "array before computing (paper III-B1)")
    return fig


def extension_contract(size: int | None = None) -> FigureData:
    """Contract vs interruptible execution at fixed deadlines (II-B).

    Knowing the deadline up front lets a contract run skip the coarse
    iterative passes; interruptible execution keeps the anytime
    guarantees but carries the redundant-work tax to the deadline.
    """
    from ..apps.dwt53 import build_dwt53_automaton, reconstruction_metric
    from ..core.contract import run_contract
    from ..core.controller import DeadlineStop

    size = size or max(bench_size() // 2, 64)
    image = scene_image(size, seed=2)
    metric = reconstruction_metric()
    cores = bench_cores()
    fig = FigureData(
        "Extension G", "dwt53: contract vs interruptible at a known "
        "deadline",
        headers=("deadline", "interruptible SNR", "contract SNR"))
    for fraction in (0.3, 0.7, 1.2, 2.5):
        inter = build_dwt53_automaton(image)
        deadline = inter.baseline_duration(cores) * fraction
        res = inter.run_simulated(total_cores=cores,
                                  stop=DeadlineStop(deadline))
        records = res.output_records("coeffs")
        inter_snr = (metric(records[-1].value, image) if records
                     else float("-inf"))
        _, cres, _ = run_contract(
            lambda: build_dwt53_automaton(image), fraction,
            total_cores=cores)
        crecords = cres.output_records("coeffs")
        contract_snr = metric(crecords[-1].value, image)
        fig.add(fraction, inter_snr, contract_snr)
    fig.note("the contract run wins at tight deadlines but gives up "
             "interruptibility and the eventual-precision guarantee")
    return fig


def extension_dynamic_shares(size: int | None = None) -> FigureData:
    """Dynamic core reallocation (IV-C2's future-work scheduler).

    Generalized processor sharing: a stage that blocks or finishes
    donates its cores.  Pipelines with idle phases (histeq's apply
    waiting on the histogram; kmeans' reduce between assignment
    versions) gain the most; outputs are bit-identical either way.
    """
    from ..apps.histeq import build_histeq_automaton
    from ..apps.kmeans import build_kmeans_automaton

    size = size or max(bench_size() // 2, 64)
    image = scene_image(size, seed=1)
    rgb = clustered_image(size // 2, seed=4, clusters=6)
    fig = FigureData(
        "Extension H", "time-to-precise under static vs dynamic core "
        "assignment",
        headers=("app", "static", "dynamic"))
    cores = bench_cores()
    for name, build, schedule in (
            ("histeq", lambda: build_histeq_automaton(image),
             proportional_shares),
            ("kmeans", lambda: build_kmeans_automaton(rgb, k=6),
             final_stage_shares)):
        times = []
        for dyn in (False, True):
            automaton = build()
            result = automaton.run_simulated(total_cores=cores,
                                             schedule=schedule,
                                             dynamic_shares=dyn)
            final = result.timeline.final_record(
                automaton.terminal_buffer_name)
            times.append(final.time
                         / automaton.baseline_duration(cores))
        fig.add(name, times[0], times[1])
    fig.note("idle stages donate their cores; final outputs are "
             "bit-identical under both schedulers")
    return fig


def extension_energy(size: int | None = None) -> FigureData:
    """Energy-to-acceptability across the applications.

    The automaton's promise is that acceptability governs *time and
    energy*: this table reports the fraction of the full run's energy
    each app spends to reach a mid-quality (15 dB) and a high-quality
    (25 dB) output.
    """
    from ..apps.conv2d import build_conv2d_automaton
    from ..apps.debayer import build_debayer_automaton
    from ..apps.histeq import build_histeq_automaton

    size = size or max(bench_size() // 2, 64)
    image = scene_image(size, seed=0)
    mosaic = bayer_mosaic(size, seed=3)
    fig = FigureData(
        "Extension I", "energy fraction to reach a target SNR",
        headers=("app", "15 dB", "25 dB"))
    for name, build in (
            ("2dconv", lambda: build_conv2d_automaton(image)),
            ("histeq", lambda: build_histeq_automaton(
                scene_image(size, seed=1))),
            ("debayer", lambda: build_debayer_automaton(mosaic))):
        profile, result, automaton = run_profile(build)
        total = result.energy
        cells = []
        for target in (15.0, 25.0):
            energy = profile.energy_to_snr(target)
            cells.append(energy / total if energy is not None
                         else float("nan"))
        fig.add(name, *cells)
    fig.note("energy is cumulative abstract work units (see "
             "repro.hw.energy); stopping early saves proportionally")
    return fig
