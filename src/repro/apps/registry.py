"""Application registry: one declarative record per evaluation app.

Maps app names to everything a driver needs — input generator, automaton
builder, precise reference, accuracy metric, preferred scheduling policy
and how to extract a saveable image from an output value.  Used by the
command-line interface and the serving layer (:func:`calibrate_app`
turns one entry into a server-ready builder, metric and profile); the
benchmarks keep their explicit per-figure
configurations so each figure's parameters remain visible in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.automaton import AnytimeAutomaton
from ..core.scheduling import (SchedulingPolicy, final_stage_shares,
                               proportional_shares)
from ..data.images import bayer_mosaic, clustered_image, scene_image
from ..metrics.snr import snr_db
from .conv2d import build_conv2d_automaton, conv2d_precise
from .debayer import build_debayer_automaton, debayer_precise
from .dwt53 import (build_dwt53_automaton, reconstruct,
                    reconstruction_metric)
from .histeq import build_histeq_automaton, histeq_precise
from .kmeans import (build_kmeans_automaton, clustered_image_metric,
                     kmeans_clustered)

__all__ = ["AppSpec", "APP_REGISTRY", "calibrate_app", "get_app"]


@dataclass(frozen=True)
class AppSpec:
    """Everything needed to drive one evaluation application."""

    name: str
    description: str
    make_input: Callable[[int, int], np.ndarray]
    build: Callable[[np.ndarray], AnytimeAutomaton]
    #: with ``reference_kind == "precise"``, the run's precise terminal
    #: value: equal, digest for digest, to ``build(image).precise_output()``
    reference: Callable[[np.ndarray], Any]
    #: metric(value, reference) -> dB; reference semantics per app
    metric: Callable[[Any, Any], float]
    #: what "reference" to hand the metric (``"precise"`` or ``"input"``)
    reference_kind: str
    schedule: SchedulingPolicy
    #: value -> uint8 image for saving (None when not imageable)
    to_image: Callable[[Any], np.ndarray] | None = None

    def reference_for(self, image: np.ndarray) -> Any:
        """What :attr:`metric` scores a value against for ``image``."""
        return (image if self.reference_kind == "input"
                else self.reference(image))


def _identity_image(value: Any) -> np.ndarray:
    return np.asarray(value)


APP_REGISTRY: dict[str, AppSpec] = {
    "2dconv": AppSpec(
        name="2dconv",
        description="9x9 blur; single diffusive tree-sampled stage",
        make_input=lambda size, seed: scene_image(size, seed=seed),
        build=build_conv2d_automaton,
        reference=conv2d_precise,
        metric=snr_db, reference_kind="precise",
        schedule=proportional_shares,
        to_image=_identity_image),
    "histeq": AppSpec(
        name="histeq",
        description="histogram equalization; 4-stage async pipeline",
        make_input=lambda size, seed: scene_image(size, seed=seed),
        build=build_histeq_automaton,
        reference=histeq_precise,
        metric=snr_db, reference_kind="precise",
        schedule=proportional_shares,
        to_image=_identity_image),
    "dwt53": AppSpec(
        name="dwt53",
        description="CDF 5/3 wavelet; iterative loop perforation",
        make_input=lambda size, seed: scene_image(size, seed=seed),
        build=build_dwt53_automaton,
        reference=lambda image: image,
        metric=reconstruction_metric(), reference_kind="input",
        schedule=proportional_shares,
        to_image=lambda coeffs: reconstruct(coeffs)),
    "debayer": AppSpec(
        name="debayer",
        description="RGGB demosaic; single diffusive tree-sampled stage",
        make_input=lambda size, seed: bayer_mosaic(size, seed=seed),
        build=build_debayer_automaton,
        reference=debayer_precise,
        metric=snr_db, reference_kind="precise",
        schedule=proportional_shares,
        to_image=_identity_image),
    "kmeans": AppSpec(
        name="kmeans",
        description="k-means colour clustering; assign + reduce",
        make_input=lambda size, seed: clustered_image(size, seed=seed,
                                                      clusters=6),
        build=lambda image: build_kmeans_automaton(image, k=6),
        reference=lambda image: kmeans_clustered(image, k=6),
        metric=clustered_image_metric, reference_kind="precise",
        schedule=final_stage_shares,
        to_image=lambda value: value["image"]),
}


def get_app(name: str) -> AppSpec:
    """Look up an application by name (KeyError lists the options)."""
    try:
        return APP_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown app {name!r}; known: "
            f"{sorted(APP_REGISTRY)}") from None


def calibrate_app(app: str = "2dconv", size: int = 32, seed: int = 7,
                  total_cores: float = 8.0) -> dict[str, Any]:
    """Calibrate one app for serving.

    Returns ``builder`` (fresh-automaton thunk), ``metric`` (value →
    dB against the fixed reference), ``profile`` (simulated
    runtime-accuracy curve) and ``baseline_wall_s`` (measured solo
    threaded wall time — normalized runtime 1.0 on this machine).
    """
    spec = get_app(app)
    image = spec.make_input(size, seed)
    reference = spec.reference_for(image)

    def builder() -> AnytimeAutomaton:
        return spec.build(image)

    def metric(value: Any) -> float:
        return spec.metric(value, reference)

    calib = builder()
    sim = calib.run_simulated(total_cores=total_cores,
                              schedule=spec.schedule)
    profile = calib.profile(sim, total_cores=total_cores,
                            metric=spec.metric, reference=reference,
                            label=f"{app} serve calibration")
    run = builder().run_threaded()
    return {
        "app": app, "size": size, "builder": builder, "metric": metric,
        "profile": profile, "baseline_wall_s": max(run.duration, 1e-6),
    }
