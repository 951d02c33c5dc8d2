"""The benchmark's own idea of a right answer.

Precise outputs and their digests are computed here, by the apps'
sequential reference code, never taken from the serving path or the
executors under test.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.apps.registry import get_app
from repro.serve.fleet import value_digest

from workloads import SIZE

__all__ = ["make_input", "precise_output", "precise_digest",
           "quality_metric", "metric_and_digest"]


def make_input(app: str, seed: int) -> Any:
    return get_app(app).make_input(SIZE, seed)


def precise_output(app: str, image: Any) -> Any:
    record = get_app(app)
    if app == "2dconv":
        # same bits as the graph's precise pass at a third of the time
        return record.reference(image)
    return record.build(image).precise_output()


def precise_digest(app: str, seed: int, image: Any = None) -> str:
    """Digest of the precise output of spec ``(app, SIZE, seed)``."""
    if image is None:
        image = make_input(app, seed)
    return value_digest(precise_output(app, image))


def quality_metric(app: str, image: Any) -> Callable[[Any], float]:
    """``value -> dB`` for one input, as a fleet worker calibrates it."""
    return metric_and_digest(app, image)[0]


def metric_and_digest(app: str, image: Any,
                      ) -> tuple[Callable[[Any], float], str]:
    """The quality metric of one input and the digest of its precise
    output, sharing the one reference both need on ``2dconv``."""
    record = get_app(app)
    reference = (image if record.reference_kind == "input"
                 else record.reference(image))
    precise = reference if app == "2dconv" else precise_output(app, image)
    return (lambda value: record.metric(value, reference),
            value_digest(precise))
