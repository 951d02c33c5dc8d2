"""Marks the figure, ablation and extension benchmarks ``benchmarks``.

Tier-1 (``python -m pytest``) collects them beside ``tests/``;
``-m benchmarks`` selects them alone and ``-m 'not benchmarks'``
leaves them out.  The latency benchmark under ``latency/`` keeps its
own tests and is not marked.
"""

import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        path = pathlib.Path(item.path).resolve()
        if path.parent == HERE:
            item.add_marker(pytest.mark.benchmarks)
