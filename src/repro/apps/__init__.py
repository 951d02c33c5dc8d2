"""Evaluation applications (PERFECT and AxBench, reimplemented).

Each module provides the precise baseline computation and a
``build_*_automaton`` factory constructing the paper's anytime pipeline
for that application (Section IV-A2).
"""

from .conv2d import (blur_kernel, build_conv2d_automaton, conv2d_elements,
                     conv2d_precise, sample_size_sweep)
from .conv2d_storage import (build_conv2d_sram_automaton,
                             sram_energy_report)
from .debayer import (build_debayer_automaton, debayer_elements,
                      debayer_precise)
from .dwt53 import (build_dwt53_automaton, dwt53_forward, dwt53_inverse,
                    dwt53_perforated, reconstruct, reconstruction_metric)
from .histeq import (build_histeq_automaton, equalization_lut,
                     histeq_precise, histogram, lut_from_cdf)
from .kmeans import (KMeansAssignStage, assign_pixels,
                     build_kmeans_automaton, clustered_image_metric,
                     initial_centroids, kmeans_precise)
from .registry import calibrate_app
from .search import (build_search_automaton, make_corpus, recall_at_k,
                     search_precise)

__all__ = [
    "blur_kernel", "build_conv2d_automaton", "conv2d_elements",
    "conv2d_precise", "sample_size_sweep",
    "build_conv2d_sram_automaton", "sram_energy_report",
    "build_debayer_automaton", "debayer_elements", "debayer_precise",
    "build_dwt53_automaton", "dwt53_forward", "dwt53_inverse",
    "dwt53_perforated", "reconstruct", "reconstruction_metric",
    "build_histeq_automaton", "equalization_lut", "histeq_precise",
    "histogram", "lut_from_cdf",
    "KMeansAssignStage", "assign_pixels", "build_kmeans_automaton",
    "clustered_image_metric", "initial_centroids", "kmeans_precise",
    "calibrate_app",
    "build_search_automaton", "make_corpus", "recall_at_k",
    "search_precise",
]
