"""Anytime transformation toolkit.

Everything needed to turn an approximate-computing technique into an
*anytime* one (paper Section III-B): sampling permutations, commutative
operators and weighting, progressive fill policies, loop-perforation
schedules, bit-serial reduced precision, and the LFSR that drives
pseudo-random sampling.
"""

from .fill import (ConstantFill, FillPolicy, MeanFill, NearestFill,
                   Painter, TreeFill, sample_levels)
from .lfsr import MAXIMAL_TAPS, Lfsr, lfsr_sequence
from .operators import REGISTRY as OPERATOR_REGISTRY
from .operators import Operator, get_operator, register_operator
from .perforation import (StrideSchedule, geometric_strides,
                          perforated_indices)
from .permutations import (LfsrPermutation, Permutation,
                           ReversedPermutation, SequentialPermutation,
                           StridedPermutation, TreePermutation, bit_reverse,
                           is_permutation, split_blocked, split_cyclic)
from .precision import (AnytimeDotProduct, anytime_dot, bit_planes,
                        keep_top_bits, quantize_to_bits)

__all__ = [
    "ConstantFill", "FillPolicy", "MeanFill", "NearestFill", "Painter",
    "TreeFill", "sample_levels",
    "MAXIMAL_TAPS", "Lfsr", "lfsr_sequence",
    "OPERATOR_REGISTRY", "Operator", "get_operator", "register_operator",
    "StrideSchedule", "geometric_strides", "perforated_indices",
    "LfsrPermutation", "Permutation", "ReversedPermutation",
    "SequentialPermutation", "StridedPermutation", "TreePermutation",
    "bit_reverse", "is_permutation", "split_blocked", "split_cyclic",
    "AnytimeDotProduct", "anytime_dot", "bit_planes", "keep_top_bits",
    "quantize_to_bits",
]
