"""Optimal dyadic (power-of-two) input distributions for discrete channels.

The core construction turns any nonnegative weight vector into the dyadic
PMF minimizing the Kullback-Leibler divergence to it, via a Huffman-style
tree build with a geometric-mean merge rule.  On top of that sit capacity
solvers for discrete memoryless channels and weighted noiseless channels,
block-extension experiments showing the per-use penalty vanish, and a
prefix-code distribution matcher that turns fair bits into channel symbols.
"""

from .approximators import gcc, ghc, huffman
from .dmc import (
    BlockDmcReport,
    CapacityResult,
    DmcSpec,
    blahut_arimoto,
    clamp_support,
    kkt_check,
    mi_lower_bound,
    mutual_information,
    optimize_block_dmc,
)
from .dnc import (
    BlockDncReport,
    DncCapacity,
    DncSpec,
    LecResult,
    dnc_capacity,
    entropy_per_weight,
    lec,
    optimize_block_dnc,
    weighted_target,
)
from .dyadic import (
    INF,
    CodeLengths,
    CodeTree,
    DyadicPmf,
    brute_force_min_kl,
    brute_force_optima,
    canonical_codewords,
    canonical_tree,
    codebook_text,
    enumerate_full_codes,
    parse_codebook,
)
from .errors import (
    ConvergenceError,
    DegenerateTreeError,
    DimensionMismatchError,
    GuardExceededError,
    SpecFileError,
    SupportConditionError,
)
from .matcher import BitSource, MatchReport, demodulate, modulate, simulate
from .pmf import Pmf, entropy, kl_divergence, product_pmf

__version__ = "0.1.0"

__all__ = [
    "BitSource",
    "BlockDmcReport",
    "BlockDncReport",
    "CapacityResult",
    "CodeLengths",
    "CodeTree",
    "ConvergenceError",
    "DegenerateTreeError",
    "DimensionMismatchError",
    "DmcSpec",
    "DncCapacity",
    "DncSpec",
    "DyadicPmf",
    "GuardExceededError",
    "INF",
    "LecResult",
    "MatchReport",
    "Pmf",
    "SpecFileError",
    "SupportConditionError",
    "blahut_arimoto",
    "brute_force_min_kl",
    "brute_force_optima",
    "canonical_codewords",
    "canonical_tree",
    "clamp_support",
    "codebook_text",
    "demodulate",
    "dnc_capacity",
    "entropy",
    "entropy_per_weight",
    "enumerate_full_codes",
    "gcc",
    "ghc",
    "huffman",
    "kkt_check",
    "kl_divergence",
    "lec",
    "mi_lower_bound",
    "modulate",
    "mutual_information",
    "optimize_block_dmc",
    "optimize_block_dnc",
    "parse_codebook",
    "product_pmf",
    "simulate",
    "weighted_target",
]
