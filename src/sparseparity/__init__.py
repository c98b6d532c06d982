"""Learning sparse parities over GF(2).

The package splits [n] into parts, covers every k-subset of parts with a
random family of larger subsets, and runs a halving learner over the
affine solution spaces those subsets induce.  On top of that core sit a
PAC driver, exhaustive baselines for cross-checking, and a reduction
that tolerates label noise by enumerating candidate mislabel sets.
"""

from .cover import (
    CoverFamily,
    CoverParams,
    build_verified_family,
    family_size_m,
    ratio_bound_report,
    sample_family,
    verify_cover,
)
from .gf2 import AffineSpace, BitVector
from .noisy import (
    MitmInner,
    NoisyParams,
    PacOnlineInner,
    noisy_learn_report,
)
from .online import Active, Identified, LearnerState, new_learner
from .pac import PacParams, pac_learn
from .rng import SplitMix64
from .sources import (
    LabeledExample,
    ReplaySource,
    UniformSource,
    gen_hidden,
    read_stream,
    write_stream,
)

__version__ = "0.1.0"

__all__ = [
    "Active",
    "AffineSpace",
    "BitVector",
    "CoverFamily",
    "CoverParams",
    "Identified",
    "LabeledExample",
    "LearnerState",
    "MitmInner",
    "NoisyParams",
    "PacOnlineInner",
    "PacParams",
    "ReplaySource",
    "SplitMix64",
    "UniformSource",
    "build_verified_family",
    "family_size_m",
    "gen_hidden",
    "new_learner",
    "noisy_learn_report",
    "pac_learn",
    "ratio_bound_report",
    "read_stream",
    "sample_family",
    "verify_cover",
    "write_stream",
]
