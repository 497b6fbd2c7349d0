"""lp-norm low-rank matrix approximation via minimum-volume enclosing ellipsoids.

Public surface:

- :mod:`lplr.matcore` dense linear-algebra substrate
- :mod:`lplr.lowner` Loewner ellipsoid of the level set {x : ||Ax||_p <= 1}
- :mod:`lplr.lpsvd`  ||.||_p-SVD factorizations (deterministic and randomized)
- :mod:`lplr.factor` rank-k approximation, error bounds, factor export
- :mod:`lplr.synth`, :mod:`lplr.matio`, :mod:`lplr.report`, :mod:`lplr.cli`
  synthetic data, matrix file formats, evaluation reports, command line
"""

from . import errors
from .factor import (
    Method,
    RankKApprox,
    assemble,
    error_bounds,
    l2_low_rank,
    low_rank,
    lp_low_rank,
    orient,
    truncate_factorization,
)
from .lowner import Ellipsoid, LevelSet, LownerConfig, LownerResult, lowner
from .lpsvd import LpSvd, lp_svd, lp_svd_randomized, randomized_conditioner, sandwich_check
from .matio import load_matrix, store_matrix
from .report import EvalReport, compression_rate, evaluate
from .synth import SyntheticSpec, generate_synthetic

__all__ = [
    "errors",
    "Method",
    "RankKApprox",
    "assemble",
    "error_bounds",
    "l2_low_rank",
    "low_rank",
    "lp_low_rank",
    "orient",
    "truncate_factorization",
    "Ellipsoid",
    "LevelSet",
    "LownerConfig",
    "LownerResult",
    "lowner",
    "LpSvd",
    "lp_svd",
    "lp_svd_randomized",
    "randomized_conditioner",
    "sandwich_check",
    "load_matrix",
    "store_matrix",
    "EvalReport",
    "compression_rate",
    "evaluate",
    "SyntheticSpec",
    "generate_synthetic",
]
