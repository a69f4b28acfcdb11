"""varlive: nested sampling with run-time-varying live point allocation.

The pieces fit together as a benchmark loop: spherically symmetric test
models sampled exactly (`models`, `sampler`), run containers whose live
point counts derive from birth contours (`runs`), two dynamic allocation
schedulers (`dynamic`), estimators with bootstrap error analysis and
efficiency gains (`analysis`), and persistence plus a CLI harness for
matched-cost experiments (`runio`, `experiments`, `cli`).
"""

from .models import ModelSpec, analytic_log_evidence
from .runs import (NestedRun, combine_runs, live_point_counts,
                   point_log_weights, split_into_threads)
from .sampler import SamplerConfig, standard_run
from .dynamic import (AlgorithmOneConfig, AlgorithmTwoConfig, GoalConfig,
                      dynamic_run_algorithm1, dynamic_run_algorithm2)
from .analysis import (EstimatorId, bootstrap_resample, efficiency_gain,
                       estimate, estimates, weighted_quantile)
from .runio import load_run, save_run

__version__ = "0.1.0"

__all__ = [
    "ModelSpec", "analytic_log_evidence",
    "NestedRun", "combine_runs", "live_point_counts", "point_log_weights",
    "split_into_threads",
    "SamplerConfig", "standard_run",
    "AlgorithmOneConfig", "AlgorithmTwoConfig", "GoalConfig",
    "dynamic_run_algorithm1", "dynamic_run_algorithm2",
    "EstimatorId", "bootstrap_resample", "efficiency_gain", "estimate",
    "estimates", "weighted_quantile",
    "load_run", "save_run",
    "__version__",
]
