"""Batch-level correction of classifier outputs via Laplacian-adjusted
maximum likelihood, plus the scenario simulator and evaluation harness
built around it."""

__version__ = "0.1.0"

from .affinity import KernelSpec
from .harness import (
    CrossShiftMatrix,
    GridSearchResult,
    MethodSpec,
    RunResult,
    Scenario,
    aggregate_report,
    batch_size_sweep,
    collapse_demo,
    cross_shift_matrix,
    default_grid,
    grid_search,
    run_online,
    synthetic_family,
)
from .mapping import ClassMapping, parse_mapping, pool_average
from .numerics import softmax_rows
from .solver import (
    SolveDiagnostics,
    cccp_step,
    clamp_probs,
    lame_correct,
    lame_objective,
)
from .streams import (
    Batch,
    Dataset,
    ScenarioSpec,
    SyntheticConfig,
    generate_synthetic,
    generate_toy2d,
    load_embeddings,
    make_stream,
    save_embeddings,
    zipf_priors,
)
from .toy import (
    AdaptConfig,
    RunningStats,
    ToyModel,
    entropy_min_step,
    pseudo_label_step,
    shot_im_step,
    toy_predict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
