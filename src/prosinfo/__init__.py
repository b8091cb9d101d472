"""Information content of partially rank-ordered set samples.

A PROS(n, S) design splits each judgment set of S units into n rank-ordered
subsets and measures one unit per set; RSS is PROS(n, n) and SRS is
PROS(1, 1).  The package quantifies Fisher information, Shannon/Renyi
entropy, and KL information of these designs under perfect and imperfect
subsetting, and regenerates the reference efficiency tables via the
``prosinfo`` command.
"""

from .numerics import (
    DEFAULT_SEED,
    InfoMatrix,
    IntegrandEvaluationError,
    MCEstimate,
    NumericsError,
    QuadratureNonConvergence,
    det_small,
    integrate,
    integrate_expectation,
    integrate_gram,
    integrate_unit_interval,
    mc_mean_batches,
    substream,
)
from .models import Model, ModelError, family_names, fisher_srs_unit, make_model
from .designs import (
    Design,
    DesignError,
    MisplacementMatrix,
    SetPlan,
    UnbalancedDesign,
    identity_alpha,
    make_balanced_design,
    make_symmetric_alpha,
    parse_design_file,
    parse_misplacement_csv,
    rss_design,
    validate_misplacement,
)
from .densities import (
    DensityError,
    bernstein_series,
    block_weight,
    rank_coefficients,
    unbalanced_weight,
)
from .sampling import (
    ProsSample,
    SamplingError,
    block_draws,
    draw_pros,
    draw_srs,
    draw_unbalanced_pros,
    estimate_alpha_for_partition,
    estimate_alphas,
    estimate_dell_clutter_alpha,
    estimate_unbalanced_alphas,
    sample_to_csv,
)
from .information import (
    DEFAULT_REPS,
    FIResult,
    InformationError,
    LemmaCheck,
    fi_pros_complete,
    fi_pros_marginal,
    fi_unbalanced,
    fisher_srs,
    h_matrix,
    k_matrix,
    regression_fi,
    relative_efficiencies,
    verify_lemma_identity,
)
from .entropy import (
    EntropyError,
    EntropyReport,
    kl_likelihood_chain,
    kl_pros_srs,
    renyi,
    shannon,
)
from .cli import RunConfig, TableCell, cells_to_csv, cells_to_markdown, run_custom, run_table

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
