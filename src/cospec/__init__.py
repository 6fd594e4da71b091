"""Verification lab for pretraining objectives on an enumerable toy corpus.

Builds the exact joint distribution each objective induces, checks the
closed-form singular spectra and the loss/factorization identity, trains
small linear-attention models, and evaluates the generation-loss bound and
its two-stream grouped variant. Everything is exact or seeded, so reruns
in one environment are byte-identical. The BLAS kernel and thread count
can move results: mostly in the last bits, but more where a statistic
reads singular vectors inside a tied singular value.
"""

from .cooccurrence import (
    JointDistribution,
    admissible_counts,
    build_ar_joint,
    build_dar_joint,
    build_masked_joint,
    build_vlm_joint,
    normalize,
)
from .decomposition import (
    decomposition_objective,
    gd_factorize,
    identity_residual,
    linear_probe,
    optimal_features,
    probe_features_for_joint,
    save_factor_pair,
    spectral_loss,
)
from .errors import ConfigError, DomainError, NumericError, ResourceError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    derive_rng,
    load_config,
    run_experiment,
)
from .generation import (
    LinearAttentionModel,
    TrainSettings,
    gen_loss,
    generation_bound_terms,
    masked_generation_bound,
    misalignment_weight,
    pooled_attention,
    train_model,
)
from .objectives import (
    ObjectiveSpec,
    build_joint_from_sampler,
    exact_joint,
    parse_objective,
    sample_pairs,
)
from .spectral import (
    connectivity_estimate,
    exact_ar_spectrum,
    predicted_masked_spectrum,
    singular_spectrum,
    tail_energy,
)
from .toy_model import (
    ToyParams,
    decode_token,
    sample_sequence,
    token_id,
)
from .twostream import (
    TwoStreamModel,
    build_masks,
    parse_assignment,
    partition_groups,
    two_stream_forward,
    two_stream_layer,
)

__version__ = "0.1.0"
