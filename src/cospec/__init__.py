"""Verification lab for pretraining objectives on an enumerable toy corpus.

Builds the exact joint distribution each objective induces, checks the
closed-form singular spectra and the loss/factorization identity, trains
small linear-attention models, and evaluates the generation-loss bound and
its two-stream grouped variant. Everything is exact or seeded; nothing
depends on wall clock or hardware.
"""

from .cooccurrence import (
    ConditionalText,
    JointDistribution,
    NormalizedMatrix,
    admissible_counts,
    build_ar_joint,
    build_dar_joint,
    build_joint_from_sampler,
    build_masked_joint,
    build_vlm_joint,
    normalize,
)
from .decomposition import (
    FactorPair,
    decomposition_objective,
    gd_factorize,
    identity_residual,
    linear_probe,
    load_factor_pair,
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
    GenerationBoundTerms,
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
    exact_joint,
    parse_objective,
    sample_pairs,
)
from .spectral import (
    SingularSpectrum,
    connectivity_estimate,
    exact_ar_spectrum,
    predicted_ar_spectrum,
    predicted_masked_spectrum,
    singular_spectrum,
    tail_energy,
)
from .toy_model import (
    LabeledSequence,
    ToyParams,
    decode_token,
    enumerate_sequences,
    sample_sequence,
    token_id,
)
from .twostream import (
    CausalMaskPair,
    GroupAssignment,
    TwoStreamModel,
    build_masks,
    enumerate_assignments,
    parse_assignment,
    partition_groups,
    prediction_weights,
    semi_ar_loss,
    two_stream_forward,
    two_stream_layer,
)

__version__ = "0.1.0"
