"""Global/local representation learning for paired image-report studies.

A tape-based autodiff core (numerics) drives toy two-branch encoders
(encoders) trained with a symmetric contrastive objective over global
cosine and local attention-alignment similarities (crossmodal, trainer);
one batched scorer, crossmodal.pairwise_scores, serves training, zero-shot
scoring and retrieval.
Downstream heads score pathologies zero-shot from prompts or with a linear
probe (classify); datapipe covers rule-based report labeling, manifests,
splits, and a synthetic paired corpus; metrics provides exact-tie AUC and
ROC curves; cli wires everything into reproducible subcommands.
"""

from .classify import (
    ProbeConfig,
    ProbeModel,
    PromptSet,
    default_prompts,
    fit_linear_probe,
    image_features,
    mixed_scores,
    probe_predict,
    zero_shot_scores,
)
from .crossmodal import (
    LossBreakdown,
    LossConfig,
    pairwise_scores,
    total_loss,
)
from .datapipe import (
    PATHOLOGIES,
    LabelVector,
    Lexicon,
    StudyRecord,
    SplitManifest,
    SynthConfig,
    Vocabulary,
    build_single_disease_subset,
    default_lexicon,
    filter_with_report,
    label_matrix,
    label_report,
    labels_to_matrix,
    make_splits,
    manifest_hash,
    read_manifest,
    split_sentences,
    synth_paired_dataset,
    tokenize,
    write_manifest,
)
from .encoders import (
    EncoderParams,
    ImageGrid,
    LocalGlobalFeatures,
    PARAM_NAMES,
    TokenSequence,
    adaptive_mean_pool,
    encode_image_patches,
    encode_text_toy,
    image_patch_matrix,
    read_pgm,
    save_embeddings,
    sinusoidal_positions,
    write_pgm,
)
from .errors import (
    ConsistencyError,
    DegenerateRowError,
    FormatError,
    InsufficientDataError,
    NonScalarLossError,
    ParameterError,
    ShapeError,
    SplitSizeError,
    TapeStateError,
    TrainingDivergenceError,
    UndefinedAucError,
    VersionError,
    VocabularyError,
)
from .metrics import RocCurve, aggregate_auc, retrieval_top1, roc_auc
from .numerics import GradTape, Tensor, backward, constant
from .trainer import (
    Checkpoint,
    TrainConfig,
    encode_report,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
