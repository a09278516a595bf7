"""Global/local representation learning for paired image-report studies.

A tape-based autodiff core (numerics) drives toy two-branch encoders
(encoders) trained with a symmetric contrastive objective over global
cosine and local attention-alignment similarities (crossmodal, trainer);
one batched scorer, crossmodal.pairwise_scores, serves training, zero-shot
scoring and retrieval. Downstream heads score pathologies zero-shot from
prompts or with a linear probe (classify); datapipe covers rule-based report
labeling, manifests, splits, and a synthetic paired corpus; metrics provides
exact-tie AUC and ROC curves; cli wires everything into reproducible
subcommands. A public name's one import path is the module that defines it.
"""

__version__ = "0.1.0"
