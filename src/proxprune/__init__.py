"""proxprune: a desk-scale structural-pruning laboratory.

Importance criteria (plain gradient, Gaussian-smoothed gradient, envelope
gradients with optional group sparsity), physical slice removal on small
models, and an experiment harness quantifying how stable each criterion's
pruning outcome is under weight perturbations such as fp16/bf16 rounding.
"""

from .autodiff import GradMap, backward, forward, grad_check, gradient
from .importance import (
    ImportanceReport,
    element_importance,
    group_importance,
    prune_model,
    rank_and_select,
    run_criterion,
    structure_importance,
)
from .lowprec import round_trip
from .moreau import (
    GroupLayout,
    MoreauConfig,
    MoreauResult,
    channel_layout,
    closed_form_oracle,
    group_soft_threshold,
    group_sparse_moreau_grad,
    lipschitz_probe,
    moreau_grad,
)
from .params import ParamSet, PruneGroup, PruneStructure, Slice
from .robustness import PerturbSpec, RobustnessReport, consistency_experiment, perturb
from .smoothing import NoiseSpec, sample_noise, smoothed_grad
from .zoo import Mlp, TinyTransformer, batch_loss, recover_finetune

__version__ = "0.1.0"
