"""proxprune: a desk-scale structural-pruning laboratory.

Importance criteria (plain gradient, Gaussian-smoothed gradient, envelope
gradients with optional group sparsity), physical slice removal on small
models, and an experiment harness quantifying how stable each criterion's
pruning outcome is under weight perturbations such as fp16/bf16 rounding.
"""

__version__ = "0.1.0"
