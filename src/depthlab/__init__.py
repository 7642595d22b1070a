"""depthlab: a desk-scale laboratory for dynamic-depth inference in
autoregressive decoder transformers — layer skipping vs. early exit, learned
gate controllers, and exact sequence-level budget allocation."""

import os

# One BLAS thread unless the environment says otherwise. The model's matmuls
# are small: on two threads a (200, 64) @ (64, 256) product ran 15x slower,
# 70x while another process held a core, and training spent twice the CPU
# time. BLAS reads these when numpy is first imported, so this runs first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .autodiff import Graph, Tensor, backpropagate, evaluate, gradient_check
from .controller import ControllerBank, GumbelConfig, InputMode, controller_loss, gate_sample
from .corpus import CorpusSpec, Example, gen_corpus
from .metrics import RougeScore, cosine, mean_ci, rouge_l, rouge_l_text
from .model import DecoderModel, HiddenTrace, KVCache, ModelConfig, fill_missing_kv
from .oracle import (
    BudgetAssignment,
    ScoreMatrix,
    chi_square_homogeneity,
    solve_exact,
    solve_greedy,
    sweep,
)
from .probe import SimilarityReport, compare_strategies, probe
from .routing import RouteMask, RoutePlan, cost_of, ee_mask, rls_mask, uls_mask
from .training import TrainConfig, finetune, train_controllers

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Tensor",
    "backpropagate",
    "evaluate",
    "gradient_check",
    "ControllerBank",
    "GumbelConfig",
    "InputMode",
    "controller_loss",
    "gate_sample",
    "CorpusSpec",
    "Example",
    "gen_corpus",
    "RougeScore",
    "cosine",
    "mean_ci",
    "rouge_l",
    "rouge_l_text",
    "DecoderModel",
    "HiddenTrace",
    "KVCache",
    "ModelConfig",
    "fill_missing_kv",
    "BudgetAssignment",
    "ScoreMatrix",
    "chi_square_homogeneity",
    "solve_exact",
    "solve_greedy",
    "sweep",
    "SimilarityReport",
    "compare_strategies",
    "probe",
    "RouteMask",
    "RoutePlan",
    "cost_of",
    "ee_mask",
    "rls_mask",
    "uls_mask",
    "TrainConfig",
    "finetune",
    "train_controllers",
]
