"""Unsupervised hypergraph neural network solver for Weighted MaxSAT."""

from .wcnf import (
    WcnfInstance,
    WcnfParseError,
    assign_random_weights,
    evaluate,
    generate_random_3sat,
    parse_cnf,
    parse_wcnf,
    write_wcnf,
)
from .hypergraph import (
    LiteralHypergraph,
    NormalizedOperator,
    build_literal_hypergraph,
    build_variable_hypergraph,
    normalized_operator,
    q_tilde,
)
from .model import ModelConfig, init_params
from .objective import LossBreakdown, loss_and_grad, shared_loss, task_loss
from .oracle import OracleResult, exhaustive_optimum, local_search
from .solver import SolveConfig, SolveResult, sample_assignments, solve, train

__all__ = [
    "WcnfInstance",
    "WcnfParseError",
    "assign_random_weights",
    "evaluate",
    "generate_random_3sat",
    "parse_cnf",
    "parse_wcnf",
    "write_wcnf",
    "LiteralHypergraph",
    "NormalizedOperator",
    "build_literal_hypergraph",
    "build_variable_hypergraph",
    "normalized_operator",
    "q_tilde",
    "ModelConfig",
    "init_params",
    "LossBreakdown",
    "loss_and_grad",
    "shared_loss",
    "task_loss",
    "OracleResult",
    "exhaustive_optimum",
    "local_search",
    "SolveConfig",
    "SolveResult",
    "sample_assignments",
    "solve",
    "train",
]
