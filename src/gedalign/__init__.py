"""Graph edit distance estimation via a doubly-stochastic alignment relaxation.

Public surface: labeled graph I/O and padding, edit-cost models, the relaxed
objective kernel, exact linear assignment, the solver, the exact brute-force
oracle, and the benchmark harness.
"""

from .assignment import Permutation, round_to_permutation, solve_assignment
from .bench import (
    BenchReport,
    BenchRow,
    PairCase,
    generate_pairs,
    load_corpus,
    report_to_aggregate_json,
    report_to_csv,
    run_bench,
    write_corpus,
)
from .costs import CostModel, build_cost_matrix, builtin_cost_model, load_cost_model
from .editpath import (
    EditPath,
    ExactResult,
    exact_ged,
    extract_edit_path,
    ged_under_mapping,
)
from .errors import (
    BudgetExceededError,
    CorpusFormatError,
    CostModelError,
    DivergenceError,
    GedError,
    GraphFormatError,
)
from .graphs import (
    DUMMY_LABEL,
    GraphPair,
    LabeledGraph,
    adjacency,
    load_graph,
    make_graph,
    pad_pair,
    save_graph,
)
from .kernel import (
    ObjectiveParams,
    ScaledPair,
    objective,
    quasi_perm_residual,
    scale_pair,
    value_and_grad,
)
from .solver import (
    SolveReport,
    SolverConfig,
    estimate_ged,
    inner_minimize,
    solve_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "BenchRow",
    "BudgetExceededError",
    "CorpusFormatError",
    "CostModel",
    "CostModelError",
    "DUMMY_LABEL",
    "DivergenceError",
    "EditPath",
    "ExactResult",
    "GedError",
    "GraphFormatError",
    "GraphPair",
    "LabeledGraph",
    "ObjectiveParams",
    "PairCase",
    "Permutation",
    "ScaledPair",
    "SolveReport",
    "SolverConfig",
    "adjacency",
    "build_cost_matrix",
    "builtin_cost_model",
    "estimate_ged",
    "exact_ged",
    "extract_edit_path",
    "ged_under_mapping",
    "generate_pairs",
    "inner_minimize",
    "load_corpus",
    "load_cost_model",
    "load_graph",
    "solve_pair",
    "make_graph",
    "objective",
    "pad_pair",
    "quasi_perm_residual",
    "report_to_aggregate_json",
    "report_to_csv",
    "round_to_permutation",
    "run_bench",
    "save_graph",
    "scale_pair",
    "solve_assignment",
    "value_and_grad",
    "write_corpus",
]
