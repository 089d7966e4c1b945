"""Graph edit distance estimation via a doubly-stochastic alignment relaxation.

Public surface, as imported below: labeled graph I/O and pairing, edit-cost
models, exact linear assignment, the solver, the exact branch-and-bound
oracle, and the benchmark harness. The objective kernel and the inner loop
live in ``gedalign.kernel`` and ``gedalign.solver``.
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
    GedError,
    GraphFormatError,
)
from .graphs import (
    GraphPair,
    LabeledGraph,
    adjacency,
    load_graph,
    make_graph,
    pad_pair,
    save_graph,
)
from .solver import SolveReport, SolverConfig, estimate_ged

__version__ = "0.1.0"
