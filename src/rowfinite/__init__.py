"""Exact-arithmetic reduction and solvers for row-finite infinite linear
systems, including linear difference equations with variable coefficients."""

from .rows import (FiniteRow, ShortColumnError, ZERO_ROW, ZeroRowError, as_scalar,
                   format_scalar, parse_scalar)
from .sources import (CoeffExpr, EquationSpec, EvalError, ExprSyntaxError,
                      RowSource, SpecError, build_family, equation_from_obj,
                      load_equation, parse_coeff_expr)
from .elimination import EliminationState, EngineError, check_invariants, run
from .solver import (AccessibleIndexError, FundamentalSet, InaccessibleLengths,
                     InconsistentSystemError, fundamental_set,
                     general_solution, inaccessible_lengths)
from .hessenberg import general_prefix

__version__ = "0.1.0"

__all__ = [
    "FiniteRow", "ZERO_ROW", "ZeroRowError", "ShortColumnError",
    "as_scalar", "format_scalar", "parse_scalar",
    "CoeffExpr", "EquationSpec", "EvalError", "ExprSyntaxError", "RowSource",
    "SpecError", "build_family", "equation_from_obj", "load_equation",
    "parse_coeff_expr",
    "EliminationState", "EngineError", "check_invariants", "run",
    "AccessibleIndexError", "FundamentalSet", "InaccessibleLengths",
    "InconsistentSystemError", "fundamental_set", "general_solution",
    "inaccessible_lengths",
    "general_prefix",
    "__version__",
]
