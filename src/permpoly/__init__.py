"""Trace-sum permutation polynomials over GF(q^e), q = 2^s.

Layers: gf2poly (bit-packed GF(2)[x]), field (flat extension contexts and
elements), scan (vectorized whole-field evaluation), poly (dense/
2-linearized/expression-tree polynomials), permtest (permutation tests),
gnq (the g_(n,q) family and verification pipelines), cli (command line).
"""

from .field import FieldContext, FieldElement, UsageError, make_field
from .gf2poly import BitPoly, bp_find_irreducible, bp_is_irreducible
from .gnq import (CorollaryReport, DesirableTriple, T1Report, T2Conditions,
                  check_t2_conditions, gnq_closed_form, gnq_oracle_check,
                  gnq_recurrence, probe_t1_odd, search_desirable,
                  verify_corollary, verify_t1)
from .permtest import (PPReport, charsum_pp_test, charsum_single,
                       is_pp_exhaustive, kernel_check_case2, shift_witness)
from .poly import (Add, Const, DensePolyF2, FrobQ, LinPoly, Mul, PolyExpr,
                   Pow, S, Var, build_t1_g, expr_eval, funcs_equal_pointwise,
                   identity_e1_check, lin_from_expr, reduce_exponent)

__all__ = [
    "Add", "BitPoly", "Const", "CorollaryReport", "DensePolyF2",
    "DesirableTriple", "FieldContext", "FieldElement", "FrobQ", "LinPoly",
    "Mul", "PPReport", "PolyExpr", "Pow", "S", "T1Report",
    "T2Conditions", "UsageError", "Var", "bp_find_irreducible",
    "bp_is_irreducible",
    "build_t1_g", "charsum_pp_test", "charsum_single", "check_t2_conditions",
    "expr_eval", "funcs_equal_pointwise", "gnq_closed_form",
    "gnq_oracle_check", "gnq_recurrence", "identity_e1_check",
    "is_pp_exhaustive", "kernel_check_case2", "lin_from_expr", "make_field",
    "probe_t1_odd", "reduce_exponent", "search_desirable", "shift_witness",
    "verify_corollary", "verify_t1",
]
