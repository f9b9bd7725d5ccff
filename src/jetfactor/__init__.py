"""jetfactor: exact verification, pullback, and factorization of dynamic
equivalences between control systems, plus static/dynamic classification of
small control-affine systems."""

from .poly import T, X, U, var_name
from .ratfn import RatFn, ZERO, ONE
from .errors import JetError
from .jets import (ControlSystem, VectorField, AffineForm, to_affine,
                   lie_bracket, prolong_total, prolong_partial,
                   generic_rank, sample_point)
from .coframes import (contact_coframe, adapted_coframe_3x2, Coframe,
                       exterior_d, wedge)
from .equivalence import (EquivMap, compose, prolong_map,
                          VerificationReport, verify_forward, verify_inverse,
                          verify_pair, verify_scalar_theorem, BlockMatrix,
                          pullback_matrix, check_arepeats, block_rank,
                          check_nonaut_static_pair, StaticPairReport)
from .factorize import (build_S, NonautStatic, Factorization, GnicePattern,
                        factor_JK0, validate_nonaut_static, check_gnice)
from .classify import (StaticClass, DynClass, CLASS1, CLASS2, CLASS3,
                       InvariantRecord, static_invariants, classify_static,
                       dynamic_class, builtin_fixtures, elkin_forms_32,
                       random_static_transform, random_nonaut_static_pair)
from .sysio import (Document, parse_system, parse_map, parse_matrix,
                    parse_document, parse_expression, serialize,
                    serialize_report)

__all__ = [
    "RatFn", "ZERO", "ONE", "T", "X", "U", "var_name", "JetError",
    "ControlSystem", "VectorField", "AffineForm", "to_affine", "lie_bracket",
    "prolong_total", "prolong_partial", "generic_rank", "sample_point",
    "contact_coframe", "adapted_coframe_3x2", "Coframe", "exterior_d",
    "wedge",
    "EquivMap", "compose", "prolong_map",
    "VerificationReport", "verify_forward", "verify_inverse", "verify_pair",
    "verify_scalar_theorem", "BlockMatrix", "pullback_matrix",
    "check_arepeats", "block_rank", "check_nonaut_static_pair",
    "StaticPairReport",
    "build_S", "NonautStatic", "Factorization", "GnicePattern",
    "factor_JK0", "validate_nonaut_static", "check_gnice",
    "StaticClass", "DynClass", "CLASS1", "CLASS2", "CLASS3",
    "InvariantRecord", "static_invariants", "classify_static",
    "dynamic_class", "builtin_fixtures", "elkin_forms_32",
    "random_static_transform", "random_nonaut_static_pair",
    "Document", "parse_system", "parse_map", "parse_matrix",
    "parse_document", "parse_expression", "serialize", "serialize_report",
]
__version__ = "0.1.0"
