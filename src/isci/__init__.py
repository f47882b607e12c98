"""Decision procedure for intuitionistic sentential logic with identity.

`decide` runs one proof search: a proof is certified by the independent
checker, and the provability table of a failed search steers the open
branches that a finite Kripke countermodel is read from, which is
validated against the semantics before it is returned.  `prove` is the
search alone; `isci.countermodel.countermodel` is `decide` for a formula
known to be unprovable.
"""

from .calculus import (
    Derivation,
    RuleInstance,
    Sequent,
    apply_rule,
    check_proof,
    is_axiom,
    sequent,
)
from .countermodel import (
    CounterModelBundle,
    CounterModelError,
    NoOpenBranchError,
    decide,
)
from .formulas import (
    BOT,
    Bottom,
    Formula,
    Id,
    Imp,
    Var,
    complexity,
    extended_subformulas,
    in_extended_subformulas,
    in_form0,
    subformulas,
)
from .parser import ParseError, parse_formula, parse_sequent
from .printer import format_derivation, format_formula, format_model, format_sequent
from .prover import (
    Budget,
    CertificationError,
    Limits,
    ResourceExhausted,
    SearchStats,
    Verdict,
    prove,
)
from .semantics import (
    KripkeModel,
    bounded_countermodel_search,
    check_admissible,
    check_frame,
    check_identity_entails_implications,
    check_monotonicity,
    forces,
    valid_in_model,
)

__all__ = [
    "BOT",
    "Bottom",
    "Budget",
    "CertificationError",
    "CounterModelBundle",
    "CounterModelError",
    "Derivation",
    "Formula",
    "Id",
    "Imp",
    "KripkeModel",
    "Limits",
    "NoOpenBranchError",
    "ParseError",
    "ResourceExhausted",
    "RuleInstance",
    "SearchStats",
    "Sequent",
    "Var",
    "Verdict",
    "apply_rule",
    "bounded_countermodel_search",
    "check_admissible",
    "check_frame",
    "check_identity_entails_implications",
    "check_monotonicity",
    "check_proof",
    "complexity",
    "decide",
    "extended_subformulas",
    "forces",
    "format_derivation",
    "format_formula",
    "format_model",
    "format_sequent",
    "in_extended_subformulas",
    "in_form0",
    "is_axiom",
    "parse_formula",
    "parse_sequent",
    "prove",
    "sequent",
    "subformulas",
    "valid_in_model",
]
