"""nullveil: privacy-preserving conjunctive query answering.

Declared secrecy views are forced to return nothing (or a single all-null
row) by minimal virtual updates that replace attribute values with null;
queries are then answered with what holds in every minimally updated
instance.  The same problem compiles into a disjunctive logic program
with stable-model semantics that the package can ground, solve and
export for external ASP solvers.
"""

from .answers import (LeakageReport, SecretAnswerReport, check_no_leakage,
                      secrecy_answer_instance, secret_answers)
from .asp import (AnnotatedProgram, Annotation, cautious_answers, compile_program,
                  compile_query_program, export_program, models_to_instances,
                  parse_answer_sets, parse_program_text, to_denial_constraints)
from .errors import (AddressError, BoundExceededError, CorrelationError,
                     CrossCheckError, DialectError, InvalidChangeError,
                     NullveilError, ParseError, SemanticError, UnsupportedRuleError)
from .instances import (EnumerationMode, SecrecyInstances, SecrecySolution,
                        candidate_cells, enumerate_secrecy_instances, instance_leq_D,
                        oracle_secrecy_instances, tuple_leq)
from .lang import (Atom, BuiltinAtom, Const, Query, QueryClass, Term, Var, ViewDef,
                   classify_query, parse_facts, parse_query, parse_schema,
                   parse_view, parse_views, print_facts, print_schema)
from .model import (NULL, Cell, ChangeSet, Instance, Relation, Row, Schema, Value,
                    apply_changes, diff_changes, sorted_cells)
from .semantics import (eval_classical, eval_n, relevant_vars, rewrite_query)
from .solver import GroundProgram, Rule, ground, stable_models

__version__ = "0.1.0"
