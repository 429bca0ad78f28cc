"""Cypher query engine over :class:`repro.graph.GraphStore`.

Public surface::

    from repro.cypher import CypherEngine, execute, parse

    engine = CypherEngine(store)
    result = engine.run("MATCH (a:AS {asn: $asn}) RETURN a.name", asn=2497)
"""

from .errors import (
    CypherDeadlineExceeded,
    CypherError,
    CypherRuntimeError,
    CypherSyntaxError,
    CypherTypeError,
    ResourceExhausted,
    UnknownFunctionError,
    UnsupportedWrite,
)
from .executor import CypherEngine, execute
from .operators import PhysicalOperator, expression_variables, profile_tree, render_profile
from .parser import parse, parse_expression
from .planner import (
    AnchorPlan,
    MatchPlan,
    PartPlan,
    PushedFilter,
    extract_pushdown,
    plan_match,
    plan_query,
)
from .result import Record, ResultSet, render_value
from .safety import is_read_only

__all__ = [
    "CypherEngine",
    "execute",
    "expression_variables",
    "AnchorPlan",
    "MatchPlan",
    "PartPlan",
    "PushedFilter",
    "extract_pushdown",
    "plan_match",
    "plan_query",
    "parse",
    "parse_expression",
    "Record",
    "ResultSet",
    "render_value",
    "is_read_only",
    "CypherError",
    "CypherSyntaxError",
    "UnsupportedWrite",
    "CypherTypeError",
    "CypherRuntimeError",
    "UnknownFunctionError",
    "ResourceExhausted",
    "CypherDeadlineExceeded",
    "PhysicalOperator",
    "profile_tree",
    "render_profile",
]
