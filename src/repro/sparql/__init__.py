"""A from-scratch SPARQL engine (the Virtuoso stand-in).

Public surface:

* :func:`parse` — SPARQL text to algebra,
* :class:`Engine` — parse + optimize + evaluate to a :class:`ResultSet`,
* :class:`Endpoint` — simulated SPARQL-protocol endpoint with pagination,
* :class:`QueryServer` — concurrent serving tier with admission control,
* :mod:`~repro.sparql.errors` — the serving error taxonomy,
* :mod:`~repro.sparql.faults` — deterministic fault injection for chaos
  testing.
"""

from .algebra import Query, count_nested_selects
from .cache import CacheStats, ResultCache, approximate_result_bytes
from .endpoint import Endpoint, EndpointError, EndpointResponse
from .engine import Engine, QueryTimeout
from .errors import (CancelToken, CircuitBreaker, CircuitOpenError,
                     CorruptSnapshotError, MalformedQuery, QueryCancelled,
                     QueryRejected, ResourceExhausted, ServerOverloaded,
                     StorageError, TransientError, WalTruncatedError,
                     classify_error, is_retryable)
from .evaluator import (EvaluationError, EvaluationStats, Evaluator,
                        RowBudgetExceeded)
from .expressions import ExpressionError
from .faults import (FaultInjector, FaultyEndpoint, LatencyFaults,
                     MidStreamTimeouts, PayloadCorruption, TransientFaults)
from .parser import ParseError, parse
from .plan import Plan, PassStats, optimize_plan, plan_key
from .reference import ReferenceEvaluator
from .results import ResultSet, ResultStream, term_to_python
from .server import QueryServer, QueryTicket, ServerStats
from .solution import RowView, SolutionTable, TableStream, stream_distinct
from .tokenizer import TokenizeError, tokenize

__all__ = [
    "parse", "ParseError", "tokenize", "TokenizeError",
    "Engine", "QueryTimeout", "Evaluator", "EvaluationError",
    "EvaluationStats", "ReferenceEvaluator", "RowBudgetExceeded",
    "Plan", "PassStats", "optimize_plan", "plan_key",
    "SolutionTable", "TableStream", "RowView", "stream_distinct",
    "ExpressionError", "ResultSet", "ResultStream", "term_to_python",
    "Endpoint", "EndpointError", "EndpointResponse",
    "TransientError", "QueryRejected", "ServerOverloaded",
    "MalformedQuery", "ResourceExhausted", "QueryCancelled",
    "CircuitOpenError", "CircuitBreaker", "CancelToken",
    "StorageError", "CorruptSnapshotError", "WalTruncatedError",
    "classify_error", "is_retryable",
    "FaultInjector", "FaultyEndpoint", "TransientFaults", "LatencyFaults",
    "PayloadCorruption", "MidStreamTimeouts",
    "QueryServer", "QueryTicket", "ServerStats",
    "ResultCache", "CacheStats", "approximate_result_bytes",
    "Query", "count_nested_selects",
]
