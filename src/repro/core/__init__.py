"""RDFFrames core: the paper's primary contribution.

The user API (KnowledgeGraph + RDFFrame), the lazy operator Recorder, the
query model, the optimized and naive query generators, and the translator.
"""

from .compiler import compile_model
from .conditions import ConditionError, condition_to_sparql
from .generator import GenerationError, Generator
from .knowledge_graph import KnowledgeGraph
from .naive_generator import NaiveGenerator, naive_transform
from .operators import (AGGREGATE_FUNCTIONS, FULL_OUTER_JOIN, INCOMING,
                        INNER_JOIN, JOIN_TYPES, LEFT_OUTER_JOIN, OUTGOING,
                        RIGHT_OUTER_JOIN)
from .query_model import Aggregation, OptionalBlock, QueryModel
from .rdfframe import (OPTIONAL, GroupedRDFFrame, InnerJoin, LeftOuterJoin,
                       OuterJoin, RDFFrame, RDFFrameError, RightOuterJoin)
from .translator import TranslationError, translate

__all__ = [
    "KnowledgeGraph", "RDFFrame", "GroupedRDFFrame", "RDFFrameError",
    "Generator", "GenerationError", "NaiveGenerator", "naive_transform",
    "QueryModel", "OptionalBlock", "Aggregation",
    "compile_model",
    "translate", "TranslationError",
    "condition_to_sparql", "ConditionError",
    "OPTIONAL", "INCOMING", "OUTGOING",
    "InnerJoin", "OuterJoin", "LeftOuterJoin", "RightOuterJoin",
    "INNER_JOIN", "FULL_OUTER_JOIN", "LEFT_OUTER_JOIN", "RIGHT_OUTER_JOIN",
    "JOIN_TYPES", "AGGREGATE_FUNCTIONS",
]
