"""A query model as the engine's algebra.

SPARQL text is the one contract between RDFFrames and the engine: a model
becomes algebra by rendering it (:func:`~.translator.translate`) and
parsing the text with the engine's parser, the same steps
:meth:`RDFFrame.execute <repro.core.rdfframe.RDFFrame.execute>` and the
engine take.
"""

from __future__ import annotations

from ..sparql import algebra as alg
from ..sparql.parser import parse
from .query_model import QueryModel
from .translator import translate


def compile_model(model: QueryModel) -> alg.Query:
    """``parse(translate(model, validate=False))``."""
    return parse(translate(model, validate=False))
