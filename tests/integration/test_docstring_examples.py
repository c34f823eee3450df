"""The public-API docstring examples must actually run.

The docs/*.md snippets are collected by pytest's ``--doctest-glob``
directly; the examples embedded in docstrings of the public API surface
(engine, server, clients, RDFFrame, KnowledgeGraph) are exercised here so they
cannot rot either.
"""

import doctest

import pytest

import repro.client.clients
import repro.core.knowledge_graph
import repro.core.rdfframe
import repro.sparql.engine
import repro.sparql.plan
import repro.sparql.server

MODULES = [
    repro.client.clients,
    repro.core.knowledge_graph,
    repro.core.rdfframe,
    repro.sparql.engine,
    repro.sparql.plan,
    repro.sparql.server,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_docstring_examples_run(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
