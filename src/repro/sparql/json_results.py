"""The W3C SPARQL 1.1 Query Results JSON Format.

https://www.w3.org/TR/sparql11-results-json/

The simulated endpoint serializes every response page to this format and
the HTTP client parses it back — the same encode/decode work a real
endpoint and SPARQLWrapper perform.  The JSON text is still produced and
parsed in full (``json.loads`` reads every byte), but the per-term Python
work is paid once per *distinct term per page*, not once per cell: the
encoder renders each distinct term of a column once and reuses the text,
and the decoder builds one term object per distinct binding.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..rdf.terms import BlankNode, Literal, Node, URIRef
from .results import ResultSet


def encode_term(term: Node) -> Dict[str, str]:
    """One RDF term as a SPARQL-JSON binding object."""
    if isinstance(term, URIRef):
        return {"type": "uri", "value": str(term)}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    if isinstance(term, Literal):
        binding: Dict[str, str] = {"type": "literal", "value": term.lexical}
        if term.language:
            binding["xml:lang"] = term.language
        elif term.datatype is not None:
            # xsd:string included: a plain "a" and "a"^^xsd:string are
            # different terms to the engine and must stay so on the wire.
            binding["datatype"] = term.datatype
        return binding
    raise TypeError("not an RDF term: %r" % (term,))


def decode_term(binding: Dict[str, str]) -> Node:
    """Parse one SPARQL-JSON binding object back into an RDF term."""
    kind = binding["type"]
    value = binding["value"]
    if not isinstance(value, str):
        raise TypeError("binding value is not a string: %r" % (value,))
    if kind == "uri":
        return URIRef(value)
    if kind == "bnode":
        return BlankNode(value)
    if kind in ("literal", "typed-literal"):
        return Literal(value,
                       datatype=binding.get("datatype"),
                       language=binding.get("xml:lang"))
    raise ValueError("unknown binding type %r" % kind)


def encode_results(result: ResultSet) -> str:
    """Serialize a result set (or page) to a SPARQL-JSON document.

    The text is exactly ``json.dumps`` of the W3C document (default
    separators, ASCII-escaped), written a column at a time: each distinct
    term of a column is rendered to its ``"var": {...}`` fragment once,
    and each row joins its bound fragments."""
    fragment_columns = []
    # A repeated variable (``SELECT ?x ?x``) is one key of each row object.
    columns = dict(zip(result.variables, result.column_cells()))
    for var, cells in columns.items():
        key = json.dumps(var) + ": "
        # Keyed on id(term): cells decoded from the shared TermDictionary
        # repeat one object per term, and ``cells`` keeps every term alive
        # for the call, so no id is reused while the memo exists.  Equal
        # terms held as separate objects are rendered once each.
        ids = list(map(id, cells))
        fragments = {tid: None if term is None
                     else key + json.dumps(encode_term(term))
                     for tid, term in dict(zip(ids, cells)).items()}
        fragment_columns.append(list(map(fragments.__getitem__, ids)))
    if fragment_columns:
        rows = [", ".join(fields) if None not in fields
                else ", ".join([f for f in fields if f is not None])
                for fields in zip(*fragment_columns)]
    else:
        rows = [""] * len(result.rows)
    bindings = "{" + "}, {".join(rows) + "}" if rows else ""
    return '{"head": {"vars": %s}, "results": {"bindings": [%s]}}' % (
        json.dumps(list(result.variables)), bindings)


def decode_results(payload: str) -> ResultSet:
    """Parse a SPARQL-JSON document into a result set.

    Decodes each distinct binding of the page once.  The memo is keyed on
    the binding's ``"value"`` and a hit must equal the whole binding, so a
    URI and a literal with the same text — or literals differing only in
    language or datatype — stay distinct terms."""
    document = json.loads(payload)
    variables = document["head"]["vars"]
    memo: Dict[str, Tuple[Dict[str, str], Node]] = {}

    def term(binding: Dict[str, str]) -> Node:
        hit = memo.get(binding["value"])
        if hit is not None and hit[0] == binding:
            return hit[1]
        node = decode_term(binding)
        memo[binding["value"]] = (binding, node)
        return node

    rows: List[Tuple[Optional[Node], ...]] = [
        tuple([term(binding_row[var]) if var in binding_row else None
               for var in variables])
        for binding_row in document["results"]["bindings"]]
    return ResultSet(variables, rows)
