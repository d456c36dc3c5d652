"""JSON request streams for ``repro serve --requests FILE``.

One self-contained document describes a serving target and its request
stream::

    {
      "query": "Q() :- R(X), S(X, Y)",
      "data": {
        "probabilistic": {"facts": [{"relation": "R", "values": [1],
                                     "probability": 0.5}, ...]},
        "endogenous": {"relations": {"S": [[1, 2]]}}
      },
      "requests": [
        {"family": "pqe"},
        {"family": "pqe", "exact": true},
        {"family": "shapley_value", "fact": {"relation": "S",
                                             "values": [1, 2]}}
      ]
    }

``data`` entries reuse the :mod:`repro.db.io` payload formats
(``probabilistic`` the TID fact list, everything else the per-relation
tuple lists).  Request parameters named ``fact`` decode to
:class:`~repro.db.fact.Fact`; ``values`` inside facts follow JSON
scalar round-tripping.

>>> from repro.serve.io import request_from_dict
>>> str(request_from_dict({"family": "pqe", "exact": True}))
'pqe(exact=True)'
>>> request_from_dict({
...     "family": "shapley_value",
...     "fact": {"relation": "S", "values": [1, 2]},
... }).kwargs
{'fact': Fact(relation='S', values=(1, 2))}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.db.fact import Fact
from repro.db.io import database_from_dict, probabilistic_from_dict
from repro.engine.session import handler_parameters, request_family
from repro.exceptions import ReproError, SchemaError
from repro.query.bcq import BCQ
from repro.query.parser import parse_query
from repro.serve.request import Request

#: ``data`` keys accepted in a stream document → payload decoder.
_DATA_LOADERS = {
    "database": database_from_dict,
    "repair": database_from_dict,
    "exogenous": database_from_dict,
    "endogenous": database_from_dict,
    "probabilistic": probabilistic_from_dict,
}


def _decode_param(name: str, value: Any) -> Any:
    if name == "fact":
        if (
            not isinstance(value, dict)
            or "relation" not in value
            or "values" not in value
        ):
            raise SchemaError(
                f"a 'fact' parameter needs 'relation' and 'values', got "
                f"{value!r}"
            )
        return Fact(value["relation"], tuple(value["values"]))
    return value


def _check_params(family, params: dict) -> None:
    """Reject an unknown family, or a parameter its handler lacks or needs."""
    names, defaults = handler_parameters(request_family(family).handler)
    missing = names - defaults.keys() - params.keys()
    unknown = params.keys() - names
    if missing or unknown:
        raise SchemaError(
            f"{family} request: missing parameter(s) {sorted(missing)}, "
            f"unknown parameter(s) {sorted(unknown)}; it takes {sorted(names)}"
        )


def _checked(request: Request) -> Request:
    """*request*, unless its family's check finds a malformed parameter.

    A :class:`~repro.exceptions.SchemaError` from the check (``exact``
    that is not a bool) rejects the entry like any malformed one.  Any
    other :class:`~repro.exceptions.ReproError` (a budget out of range)
    is left to submission, where it fails only its own request.
    """
    try:
        request.validate()
    except SchemaError:
        raise
    except ReproError:
        pass
    return request


def request_from_dict(payload: dict) -> Request:
    """Decode one request entry (``family`` plus keyword parameters).

    An unknown family or parameter name, a missing one, or a malformed
    value (see :func:`_checked`) raises
    :class:`~repro.exceptions.SchemaError`.  A ``deadline_ms`` key (ms, a
    non-negative number) becomes the request's relative
    :attr:`~repro.serve.request.Request.deadline` — not a parameter:

    >>> request_from_dict({"family": "pqe", "deadline_ms": 250}).deadline
    0.25
    """
    if not isinstance(payload, dict) or "family" not in payload:
        raise SchemaError(f"request entry needs a 'family' key: {payload!r}")
    deadline = None
    if "deadline_ms" in payload:
        raw = payload["deadline_ms"]
        if (
            isinstance(raw, bool)
            or not isinstance(raw, (int, float))
            or not raw >= 0  # NaN compares false and would never expire
        ):
            raise SchemaError(
                f"'deadline_ms' must be a non-negative number, got {raw!r}"
            )
        deadline = raw / 1000.0
    params = {
        name: value
        for name, value in payload.items()
        if name not in ("family", "deadline_ms")
    }
    _check_params(payload["family"], params)
    for name, value in params.items():
        params[name] = _decode_param(name, value)
    return _checked(
        Request.make(payload["family"], deadline=deadline, **params)
    )


def requests_from_dict(payload: dict) -> list[Request]:
    """Decode one stream entry, expanding a ``bindings`` parameter sweep.

    A ``bindings`` key — a list of binding objects, each a variable→value
    mapping or a list of ``[variable, value]`` pairs — expands the entry
    into one request per binding, all sharing the entry's other
    parameters, which are checked and decoded once.  This is the JSON
    spelling of a parameter sweep: the expanded requests carry identical
    signatures up to their ``binding``, so a scheduler worker claims the
    pending ones together and answers each through the session memo over
    its own section ``σ_{X=c}`` (:mod:`repro.core.fused`).  A malformed
    binding raises :class:`~repro.exceptions.SchemaError` (see
    :func:`repro.engine.session.canonical_binding`).

    >>> [str(r) for r in requests_from_dict(
    ...     {"family": "pqe", "bindings": [{"X": 1}, {"X": 2}]}
    ... )]
    ["pqe(binding=(('X', 1),))", "pqe(binding=(('X', 2),))"]
    """
    if not isinstance(payload, dict) or "bindings" not in payload:
        return [request_from_dict(payload)]
    bindings = payload["bindings"]
    if not isinstance(bindings, list) or not bindings:
        raise SchemaError(
            f"'bindings' must be a non-empty list of binding objects, got "
            f"{bindings!r}"
        )
    if "binding" in payload:
        raise SchemaError(
            "a request entry takes 'binding' or 'bindings', not both"
        )
    # The template: the entry unbound, with the binding parameter the
    # expanded requests carry, so its name is checked too.
    unbound = dict(payload, binding=None)
    del unbound["bindings"]
    template = request_from_dict(unbound)
    return [
        Request.make(
            template.family, deadline=template.deadline, binding=binding,
            **template.kwargs,
        )
        for binding in bindings
    ]


def load_request_stream(path: str | Path) -> tuple[BCQ, dict, list[Request]]:
    """Parse a stream document into ``(query, data sources, requests)``.

    The returned ``data`` mapping plugs straight into
    :class:`~repro.serve.server.Server` (or ``Engine.open``) as keyword
    arguments.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "query" not in payload:
        raise SchemaError("request stream needs a top-level 'query' string")
    query = parse_query(payload["query"])
    data_payload = payload.get("data", {})
    if not isinstance(data_payload, dict):
        raise SchemaError("'data' must map source names to database payloads")
    data = {}
    for name, entry in data_payload.items():
        loader = _DATA_LOADERS.get(name)
        if loader is None:
            raise SchemaError(
                f"unknown data source {name!r}; expected one of "
                f"{sorted(_DATA_LOADERS)}"
            )
        data[name] = loader(entry)
    entries = payload.get("requests", [])
    if not isinstance(entries, list):
        raise SchemaError("'requests' must be a list of request entries")
    return query, data, [
        request
        for entry in entries
        for request in requests_from_dict(entry)
    ]
