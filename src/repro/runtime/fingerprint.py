"""The shared ``cache_token()`` protocol: one canonicalizer for key material.

Every value that participates in a cache key — solver options, a
:class:`~repro.obs.SolvePolicy`, a :class:`~repro.core.request.SolveRequest`
— reduces to deterministic text through :func:`cache_token_of`:

- an object exposing a callable ``cache_token()`` is asked for its own
  canonical text (the protocol; ``SolvePolicy`` and ``SolveRequest``
  implement it over exactly their result-affecting fields);
- mappings canonicalize entry-by-entry in sorted key order (warm starts map
  ``Variable -> value`` and are keyed by column index);
- sequences canonicalize element-wise, preserving order;
- floats use ``repr`` (full precision, no locale), everything else falls
  back to ``repr``.

Centralizing this here (instead of an ad-hoc branch inside the solve-cache
key builder) means any new request- or policy-shaped object joins the cache
key the same way: implement ``cache_token()`` and every fingerprint in the
system — the solve cache, the service dedupe map, the checkpoint store —
agrees on its identity. Flow rule D001 audits that the protocol is honored
wherever fingerprints are computed.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from typing import Any

__all__ = ["cache_token_of", "token_digest"]

#: Builtin scalar types: ``repr`` is their canonical text, and they cannot
#: carry the protocol, so they skip the probes below.
_SCALARS = frozenset({type(None), bool, int, float, str})


def cache_token_of(value: Any) -> str:
    """Deterministic canonical text of one piece of cache-key material."""
    if type(value) in _SCALARS:
        return repr(value)
    token = getattr(value, "cache_token", None)
    if callable(token):
        # The protocol: the object names its own result-affecting fields
        # canonically; repr() would also drag in settings (retry counts,
        # fallback ladders) that never change what a solve returns.
        return str(token())
    if isinstance(value, Mapping):
        items = []
        for key, val in value.items():
            index = getattr(key, "index", key)
            items.append((repr(index), cache_token_of(val)))
        return "{" + ",".join(f"{k}:{v}" for k, v in sorted(items)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(cache_token_of(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return repr(value)


def token_digest(*parts: str) -> str:
    """sha256 digest of canonical token parts joined unambiguously."""
    return hashlib.sha256("|".join(parts).encode()).hexdigest()
