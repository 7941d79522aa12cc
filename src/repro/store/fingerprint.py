"""Environment fingerprints: the invalidation half of the store key.

Every store row is keyed on ``(entry key, env fingerprint)``.  The entry
key quotients the *query* (strategy + canonical MLDG structure); the
fingerprint quotients the *environment that computed the answer*.  Two
processes share a row only when nothing that could change the answer --
or the meaning of the serialized payload -- differs between them:

* the ``repro`` package version (any algorithm change ships as a version
  bump, so stale retimings can never cross an upgrade);
* the store payload-schema version (:data:`STORE_SCHEMA_VERSION`);
* the python and numpy versions (solver arithmetic and kernel behavior);
* the session's compilation settings that are not already part of the
  entry key: the degradation-ladder variant and the edge-pruning switch
  (the fused strategy itself *is* in the entry key).

The fingerprint is deliberately coarse: a mismatch only costs a cold
compile, never a wrong answer -- and rows written under other
fingerprints stay in the file, so rolling upgrades across a worker fleet
keep both generations warm until the pruner reclaims the old rows.
"""

from __future__ import annotations

import hashlib
import json
import platform
from functools import lru_cache
from typing import Optional, Tuple

__all__ = [
    "STORE_SCHEMA_VERSION",
    "PAYLOAD_SCHEMA",
    "env_fingerprint",
    "current_fingerprint",
    "fingerprint_parts",
]

#: Version of the sqlite table layout *and* of the JSON payload encoding.
#: Bump on any incompatible change; older files are wiped and rebuilt,
#: newer files are left untouched and the store disables itself.
STORE_SCHEMA_VERSION = 2

#: ``schema`` field stamped into every JSON payload row.
PAYLOAD_SCHEMA = "repro-store/1"


def fingerprint_parts(
    *,
    ladder: Optional[Tuple[str, ...]] = None,
    prune_edges: bool = True,
) -> dict:
    """The JSON-able dict the fingerprint digests (exposed for ``cache stats``)."""
    from repro import __version__

    try:
        import numpy

        numpy_version = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "absent"
    return {
        "repro": __version__,
        "storeSchema": STORE_SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "ladder": list(ladder) if ladder is not None else None,
        "pruneEdges": bool(prune_edges),
    }


@lru_cache(maxsize=64)
def env_fingerprint(
    ladder: Optional[Tuple[str, ...]] = None,
    prune_edges: bool = True,
) -> str:
    """A short stable digest of :func:`fingerprint_parts`."""
    blob = json.dumps(
        fingerprint_parts(ladder=ladder, prune_edges=prune_edges),
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def current_fingerprint() -> str:
    """The fingerprint of the ambient compilation context.

    Reads the active :class:`repro.core.Session`'s options when one is
    activated (batch workers and serve workers always run under one);
    bare :func:`repro.fusion.fuse` calls get the default settings.
    """
    from repro.core.context import current_session

    session = current_session()
    if session is None:
        return env_fingerprint()
    options = session.options
    return env_fingerprint(
        ladder=options.ladder_labels(),
        prune_edges=options.prune_edges,
    )
