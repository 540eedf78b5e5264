"""Seeded-replay helpers: run a session twice, compare everything.

A seeded session is a pure function of its configuration. Two fresh runs
must produce the same bitstreams, the same HR outputs and the same
canonical trace export (wall-clock data stripped).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Callable, List, Tuple

from repro.observability import canonicalize_session_trace, validate_session_trace


class CapturingClient:
    """Transparent client proxy hashing each frame's bitstream + HR output.

    Attribute get/set delegate to the wrapped client (the adaptive loop
    *sets* ``modeled_roi_side`` on it), so the session sees the real
    client; ``process`` additionally records sha256(encoded || hr_frame)
    into ``sink``.
    """

    def __init__(self, inner, sink: List[str]):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_sink", sink)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name, value):
        setattr(object.__getattribute__(self, "_inner"), name, value)

    def process(self, frame):
        inner = object.__getattribute__(self, "_inner")
        result = inner.process(frame)
        digest = hashlib.sha256(
            pickle.dumps(frame.encoded) + result.hr_frame.tobytes()
        ).hexdigest()
        object.__getattribute__(self, "_sink").append(digest)
        return result


def canonical(result) -> str:
    """The schema-validated canonical trace export as sorted JSON."""
    export = result.to_trace_dict()
    validate_session_trace(export)
    return json.dumps(canonicalize_session_trace(export), sort_keys=True)


def replay_twice(run: Callable[[Callable], object]) -> Tuple[object, object]:
    """Run ``run(wrap)`` twice and assert both runs are byte-identical.

    ``run`` builds a fresh server/client/knob set and streams a session;
    it must pass its client through ``wrap`` so the frames' bitstreams
    and HR outputs are captured. Returns both results.
    """
    results, digests = [], []
    for _ in range(2):
        sink: List[str] = []
        results.append(run(lambda client: CapturingClient(client, sink)))
        digests.append(sink)
    first, second = results
    assert digests[0] == digests[1]
    assert canonical(first) == canonical(second)
    return first, second
