"""Durability primitives shared by every ledger in the harness.

The result store (:mod:`repro.analysis.store`), the result cache and the
daemon's session journal (:mod:`repro.service.journal`) all write the same
kind of record: canonical JSON sealed with a SHA-256 checksum, made durable
before anyone acts on it. This module is the one home for those pieces:

* :func:`canonical_dumps` / :func:`checksum` — key-sorted, separator-free
  JSON and the SHA-256 over it (the envelope checksum of store terminals,
  cache entries and session-journal records);
* :func:`config_fingerprint` — the SHA-256 over a run's *expanded* cell
  list that a store header pins, so a resumed run can never splice two
  different grids together;
* :func:`scrub_volatile` / :func:`canonical_json` — the wall-clock-scrubbed
  report form in which a resumed run must be byte-identical to an
  uninterrupted control run;
* :func:`atomic_write_text` — the write-temp-then-``os.replace`` (with
  fsync) discipline for exports, cache entries and dir-store files, so a
  kill mid-write never leaves a torn artifact at the target path;
* :class:`CrashHook` — the deterministic SIGKILL test hook behind
  ``REPRO_STORE_CRASH_AFTER`` and ``REPRO_SERVICE_CRASH_AFTER``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from pathlib import Path
from typing import List, Optional, Tuple, Type, Union

__all__ = [
    "CrashHook",
    "atomic_write_text",
    "canonical_dumps",
    "canonical_json",
    "checksum",
    "config_fingerprint",
    "scrub_volatile",
]


def canonical_dumps(payload: object) -> str:
    """Key-sorted JSON without whitespace: the byte form every checksum
    and fingerprint in the harness is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(payload: object) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON."""
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


def config_fingerprint(kind: str, cells: List[dict]) -> str:
    """Fingerprint a run: SHA-256 over the *expanded* cell list.

    Hashing the expanded cells (not the compact config that generated them)
    means any change that alters what would actually execute — a new
    algorithm registered mid-grid, a regime filter change, reordered seeds —
    fails the resume-time fingerprint check instead of silently splicing two
    different runs together. The ``"journal": 1`` field is part of the
    payload so fingerprints of existing stores keep matching.
    """
    return checksum({"journal": 1, "kind": kind, "cells": cells})


def scrub_volatile(payload):
    """Recursively zero wall-clock fields in a report payload.

    Two runs of the same seeded grid differ only in wall-clock measurements
    (``elapsed_s``) and pool size (``workers``); everything else is a pure
    function of the configuration. Scrubbing those fields yields the
    *canonical* report — the form in which a resumed run must be
    byte-identical to its uninterrupted control run.
    """
    if isinstance(payload, dict):
        return {
            key: (0.0 if key == "elapsed_s" else 1 if key == "workers"
                  else scrub_volatile(value))
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [scrub_volatile(item) for item in payload]
    return payload


def canonical_json(payload: dict) -> str:
    """The canonical (volatile-scrubbed, key-sorted) JSON of a report."""
    return canonical_dumps(scrub_volatile(payload))


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically: temp file in the target
    directory, flush + fsync, then ``os.replace``.

    A crash at any point leaves either the old content or the new content at
    ``path`` — never a torn file. The temp file carries the target's name
    plus ``.tmp`` so a leftover from a killed writer is recognisable (and
    harmlessly overwritten by the next attempt).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


class CrashHook:
    """The deterministic mid-flight-death hook for crash tests and CI.

    With ``<env>=<event>:<count>`` set, calling the hook with ``event``
    SIGKILLs this process on the ``count``-th call — callers invoke it right
    after the matching operation became durable, so a kill lands at an exact
    ledger position. Unset, the hook is a no-op. A malformed spec raises
    ``error`` (the owning ledger's typed error).
    """

    def __init__(self, env: str, error: Type[Exception]) -> None:
        self._spec: Optional[Tuple[str, int]] = None
        self._count = 0
        text = os.environ.get(env)
        if not text:
            return
        try:
            event, count = text.split(":")
            self._spec = (event, int(count))
        except ValueError:
            raise error(
                f"bad {env}={text!r} (expected '<event>:<count>')"
            ) from None

    def __call__(self, event: str) -> None:
        if self._spec is None or event != self._spec[0]:
            return
        self._count += 1
        if self._count >= self._spec[1]:
            os.kill(os.getpid(), signal.SIGKILL)
