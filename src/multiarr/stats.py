"""Deterministic work counters of the library, and the hits and misses of its caches.

``counts`` holds plain ints that the library adds to at call boundaries,
or in bulk after a loop, never inside the inner loop of a kernel:

- ``exactalg.divide_linear``: synthetic divisions by a power of a line;
- ``multiarr2.unit_steps``: addition steps of the unit-step basis, one
  per point a walk reaches past its start (m = 0 for a region walk, the
  closed-form state on the first two lines for the walk of single
  queries and of the shift certificate's 0/1 box);
- ``multiarr2.residues``: residues read by those steps and by the shell
  of a region walk (one per step, one more when a full step raises d1,
  and one per point of the shell); a leaf of a region walk whose shell
  reads no state stops after its first residue;
- ``multiarr2.saito_checks``: runs of Saito's criterion;
- ``shift.nabla``: images under the connection;
- ``lattice.points``: points that the lattice verifiers read from a region
  table;
- ``lattice.ascent_steps``: points that gap ascents walk, each counted
  once: a walk stops at the first point an earlier walk holds.

:func:`snapshot` adds the ``hits`` and ``misses`` of every ``lru_cache``
of the loaded ``multiarr`` modules, found by scanning them on each call:
``exactalg.GF``, ``multiarr2._unit_state`` and ``lattice._region_table``
(see README.md).  After :func:`reset` the numbers of a
computation depend on nothing but its inputs, so a rerun, in this process
or in another one, gives the same numbers.  The counters are exact in a
single thread; under threads an update may be lost.  ``multiarr ...
--stats`` writes :func:`report` to stderr.
"""

from __future__ import annotations

import json
import sys

__all__ = ["counts", "reset", "snapshot", "report"]

counts = dict.fromkeys(
    (
        "exactalg.divide_linear",
        "multiarr2.unit_steps",
        "multiarr2.residues",
        "multiarr2.saito_checks",
        "shift.nabla",
        "lattice.points",
        "lattice.ascent_steps",
    ),
    0,
)


def _caches() -> dict:
    """Every lru_cache defined in a loaded multiarr module, keyed by module.function (without multiarr.).

    The values of every loaded module are scanned on each call; the CLI
    calls reset and snapshot once per ``--stats`` command, not per query.
    """
    out = {}
    for name in sorted([name for name in sys.modules if name.startswith("multiarr.")]):
        for fn in vars(sys.modules[name]).values():
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == name:
                out[f"{name.removeprefix('multiarr.')}.{fn.__name__}"] = fn
    return out


def reset() -> None:
    """Zero the counters and empty every cache, as in a fresh process."""
    counts.update(dict.fromkeys(counts, 0))
    for fn in _caches().values():
        fn.cache_clear()


def snapshot() -> dict:
    """The counters, with cache.<module>.<function>.hits and .misses for every cache."""
    out = dict(counts)
    for key, fn in _caches().items():
        info = fn.cache_info()
        out[f"cache.{key}.hits"] = info.hits
        out[f"cache.{key}.misses"] = info.misses
    return out


def report() -> str:
    """The snapshot as one line of JSON with sorted keys."""
    return json.dumps(snapshot(), sort_keys=True)
