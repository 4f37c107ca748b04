"""Sweep checkpoints: the on-disk format and one sweep's checkpoint state.

A checkpoint is a JSON file rewritten after every completed (benchmark,
technique, seed) cell, so a killed sweep resumes exactly where it stopped
(see ``docs/robustness.md``).  Version 2 adds the ``_meta`` header
(content checksum and sweep parameters, serialized *before* the cells so
a truncated file keeps it) and per-cell record digests; version-1 files
are still readable.  Files go through :func:`repro.durable.atomic_write`,
and only the writes made here feed ``runner_checkpoint_bytes_total`` and
``runner_checkpoint_fsyncs_total``.

Cells are keyed by what they compute (:func:`spec_digest`), not by where
they sit in a run or how the code spelled the controller: the key digests
the one pickle of the sweep's ``SweepConfig``, supply transform and
controller (:func:`sweep_spec`) that also carries the sweep to pool
workers.  So any sweep that resumes a file is served exactly the cells it
would compute itself, whichever experiment, runner or factory wrote them.
The ``_meta`` cycle counts describe the sweep that last flushed the file;
they gate nothing, since the spec digest already covers the whole
``SweepConfig``.
"""

from __future__ import annotations

import contextlib
import copyreg
import hashlib
import io
import json
import os
import pickle
import re
from dataclasses import asdict, fields
from typing import Dict, Optional, Sequence, Tuple

from repro.durable import atomic_write, content_digest, quarantine
from repro.errors import CheckpointError, ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import warn_once
from repro.sim.metrics import RelativeMetrics

__all__ = [
    "SweepCheckpoint",
    "cell_key",
    "load_checkpoint",
    "spec_digest",
    "sweep_spec",
]

Cell = Tuple[str, Optional[int]]

#: Version tag of the checkpoint JSON schema.
_VERSION = 2

#: Hex digits of the spec digest that leads every cell key (64 bits).
_SPEC_DIGITS = 16

#: One serialized v2 cell record, as written with ``indent=0``: the key,
#: its digest, and a flat metrics object (RelativeMetrics holds only
#: scalars and strings, so the inner object never nests).
_CELL_RECORD_RE = re.compile(
    r'"([0-9a-f]{%d}\|[^"\n]*)":\s*\{\s*"digest":\s*"([0-9a-f]{64})",'
    r'\s*"metrics":\s*(\{[^{}]*\})\s*\}' % _SPEC_DIGITS,
    re.DOTALL,
)


def _set_attributes(obj, state: dict) -> None:
    """Give a restored instance its attributes one at a time, as its
    ``__init__`` did.

    Plain unpickling fills ``obj.__dict__`` in one go instead, and CPython
    3.11 then looks every attribute of that object up in a plain dict: a
    tuning controller restored that way ran its cells 6-16% slower than
    one its factory built.
    """
    for name, value in state.items():
        object.__setattr__(obj, name, value)


class _SpecPickler(pickle.Pickler):
    """Pickles plain instances so they restore through
    :func:`_set_attributes`; everything else pickles as usual."""

    def reducer_override(self, obj):
        if hasattr(type(obj), "__setstate__"):
            return NotImplemented
        try:
            reduced = obj.__reduce_ex__(4)
        except TypeError:  # classes, functions, modules: saved by name
            return NotImplemented
        if (
            isinstance(reduced, tuple)
            and reduced[0] is copyreg.__newobj__
            and isinstance(reduced[2], dict)
        ):
            return (*reduced[:5], _set_attributes)
        return NotImplemented


def sweep_spec(config, supply_transform, controller) -> Tuple[bytes, str]:
    """One pickle of what a sweep's cells compute besides their grid.

    Returns the pickle of ``(config, supply_transform, controller)`` -- the
    :class:`~repro.sim.runner.SweepConfig`, the supply overlay and a fresh,
    never-run controller -- and its digest, a 16-hex SHA-256 prefix that
    leads every cell key.  The controller stands for the sweep, not the
    factory that built it, so factories that build equal controllers give
    one spec.  Protocol 4 is fixed, as for
    :func:`repro.trace.store.overlay_token`, so the digest does not move
    with the interpreter's highest protocol.  A spec that does not pickle
    raises :class:`~repro.errors.ConfigurationError` naming the transform
    or the controller.
    """
    buffer = io.BytesIO()
    try:
        _SpecPickler(buffer, protocol=4).dump(
            (config, supply_transform, controller)
        )
    except Exception as error:
        try:
            pickle.dumps(supply_transform, protocol=4)
        except Exception:
            culprit = f"supply transform {supply_transform!r}"
        else:
            culprit = (
                f"controller {controller.name!r}"
                f" ({type(controller).__qualname__})"
            )
        raise ConfigurationError(
            f"the sweep's {culprit} does not pickle"
            f" ({type(error).__name__}: {error}); a sweep is keyed by, and"
            f" sent to pool workers as, one pickle of its SweepConfig,"
            f" supply transform and controller, so build them from"
            f" module-level classes and functions"
        ) from error
    blob = buffer.getvalue()
    return blob, hashlib.sha256(blob).hexdigest()[:_SPEC_DIGITS]


def spec_digest(config, supply_transform, controller) -> str:
    """The digest of :func:`sweep_spec`: what a sweep's cell keys lead with."""
    return sweep_spec(config, supply_transform, controller)[1]


def cell_key(
    spec: str, benchmark: str, technique: str, seed: Optional[int]
) -> str:
    """Checkpoint key of one cell of the sweep whose digest is ``spec``.

    Keys written before content keys start with ``s<ordinal>|``, which no
    hex digest does, so an old file still loads but serves no cell.
    """
    return f"{spec}|{benchmark}|{technique}|{'-' if seed is None else seed}"


def _payload(n_cycles: int, warmup_cycles: int, cells: Dict[str, dict]) -> dict:
    """The self-validating on-disk form of a checkpoint.

    ``_meta`` sorts before ``cells``, so ``indent=0`` serialisation puts
    the checksum and sweep parameters on the first lines of the file --
    a tail truncation loses cell records, never the header.
    """
    cell_block = {
        key: {"digest": content_digest(record), "metrics": record}
        for key, record in cells.items()
    }
    return {
        "_meta": {
            "checksum": content_digest(cell_block),
            "n_cycles": n_cycles,
            "version": _VERSION,
            "warmup_cycles": warmup_cycles,
        },
        "cells": cell_block,
    }


def _write(path: str, payload: dict) -> None:
    """Durably write one checkpoint or sidecar file, and count it."""
    written = atomic_write(path, json.dumps(payload, indent=0, sort_keys=True))
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter(
            "runner_checkpoint_bytes_total",
            help="bytes durably written through the checkpoint path",
        ).inc(written)
        registry.counter(
            "runner_checkpoint_fsyncs_total",
            help="fsync calls issued by durable checkpoint writes"
                 " (file plus directory)",
        ).inc(2)


# ----------------------------------------------------------------------
# Reading, verification and salvage
# ----------------------------------------------------------------------

def _salvage_cells(text: str) -> Dict[str, dict]:
    """Digest-validated cell records recoverable from corrupt file text."""
    salvaged: Dict[str, dict] = {}
    for match in _CELL_RECORD_RE.finditer(text):
        key, digest, metrics_text = match.groups()
        try:
            record = json.loads(metrics_text)
        except ValueError:
            continue
        if content_digest(record) == digest:
            salvaged[key] = record
    return salvaged


def _salvage_meta(text: str) -> Dict[str, Optional[int]]:
    """Sweep parameters recoverable from a corrupt file's ``_meta`` header."""
    recovered: Dict[str, Optional[int]] = {}
    for field in ("n_cycles", "warmup_cycles"):
        match = re.search(rf'"{field}":\s*(\d+)', text)
        recovered[field] = int(match.group(1)) if match else None
    return recovered


def _normalized(
    version: int, header: dict, cells: Dict[str, dict],
    quarantined: Optional[str] = None,
) -> dict:
    """What :func:`load_checkpoint` returns for every schema version."""
    return {
        "version": version,
        "n_cycles": header.get("n_cycles"),
        "warmup_cycles": header.get("warmup_cycles"),
        "cells": cells,
        "salvaged": quarantined is not None,
        "quarantined": quarantined,
    }


def _salvage(path: str, text: str, reason: str) -> dict:
    """Recover the digest-valid subset of a corrupt checkpoint.

    The corrupt original is quarantined to ``<path>.corrupt-<n>`` (so the
    next durable write starts clean and the evidence survives) and a
    RuntimeWarning names both the damage and the salvage yield.
    """
    cells = _salvage_cells(text)
    quarantined = quarantine(path)
    warn_once(
        f"checkpoint {path!r} is corrupt ({reason}); salvaged"
        f" {len(cells)} digest-valid cell(s), quarantined the original to"
        f" {quarantined!r}",
        stacklevel=3,
    )
    return _normalized(_VERSION, _salvage_meta(text), cells, quarantined)


def load_checkpoint(path: str, salvage: bool = False) -> dict:
    """Read and verify a sweep checkpoint.

    Returns a normalized dictionary with ``version``, ``n_cycles``,
    ``warmup_cycles``, ``cells`` (cell key -> metrics record), ``salvaged``
    and ``quarantined`` entries regardless of the on-disk schema version.

    Integrity is verified end to end: the ``_meta`` checksum must match
    the cell block, and every cell record must match its own digest.  With
    ``salvage=False`` (the default) any damage -- missing file, truncated
    or bit-flipped JSON, wrong payload type, checksum or digest mismatch
    -- raises :class:`~repro.errors.CheckpointError` naming the path and a
    recovery hint.  With ``salvage=True`` a damaged file is quarantined to
    ``<path>.corrupt-<n>`` and the digest-valid subset of its cells is
    returned instead, so ``--resume`` keeps every provably good cell and
    recomputes only the rest.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        raise CheckpointError(
            path,
            "file does not exist",
            hint="run without --resume to start fresh, or point --checkpoint"
                 " at the file a previous run actually wrote",
        ) from None
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"payload is {type(data).__name__}, expected an object"
            )
    except ValueError as error:
        if salvage:
            return _salvage(path, text, str(error))
        raise CheckpointError(
            path,
            f"unreadable JSON ({error})",
            hint="the file is truncated or corrupt; --resume salvages the"
                 " valid cells automatically, or delete it to start fresh",
        ) from None

    if "_meta" not in data:  # legacy version-1 schema: no integrity data
        version = data.get("version")
        if version != 1:
            raise CheckpointError(
                path,
                f"has version {version!r}, expected 1 or {_VERSION}",
                hint="this file was written by an incompatible release;"
                     " delete it or regenerate the sweep",
            )
        cells = data.get("cells", {})
        if not isinstance(cells, dict):
            raise CheckpointError(
                path, "legacy 'cells' entry is not an object",
                hint="delete the file and rerun without --resume",
            )
        return _normalized(1, data, dict(cells))

    meta = data["_meta"]
    cell_block = data.get("cells")
    damage = None
    if not isinstance(meta, dict) or not isinstance(cell_block, dict):
        damage = "malformed _meta/cells structure"
    elif meta.get("version") != _VERSION:
        raise CheckpointError(
            path,
            f"has version {meta.get('version')!r}, expected {_VERSION}",
            hint="this file was written by an incompatible release;"
                 " delete it or regenerate the sweep",
        )
    elif content_digest(cell_block) != meta.get("checksum"):
        damage = "content checksum mismatch"
    if damage is None:
        cells = {}
        for key, record in cell_block.items():
            if (
                not isinstance(record, dict)
                or content_digest(record.get("metrics")) != record.get("digest")
            ):
                damage = f"cell {key!r} fails its digest"
                break
            cells[key] = record["metrics"]
    if damage is not None:
        if salvage:
            return _salvage(path, text, damage)
        raise CheckpointError(
            path,
            damage,
            hint="the file was corrupted on disk; --resume salvages the"
                 " valid cells automatically, or delete it to start fresh",
        )
    return _normalized(_VERSION, meta, cells)


# ----------------------------------------------------------------------
# One sweep's checkpoint
# ----------------------------------------------------------------------

class SweepCheckpoint:
    """One sweep's view of its session's finished cells, and the files.

    Cells are keyed by :func:`cell_key` under the sweep's ``spec`` digest.
    ``cells`` (cell key -> metrics record) belongs to the session
    (:class:`~repro.sim.runner.Session`) and outlives the sweep: it serves
    every sweep of the session the cells it would compute, and every
    flush writes all of it.  Without a ``path`` nothing is written.
    """

    def __init__(self, path: Optional[str], config, spec: str,
                 technique: str, cells: Dict[str, dict]):
        self.path = path
        self.config = config  # a SweepConfig: n_cycles, warmup_cycles
        self.spec = spec
        self.technique = technique
        self.cells = cells
        self._write_warned = False

    @classmethod
    def open(
        cls, resilience, config, spec: str, technique: str
    ) -> "SweepCheckpoint":
        """The checkpoint at ``resilience.checkpoint_path``, with its cells.

        A session opens the file once, for the first sweep that resumes
        it.  A missing file holds no cells; a corrupt or truncated one is
        salvaged (digest-valid cells kept, the original quarantined, the
        kept cells re-persisted at once).
        """
        path = resilience.checkpoint_path
        checkpoint = cls(path, config, spec, technique, {})
        if path and os.path.exists(path):
            data = load_checkpoint(path, salvage=True)
            checkpoint.cells.update(data["cells"])
            if data["quarantined"]:
                # Salvage moved the damaged original aside; re-persist
                # the recovered subset immediately so the checkpoint
                # path stays valid even if no cell re-runs (e.g. every
                # record survived the damage).
                checkpoint.flush()
        return checkpoint

    def _key(self, cell: Cell) -> str:
        name, seed = cell
        return cell_key(self.spec, name, self.technique, seed)

    def completed(self, cell: Cell) -> Optional[RelativeMetrics]:
        """The metrics the session already holds for ``cell``, if any."""
        record = self.cells.get(self._key(cell))
        if record is None:
            return None
        names = {f.name for f in fields(RelativeMetrics)}
        return RelativeMetrics(
            **{k: v for k, v in record.items() if k in names}
        )

    def record(self, cell: Cell, metrics: RelativeMetrics) -> None:
        """Hold a completed cell in the session; :meth:`flush` persists it."""
        self.cells[self._key(cell)] = asdict(metrics)

    def flush(self) -> None:
        """Write every cell the session holds to the checkpoint, durably.

        A failing write (disk full, I/O error) is reported once per sweep
        as a RuntimeWarning and otherwise tolerated: results are still
        held in memory and the next successful flush persists them, so a
        sick disk degrades durability without aborting the sweep.
        """
        if self.path is None:
            return
        payload = _payload(
            self.config.n_cycles, self.config.warmup_cycles, self.cells
        )
        tracer = obs_trace.active_tracer()
        span = contextlib.nullcontext() if tracer is None else tracer.span(
            "checkpoint_io", cat=obs_trace.CAT_PHASE,
            args={"cells": len(self.cells)},
        )
        try:
            with span:
                _write(self.path, payload)
        except OSError as error:
            if not self._write_warned:
                self._write_warned = True
                warn_once(
                    f"checkpoint write to {self.path!r} failed"
                    f" ({type(error).__name__}: {error}); the sweep"
                    f" continues, but completed cells stay unflushed until"
                    f" a write succeeds",
                    stacklevel=3,
                )

    def write_summary(self, summary) -> None:
        """Persist ``summary`` (timings and incidents included) next to
        the checkpoint as ``<checkpoint>.summary.json``.

        Best-effort durability, like the checkpoint itself: an unwritable
        sidecar must not fail a sweep that already has its results.
        """
        if self.path is None:
            return
        # Function-level import: repro.sim.export imports the runner,
        # which imports this module.
        from repro.sim.export import summary_to_dict

        with contextlib.suppress(OSError):
            _write(f"{self.path}.summary.json", summary_to_dict(summary))

    def write_shutdown(
        self, signal_name: str, completed: int, pending_cells: Sequence[Cell]
    ) -> None:
        """Write ``<checkpoint>.shutdown.json`` describing a drain."""
        if self.path is None:
            return
        payload = {
            "signal": signal_name,
            "technique": self.technique,
            "completed_cells": completed,
            "pending_cells": [[name, seed] for name, seed in pending_cells],
            "resumable": True,
            "checkpoint": self.path,
        }
        with contextlib.suppress(OSError):
            _write(f"{self.path}.shutdown.json", payload)
