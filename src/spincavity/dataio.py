"""On-disk formats: CSV spectra, JSON parameter sets, JSON fit reports.

Spectra are CSV with header ``freq_ghz,reflectivity,weight`` (the weight
column is optional on input and defaults to 1.0); comment lines start
with '#' and metadata is encoded as ``# key=value``. Rows follow the
point rules of Spectrum: frequencies finite and strictly increasing
over a finite span, reflectivity a finite number >= 0, weights finite
numbers > 0. Parameter sets and fit reports are JSON. All loaders reject
unknown keys and report the file path, and for a spectrum the line, of
the first offending value.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import MISSING, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .errors import DomainError
from .hilbert import SystemParams
from .physcalc import TrionLevels
from .spectra import Spectrum, _first_bad_point

SPECTRUM_HEADER = "freq_ghz,reflectivity,weight"

_SYSTEM_KEYS = tuple(f.name for f in dataclass_fields(SystemParams))
_TRION_KEYS = tuple(f.name for f in dataclass_fields(TrionLevels))


def _required_keys(cls) -> tuple[str, ...]:
    """Names of the dataclass fields that have no default."""
    return tuple(f.name for f in dataclass_fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING)


_SYSTEM_REQUIRED = _required_keys(SystemParams)
_TRION_REQUIRED = _required_keys(TrionLevels)
_PARAM_FILE_KEYS = frozenset(_SYSTEM_KEYS + _TRION_KEYS)


def atomic_write_text(path, text: str) -> None:
    """Write via a temporary file and rename, so failures leave no output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def spectrum_to_text(spectrum: Spectrum) -> str:
    """CSV text of a spectrum; ``repr`` gives each float's shortest exact text."""
    lines = []
    for key in sorted(spectrum.meta):
        lines.append(f"# {key}={spectrum.meta[key]}")
    lines.append(SPECTRUM_HEADER)
    for f, r, w in zip(spectrum.freq_ghz.tolist(), spectrum.reflectivity.tolist(),
                       spectrum.weight.tolist()):
        lines.append(f"{f!r},{r!r},{w!r}")
    return "\n".join(lines) + "\n"


def load_spectrum(path) -> Spectrum:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from exc
    meta, rows, row_lines, n_cols = {}, [], [], 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                try:
                    meta[key.strip()] = float(value)
                except ValueError:
                    meta[key.strip()] = value.strip()
        elif line and not n_cols:
            cols = [c.strip() for c in line.split(",")]
            if ",".join(cols) not in (SPECTRUM_HEADER, "freq_ghz,reflectivity"):
                raise DomainError(
                    f"{path}:{lineno}: expected header '{SPECTRUM_HEADER}' "
                    f"(weight optional), got '{line}'")
            n_cols = len(cols)
        elif line:
            parts = line.split(",")
            if not 2 <= len(parts) <= n_cols:
                raise DomainError(
                    f"{path}:{lineno}: expected {n_cols} comma-separated "
                    f"values, got '{line}'")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
            rows.append(values + [1.0] * (3 - len(values)))
            row_lines.append(lineno)
    if not n_cols:
        raise DomainError(f"{path}: missing header '{SPECTRUM_HEADER}'")
    columns = np.array(rows, dtype=float).reshape(-1, 3).T
    if (bad := _first_bad_point(*columns)) is not None:
        raise DomainError(f"{path}:{row_lines[bad[0]]}: {bad[1]}")
    if len(rows) < 3:
        raise DomainError(f"{path}: need at least 3 data rows, got {len(rows)}")
    return Spectrum(*columns, meta=meta)


def _read_json_object(path: Path, known_keys=None) -> dict:
    """Parse a JSON file holding one object, optionally of known keys only."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except ValueError as exc:
        raise DomainError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise DomainError(f"{path}: expected a JSON object at the top level")
    if known_keys is not None:
        unknown = sorted(set(record) - known_keys)
        if unknown:
            raise DomainError(f"{path}: unknown keys {unknown}")
    return record


def _levels_from(record: dict, path: Path) -> TrionLevels:
    missing = [k for k in _TRION_REQUIRED if k not in record]
    if missing:
        raise DomainError(f"{path}: missing level-structure keys {missing}")
    try:
        return TrionLevels(**{k: record[k] for k in _TRION_KEYS if k in record})
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def save_params(params: SystemParams, path, levels: TrionLevels | None = None) -> None:
    record = {k: getattr(params, k) for k in _SYSTEM_KEYS}
    if levels is not None:
        record.update({k: getattr(levels, k) for k in _TRION_KEYS})
    atomic_write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def load_params(path) -> tuple[SystemParams, TrionLevels | None]:
    """Load a parameter file; returns the levels only if their keys appear.

    Omitted optional fields take the documented defaults (gamma3 and
    gamma4 0.1 GHz, fock_dim 4, drive_amp kappa/100, diamagnetic_coeff
    and field 0).
    """
    path = Path(path)
    record = _read_json_object(path, _PARAM_FILE_KEYS)
    sys_kwargs = {k: record[k] for k in _SYSTEM_KEYS if k in record}
    fd = sys_kwargs.get("fock_dim")
    if isinstance(fd, float):
        if not fd.is_integer():
            raise DomainError(f"{path}: fock_dim must be an integer, got {fd}")
        sys_kwargs["fock_dim"] = int(fd)
    missing = [k for k in _SYSTEM_REQUIRED if k not in sys_kwargs]
    if missing:
        raise DomainError(f"{path}: missing required keys {missing}")
    try:
        params = SystemParams(**sys_kwargs)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc

    if any(k in record for k in _TRION_KEYS):
        return params, _levels_from(record, path)
    return params, None


def load_levels(path) -> TrionLevels:
    """Load a level structure from a JSON file.

    The file may be a full parameter file; system keys are ignored here.
    The three level keys zero_field_frequency, electron_g and hole_g are
    required.
    """
    path = Path(path)
    return _levels_from(_read_json_object(path, _PARAM_FILE_KEYS), path)


def load_fit_report(path) -> dict:
    return _read_json_object(Path(path))


def fit_report_record(result, provenance: dict) -> dict:
    """JSON-ready record for a FitResult."""
    return {
        "params": {k: float(v) for k, v in result.params.items()},
        "ci95": {k: float(v) for k, v in result.ci95.items()},
        "residual_rms": float(result.residual_rms),
        "n_iterations": int(result.n_iterations),
        "converged": bool(result.converged),
        "derived": {k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
                    for k, v in result.derived.items()},
        "ci_method": dict(result.ci_method),
        "provenance": dict(provenance),
    }


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
