"""On-disk formats: CSV spectra, JSON parameter sets, JSON fit reports.

Spectra are CSV with header ``freq_ghz,reflectivity,weight`` (the weight
column is optional on input and defaults to 1.0); comment lines start
with '#' and metadata is encoded as ``# key=value``. Parameter sets and
fit reports are JSON. All loaders reject unknown keys and report the
file path and line of the first offending value.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .errors import DataValidationError, DomainError, FormatError, SchemaError
from .hilbert import SystemParams
from .physcalc import TrionLevels
from .spectra import Spectrum

SPECTRUM_HEADER = "freq_ghz,reflectivity,weight"

_SYSTEM_KEYS = tuple(f.name for f in dataclass_fields(SystemParams))
_TRION_KEYS = tuple(f.name for f in dataclass_fields(TrionLevels))
_TRION_REQUIRED = ("zero_field_frequency", "electron_g", "hole_g")
_PARAM_FILE_KEYS = frozenset(_SYSTEM_KEYS + _TRION_KEYS)


def _fmt(x: float) -> str:
    """Shortest decimal text that round-trips the float exactly."""
    return repr(float(x))


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
    lines = []
    for key in sorted(spectrum.meta):
        lines.append(f"# {key}={spectrum.meta[key]}")
    lines.append(SPECTRUM_HEADER)
    for f, r, w in zip(spectrum.freq_ghz, spectrum.reflectivity, spectrum.weight):
        lines.append(f"{_fmt(f)},{_fmt(r)},{_fmt(w)}")
    return "\n".join(lines) + "\n"


def save_spectrum(spectrum: Spectrum, path) -> None:
    atomic_write_text(path, spectrum_to_text(spectrum))


def _parse_meta_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def load_spectrum(path) -> Spectrum:
    path = Path(path)
    meta = {}
    rows = []
    header_seen = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = _parse_meta_value(value.strip())
            continue
        if not header_seen:
            cols = [c.strip() for c in line.split(",")]
            if cols not in (["freq_ghz", "reflectivity", "weight"],
                            ["freq_ghz", "reflectivity"]):
                raise FormatError(
                    f"{path}:{lineno}: expected header '{SPECTRUM_HEADER}' "
                    f"(weight optional), got '{line}'")
            header_seen = True
            n_cols = len(cols)
            continue
        parts = line.split(",")
        if len(parts) not in (2, 3) or len(parts) > n_cols:
            raise FormatError(
                f"{path}:{lineno}: expected {n_cols} comma-separated values, "
                f"got '{line}'")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise DataValidationError(f"{path}:{lineno}: {exc}") from exc
        freq, refl = values[0], values[1]
        weight = values[2] if len(values) == 3 else 1.0
        if rows and freq <= rows[-1][0]:
            raise DataValidationError(
                f"{path}:{lineno}: frequency {freq} is not strictly "
                f"increasing (previous {rows[-1][0]})")
        if not np.isfinite(refl) or refl < 0:
            raise DataValidationError(
                f"{path}:{lineno}: reflectivity must be finite and >= 0, "
                f"got {refl}")
        if not np.isfinite(weight) or weight <= 0:
            raise DataValidationError(
                f"{path}:{lineno}: weight must be finite and > 0, got {weight}")
        rows.append((freq, refl, weight))
    if not header_seen:
        raise FormatError(f"{path}: missing header '{SPECTRUM_HEADER}'")
    if len(rows) < 3:
        raise DataValidationError(f"{path}: need at least 3 data rows, got {len(rows)}")
    arr = np.array(rows, dtype=float)
    return Spectrum(arr[:, 0], arr[:, 1], arr[:, 2], meta=meta)


def _read_json_object(path: Path, known_keys=None) -> dict:
    """Parse a JSON file holding one object, optionally of known keys only."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    if known_keys is not None:
        unknown = sorted(set(record) - known_keys)
        if unknown:
            raise SchemaError(f"{path}: unknown keys {unknown}")
    return record


def _levels_from(record: dict, path: Path) -> TrionLevels:
    missing = [k for k in _TRION_REQUIRED if k not in record]
    if missing:
        raise SchemaError(f"{path}: missing level-structure keys {missing}")
    try:
        return TrionLevels(**{k: record[k] for k in _TRION_KEYS if k in record})
    except DomainError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc


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
            raise SchemaError(f"{path}: fock_dim must be an integer, got {fd}")
        sys_kwargs["fock_dim"] = int(fd)
    missing = [k for k in ("kappa", "g3", "g4", "gamma_d3", "gamma_d4",
                           "omega_c", "omega_x", "delta_h") if k not in sys_kwargs]
    if missing:
        raise SchemaError(f"{path}: missing required keys {missing}")
    try:
        params = SystemParams(**sys_kwargs)
    except DomainError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc

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


def save_fit_report(report: dict, path) -> None:
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_fit_report(path) -> dict:
    return _read_json_object(Path(path))


def fit_report_record(result, provenance: dict | None = None) -> dict:
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
        "provenance": dict(provenance or {}),
    }


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
