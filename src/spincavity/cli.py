"""Command-line front end.

Subcommands: simulate, fit, sweep, derive, synth. All outputs are
written atomically; on a nonzero exit nothing is written. Exit codes:
0 success, 2 input validation failure, 3 numerical failure. Each run
prints a JSON summary with the tool version and SHA-256 hashes of the
input files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, dataio, fitkit, hilbert, spectra, svgplot
from .errors import DomainError, NumericalError, SpinCavityError, StateError
from .physcalc import (DEFAULT_TEMPERATURE_K, cooperativity,
                       is_strongly_coupled, lande_g_factor,
                       splitting_nm_to_ghz, thermal_spin_up_population,
                       wavelength_to_frequency)
from .spectra import _ROW_LIMIT, FringeModel, ScanConfig


def _numbers(flag: str, text: str, form: str, types: tuple) -> tuple:
    """The comma-separated values of one flag, each converted by its type."""
    parts = text.split(",")
    if len(parts) != len(types):
        raise DomainError(f"{flag} expects {form}, got '{text}'")
    try:
        values = tuple(kind(part) for kind, part in zip(types, parts))
    except ValueError as exc:
        raise DomainError(f"{flag} expects {form}, got '{text}' ({exc})") from exc
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise DomainError(f"{flag} must be finite, got '{text}'")
    return values


def _parse_scan(args) -> ScanConfig:
    start, stop, n = _numbers("--scan", args.scan, "START,STOP,N",
                              (float, float, int))
    if args.wavelength_axis:
        # interpret the endpoints as nm and convert; order flips
        a = wavelength_to_frequency(start)
        b = wavelength_to_frequency(stop)
        start, stop = min(a, b), max(a, b)
    return ScanConfig(start=start, stop=stop, n_points=n,
                      scale=args.scale, background=args.background)


def _parse_fields(text: str) -> list[float]:
    """The fields of B0:B1:STEP, rounded to 9 decimals; a single B is B:B."""
    parts = text.split(":")
    if len(parts) == 1:
        parts = [text, text, "1"]
    try:
        if len(parts) != 3:
            raise ValueError("expected B0:B1:STEP")
        b0, b1, step = (float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"--fields expects B0:B1:STEP, got '{text}' ({exc})") from exc
    if not all(math.isfinite(v) for v in (b0, b1, step)):
        raise DomainError(f"--fields values must be finite, got '{text}'")
    if step <= 0:
        raise DomainError(f"--fields step must be positive, got {step}")
    if b1 < b0:
        raise DomainError(f"--fields needs B0 <= B1, got '{text}'")
    n_steps = (b1 - b0 + 1e-9) / step
    # checked before math.floor, which raises on an infinite quotient
    if not n_steps < _ROW_LIMIT:
        raise DomainError(f"--fields '{text}' asks for more fields than the "
                          f"limit of {_ROW_LIMIT}")
    count = math.floor(n_steps) + 1
    return [round(b0 + k * step, 9) for k in range(count)]


def _parse_kv(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise DomainError(f"expected KEY=VALUE, got '{pair}'")
        key = key.strip()
        (out[key],) = _numbers(key, value, "a number", (float,))
    return out


def _clean_spectrum(args):
    """Spectrum plus summary extras for simulate/synth."""
    if (args.pup is None) == (args.model == "mixed"):
        raise DomainError("--pup is required by, and only applies to, --model mixed")
    params, _ = dataio.load_params(args.params)
    cfg = _parse_scan(args)
    extras = {}
    if args.model == "dit":
        _, (g4, gamma_perp4, omega4) = spectra.spin_down_lines(vars(params))
        spec = spectra.dit_spectrum(g4, params.kappa, gamma_perp4,
                                    omega4 - params.omega_c, params.omega_c,
                                    cfg)
    elif args.model == "two":
        spec = spectra.two_transition_spectrum(params, cfg)
    elif args.model == "master":
        # the Fock-cutoff check's larger cutoff is refused before the scan
        hilbert._larger_cutoff(params)
        spec = spectra.master_equation_spectrum(params, cfg)
        closed = spectra.two_transition_spectrum(params, cfg)
        extras["max_rel_diff_master_vs_two"] = spectra.max_relative_difference(
            spec, closed)
        dip = float(spec.freq_ghz[int(np.argmin(spec.reflectivity))])
        extras["fock_convergence_shift"] = hilbert.fock_convergence_shift(
            params, dip)
    else:  # mixed; argparse restricts --model to its choices
        up = spectra.lorentzian_spectrum(params.kappa, params.omega_c, cfg)
        down = spectra.two_transition_spectrum(params, cfg)
        spec = spectra.mixed_spectrum(args.pup, up, down)
    return spec, extras


def _summary(command: str, inputs: list, outputs: list, **extras) -> dict:
    record = {
        "command": command,
        "version": __version__,
        "inputs": {str(p): dataio.sha256_of(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    record.update(extras)
    return record


def _flush_writes(pending, outdir: Path | None = None) -> None:
    """Write all rendered outputs, after validating every destination.

    Content is rendered before this point, so a validation or numerical
    failure never leaves partial output files behind. No two outputs may
    go to one file. ``outdir``, the one directory a command creates,
    is made after every other check passed.
    """
    # one realpath per directory: a sweep writes all its spectra to one
    real_dirs = {parent: os.path.realpath(parent)
                 for parent in {Path(path).parent for path, _ in pending}}
    entries = set()
    for path, _ in pending:
        parent = Path(path).parent
        if parent != outdir and not parent.is_dir():
            raise DomainError(f"output directory does not exist: {parent}")
        # the write replaces a directory entry, so two outputs clash when
        # they name the same entry of the same real directory
        entry = (real_dirs[parent], Path(path).name)
        if entry in entries:
            raise DomainError(f"two outputs would be written to {path}")
        entries.add(entry)
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    for path, text in pending:
        dataio.atomic_write_text(path, text)


def _cmd_simulate(args) -> dict:
    spec, extras = _clean_spectrum(args)
    pending = [(args.out, dataio.spectrum_to_text(spec))]
    if args.plot:
        pending.append((args.plot, svgplot.render_spectra(
            [(spec, args.model, False)],
            title=f"simulated reflectivity ({args.model})",
            nm_axis=args.wavelength_axis)))
    _flush_writes(pending)
    return _summary("simulate", [args.params], [p for p, _ in pending], **extras)


def _cmd_synth(args) -> dict:
    fringe = FringeModel(*_numbers("--fringe", args.fringe, "AMP,PERIOD,PHASE",
                                   (float, float, float)))
    spec, extras = _clean_spectrum(args)
    noisy = spectra.synthesize_noisy(spec, args.noise, fringe, seed=args.seed)
    _flush_writes([(args.out, dataio.spectrum_to_text(noisy))])
    return _summary("synth", [args.params], [args.out], seed=args.seed, **extras)


_SINGLE_DEFAULTS_NOTE = (
    "for --model single, g defaults to sqrt(g3^2 + g4^2) of the params "
    "file and gamma/delta to its transition-4 view; for --model mixed, "
    "p_up defaults to 0 unless freed")


def _cmd_fit(args) -> dict:
    data = dataio.load_spectrum(args.data)
    params, _ = dataio.load_params(args.params)
    free_names = [n.strip() for n in args.free.split(",") if n.strip()]
    if not free_names:
        raise DomainError("--free needs at least one parameter name")
    g_total = None
    if args.constraint:
        key, sep, value = args.constraint.partition("=")
        if key.strip() != "gtotal" or not sep:
            raise DomainError("--constraint expects gtotal=VALUE")
        g_total = float(value)
    fixed = _parse_kv(args.set or [])
    init = _parse_kv(args.init or [])
    center_weight = None
    if args.center_weight is not None:
        center_weight = _numbers("--center-weight", args.center_weight,
                                 "N,FACTOR", (int, float))

    problem = fitkit.problem_from_params(
        data, args.model, params, free_names, fixed=fixed, init=init,
        g_total=g_total, center_weight=center_weight)
    result = fitkit.fit(problem)
    if not math.isfinite(result.residual_rms):
        raise NumericalError(f"the fit's residual RMS is {result.residual_rms}: "
                             "its weighted residuals overflow on these data")

    # the summary is built before the report so each input is hashed once
    summary = _summary("fit", [args.data, args.params],
                       [args.out] + ([args.plot] if args.plot else []),
                       converged=result.converged,
                       residual_rms=result.residual_rms)
    provenance = {"data_sha256": summary["inputs"][str(args.data)],
                  "params_sha256": summary["inputs"][str(args.params)],
                  "tool_version": __version__}
    if "seed" in data.meta:
        provenance["data_seed"] = data.meta["seed"]
    report = dataio.fit_report_record(result, provenance)
    pending = [(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")]
    if args.plot:
        model_fn = fitkit.MODEL_FUNCS[problem.model]
        curve = spectra.Spectrum(
            data.freq_ghz,
            model_fn(data.freq_ghz, {**problem.fixed, **result.params}),
            meta={"label": "fit"})
        pending.append((args.plot, svgplot.render_spectra(
            [(data, "data", True), (curve, "fit", False)],
            title=f"fit ({args.model})")))
    _flush_writes(pending)
    return summary


def _field_file_name(field: float) -> str:
    """``field_06.200T.csv``, with the fewest decimals (3 to 9) that give back the field.

    ``_parse_fields`` rounds a range's fields to 9 decimals, so distinct
    fields of a range get distinct names.
    """
    decimals = next((d for d in range(3, 10) if float(f"{field:.{d}f}") == field), 9)
    return f"field_{field:0{decimals + 3}.{decimals}f}T.csv"


def _cmd_sweep(args) -> dict:
    params, levels = dataio.load_params(args.params)
    if args.levels:
        levels = dataio.load_levels(args.levels)
    if levels is None:
        raise DomainError("no level structure: provide --levels or put the "
                          "level keys in the params file")
    fields = _parse_fields(args.fields)
    cfg = _parse_scan(args)
    sweep = spectra.field_sweep(levels, params, fields, cfg)
    outdir = Path(args.out)
    pending = [(outdir / _field_file_name(b), dataio.spectrum_to_text(spec))
               for b, spec in zip(fields, sweep)]
    if args.plot:
        bare_peak = float(np.max(spectra.lorentzian_spectrum(
            params.kappa, params.omega_c, cfg).reflectivity))
        pending.append((args.plot, svgplot.render_sweep_map(
            sweep, title="reflectivity vs magnetic field", norm=bare_peak)))
    _flush_writes(pending, outdir)
    inputs = [args.params] + ([args.levels] if args.levels else [])
    return _summary("sweep", inputs, [p for p, _ in pending],
                    n_fields=len(fields))


# The keys each ``derive --what`` reads; any other key is refused.
_DERIVE_KEYS = {
    "gfactor": ("splitting_ghz", "splitting_nm", "center_nm", "field"),
    "pup": ("delta_e_mev", "temp"),
    "cooperativity": ("g", "kappa", "gamma"),
    "strong": ("g", "kappa", "gamma"),
}


def _cmd_derive(args) -> dict:
    kv = _parse_kv(args.values)
    what = args.what
    unknown = [key for key in kv if key not in _DERIVE_KEYS[what]]
    if unknown:
        raise DomainError(f"--what {what} does not read {', '.join(unknown)}; "
                          f"it reads {', '.join(_DERIVE_KEYS[what])}")
    try:
        if what == "gfactor":
            given_nm = [key for key in ("splitting_nm", "center_nm") if key in kv]
            if "splitting_ghz" in kv and given_nm:
                raise DomainError("--what gfactor takes the splitting once, as "
                                  "splitting_ghz or as splitting_nm with center_nm; "
                                  f"got splitting_ghz and {', '.join(given_nm)}")
            splitting = (kv["splitting_ghz"] if "splitting_ghz" in kv else
                         splitting_nm_to_ghz(kv["splitting_nm"], kv["center_nm"]))
            out = {"what": what,
                   "splitting_ghz": splitting,
                   "g_factor": lande_g_factor(splitting, kv["field"])}
        elif what == "pup":
            out = {"what": what,
                   "p_up": thermal_spin_up_population(
                       kv["delta_e_mev"], kv.get("temp", DEFAULT_TEMPERATURE_K))}
        elif what == "cooperativity":
            out = {"what": what,
                   "cooperativity": cooperativity(kv["g"], kv["kappa"], kv["gamma"]),
                   "note": "unrounded; inputs are value/2pi in GHz"}
        else:  # strong; argparse restricts --what to its choices
            out = {"what": what,
                   "strong_coupling": is_strongly_coupled(
                       kv["g"], kv["kappa"], kv["gamma"]),
                   "coherent_side_4g": 4.0 * kv["g"],
                   "loss_side_kappa_plus_gamma": kv["kappa"] + kv["gamma"]}
    except KeyError as exc:
        raise DomainError(f"missing required value {exc} for --what {what}") from exc
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalError(f"--what {what}: {key} is {value}, not finite")
    return out


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the spincavity command line."""
    parser = argparse.ArgumentParser(
        prog="spincavity",
        description="Simulate and fit spin-dependent cavity reflectivity spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scan_options(p):
        p.add_argument("--scan", required=True,
                       help="probe grid START,STOP,N in GHz "
                            "(nm when --wavelength-axis is set)")
        p.add_argument("--scale", type=float, default=1.0,
                       help="response scale factor (default 1)")
        p.add_argument("--background", type=float, default=0.0,
                       help="constant background (default 0)")
        p.add_argument("--wavelength-axis", action="store_true",
                       help="interpret --scan in nm and label plots in nm")

    def add_model_options(p):
        p.add_argument("--params", required=True)
        p.add_argument("--model", required=True,
                       choices=("dit", "two", "master", "mixed"))
        p.add_argument("--pup", type=float, default=None,
                       help="spin-up occupation for --model mixed")
        add_scan_options(p)

    sim = sub.add_parser("simulate", help="compute a reflectivity spectrum")
    add_model_options(sim)
    sim.add_argument("--out", required=True)
    sim.add_argument("--plot", default=None, help="SVG output path")
    sim.set_defaults(func=_cmd_simulate)

    fitp = sub.add_parser("fit", help="fit a spectrum to a model")
    fitp.add_argument("--data", required=True)
    fitp.add_argument("--params", required=True)
    fitp.add_argument("--model", required=True,
                      choices=tuple(m.value for m in fitkit.ModelKind))
    fitp.add_argument("--free", required=True,
                      help="comma-separated free parameter names")
    fitp.add_argument("--constraint", default=None,
                      help="gtotal=VALUE couples g3 and g4 (mixed model)")
    fitp.add_argument("--set", action="append", metavar="NAME=VALUE",
                      help=f"fix a model parameter; {_SINGLE_DEFAULTS_NOTE}")
    fitp.add_argument("--init", action="append", metavar="NAME=VALUE",
                      help="override the heuristic initial value")
    fitp.add_argument("--center-weight", default=None, metavar="N,FACTOR",
                      help="boost the N points nearest the dip by FACTOR")
    fitp.add_argument("--out", required=True)
    fitp.add_argument("--plot", default=None)
    fitp.set_defaults(func=_cmd_fit)

    sw = sub.add_parser("sweep", help="spectra across a magnetic-field range")
    sw.add_argument("--levels", default=None,
                    help="JSON with the Zeeman level structure")
    sw.add_argument("--params", required=True)
    sw.add_argument("--fields", required=True, help="B0:B1:STEP in tesla")
    add_scan_options(sw)
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--plot", default=None)
    sw.set_defaults(func=_cmd_sweep)

    dv = sub.add_parser("derive", help="closed-form derived quantities")
    dv.add_argument("--what", required=True, choices=tuple(_DERIVE_KEYS))
    dv.add_argument("values", nargs="*", metavar="KEY=VALUE")
    dv.set_defaults(func=_cmd_derive)

    sy = sub.add_parser("synth", help="deterministic synthetic noisy spectrum")
    add_model_options(sy)
    sy.add_argument("--noise", type=float, required=True,
                    help="relative noise level")
    sy.add_argument("--fringe", default="0,1,0", metavar="AMP,PERIOD,PHASE")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out", required=True)
    sy.set_defaults(func=_cmd_synth)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.

    Parsing leaves it unchanged: each call makes a new Namespace, the
    ``append`` flags default to None and so start a new list, and the
    subcommand defaults are only read.
    """
    return build_parser()


def _merge_scan_flag(argv: list[str]) -> list[str]:
    """Join '--scan -60,60,241' into one token.

    A scan starting at a negative frequency would otherwise be read by
    argparse as an option string.
    """
    merged = []
    for arg in argv:
        if merged and merged[-1] == "--scan":
            merged[-1] = f"--scan={arg}"
        else:
            merged.append(arg)
    return merged


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_merge_scan_flag(list(argv)))
    try:
        summary = args.func(args)
    except (OSError, SpinCavityError) as exc:
        # the exit-code rule of spincavity.errors
        if isinstance(exc, (RuntimeError, StateError)):
            print(f"spincavity: numerical error: {exc}", file=sys.stderr)
            return 3
        print(f"spincavity: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2, sort_keys=True, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
