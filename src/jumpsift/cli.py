"""Command-line front end.

Five subcommands sharing one option surface:

  simulate   one path -> path.csv
  estimate   stored path -> report.json
  detect     stored path -> detection.csv + report.json
  mc         repeated paths -> summary.json + hist.csv
  compare    estimator efficiency -> efficiency.csv

estimate and detect share one kernel call, so estimate's report.json is the
one detect writes for the same path and threshold.

Every run also writes manifest.json: the resolved configuration, seed, RNG
id, and sha256 of each output. replay_manifest() re-executes a manifest and
must reproduce the other files byte-for-byte.

Exit codes: 0 success, 2 configuration error, 3 runtime error (running out
of memory included), 130 interrupted.

main(argv) is the same entry point in process: it returns the exit code,
and repeated calls are independent but build the parser only once. Only mc
and compare load the Monte Carlo harness, on their first run.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import os
import sys
import warnings

from . import __version__
from .config import RUN_PARAMETERS, RunSettings, load_config_file, merge_settings
from .errors import AdmissibilityWarning, ConfigError, InvalidArgumentError, JumpsiftError
from .estimators import _report
from .models import model_name
from .serialize import (
    build_manifest,
    file_sha256,
    model_to_dict,
    read_path_csv,
    report_to_dict,
    summary_to_dict,
    write_detection_csv,
    write_efficiency_csv,
    write_histogram_csv,
    write_json,
    write_path_csv,
)
from .engines import RNG_ALGORITHM, path_seed, simulate

_COMMANDS = {
    "simulate": "simulate one path and write it as CSV",
    "estimate": "estimate integrated variance from a stored path",
    "detect": "flag jump intervals in a stored path",
    "mc": "repeated-path experiment with normality diagnostics",
    "compare": "threshold vs bipower efficiency on a jump-free model",
}
_NEEDS_INPUT = {"estimate", "detect"}

# Peak traced memory, per fine step, of building a run's plan (grid, subgrid,
# threshold and engine constants) plus its first simulated and estimated path.
_BYTES_PER_FINE_STEP = 122


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpsift",
        description="Simulation and threshold estimation of integrated variance under jumps.")
    parser.add_argument("--version", action="version", version=f"jumpsift {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="named preset, e.g. model1-desk")
    common.add_argument("--config", help="key-value config file")
    for param in RUN_PARAMETERS:
        if param.help is not None:
            common.add_argument("--" + param.key.replace("_", "-"), dest=param.key,
                                help=param.help)
    common.add_argument("--out", default=".", help="output directory (default: current)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext, parents=[common])
        if name in _NEEDS_INPUT:
            p.add_argument("--in", dest="input", help="path CSV to read")
    return parser


# Built on main's first call, not at import, and kept for the process: each
# parse_args returns a fresh Namespace, and no action has a mutable default.
# It holds no arrays or other run-scoped state, so nothing of a run outlives it.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    settings = None
    try:
        settings = _settings_from_args(args)
        out_dir = args.out
        with _admissibility_lines():
            outputs = _run(args.command, settings, out_dir, getattr(args, "input", None))
    except ConfigError as exc:
        print(f"jumpsift: config error: {exc}", file=sys.stderr)
        return 2
    except (JumpsiftError, OSError) as exc:
        print(f"jumpsift: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        if args.command in _NEEDS_INPUT:
            print(f"jumpsift: error: out of memory on the path read from {args.input}",
                  file=sys.stderr)
            return 3
        size = "" if settings is None else f" at n = {settings.n}, substeps = {settings.substeps}"
        print(f"jumpsift: error: out of memory{size}; a simulated path needs about"
              f" {_BYTES_PER_FINE_STEP} bytes per fine step, and it has n * substeps of them",
              file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # forked workers are already stopped
        print("jumpsift: interrupted", file=sys.stderr)
        return 130
    for name in outputs:
        print(os.path.join(out_dir, name))
    return 0


def _settings_from_args(args) -> RunSettings:
    if args.command in _NEEDS_INPUT and not getattr(args, "input", None):
        raise ConfigError(f"{args.command} requires --in")
    file_values = load_config_file(args.config) if args.config else None
    default_preset = None
    if args.config is None and args.preset is None:
        default_preset = "diffusion-desk" if args.command == "compare" else "model1-desk"
    # A config-file-only key has no flag, so no attribute on args.
    overrides = {p.key: getattr(args, p.key, None) for p in RUN_PARAMETERS}
    return merge_settings(file_values, overrides, preset=args.preset or default_preset)


@contextlib.contextmanager
def _admissibility_lines():
    """Prints each distinct AdmissibilityWarning message once, as one
    'jumpsift: warning:' line, whatever the warning filters say; every other
    warning goes on to the showwarning in place before."""
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("always", AdmissibilityWarning)
        show = warnings.showwarning

        def showwarning(message, category, filename, lineno, file=None, line=None):
            if not issubclass(category, AdmissibilityWarning):
                show(message, category, filename, lineno, file, line)
            elif str(message) not in seen:
                seen.add(str(message))
                print(f"jumpsift: warning: {message}", file=sys.stderr)

        warnings.showwarning = showwarning
        yield


def _run(command: str, settings: RunSettings, out_dir: str,
         input_path: str | None) -> list[str]:
    """Runs one command into out_dir: writes its outputs, then manifest.json
    with the sha256 of each (and of the input, for estimate and detect), and
    returns the names written, manifest.json last."""
    writers = {}  # output name -> function writing that file to a path
    if command == "simulate":
        cfg = settings.experiment()
        path = simulate(cfg.model, cfg.build_grid(), cfg.substeps,
                        path_seed(cfg.base_seed, 0))
        writers["path.csv"] = lambda dest: write_path_csv(path, dest)
    elif command in _NEEDS_INPUT:
        path = read_path_csv(input_path)
        det, report = _report(path, settings.threshold())
        if command == "detect":
            writers["detection.csv"] = lambda dest: write_detection_csv(path, det, dest)
        writers["report.json"] = lambda dest: write_json(dest, report_to_dict(report, path))
    elif command == "mc":
        from .montecarlo import run_experiment
        summary = run_experiment(settings.experiment())
        writers["summary.json"] = lambda dest: write_json(dest, summary_to_dict(summary))
        if summary.histogram is not None:
            writers["hist.csv"] = lambda dest: write_histogram_csv(summary.histogram, dest)
    else:  # compare
        from .montecarlo import efficiency_comparison
        table = efficiency_comparison(settings.experiment())
        writers["efficiency.csv"] = lambda dest: write_efficiency_csv(table, dest)
    os.makedirs(out_dir, exist_ok=True)  # only now, so a failed command leaves no directory
    for name, write in writers.items():
        write(os.path.join(out_dir, name))
    manifest = build_manifest(
        command=command,
        config=_settings_echo(settings),
        base_seed=settings.seed,
        rng_id=RNG_ALGORITHM,
        version=__version__,
        created_utc=datetime.datetime.now(datetime.timezone.utc)
                    .isoformat(timespec="seconds"),
        out_dir=out_dir,
        outputs=list(writers),
    )
    if command in _NEEDS_INPUT:
        manifest["inputs"] = [{"file": input_path, "sha256": file_sha256(input_path)}]
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return [*writers, "manifest.json"]


def _settings_echo(settings: RunSettings) -> dict:
    """Scalar key-value echo; feeding it back through merge_settings yields
    the same RunSettings, which is what replay_manifest relies on."""
    name = model_name(settings.model)
    # Only a custom model's fields are config keys.
    out = model_to_dict(settings.model) if name == "custom" else {"model": name}
    out.update({p.key: getattr(settings, p.field) for p in RUN_PARAMETERS})
    return out


def replay_manifest(manifest_path: str, out_dir: str) -> list[str]:
    """Re-executes the run a manifest describes, writing into out_dir.

    All outputs except the manifest's created_utc field are byte-identical
    to the original run. Raises ConfigError, naming the manifest, if it is
    not JSON, lacks a key, holds a value of the wrong JSON type, names an
    unknown command, is an estimate or detect manifest with no input, or
    echoes a config key or value a config file would reject; a ConfigError
    the replayed command raises keeps its class and gains the same prefix.
    Raises InvalidArgumentError, naming the file, if a recorded input or
    output does not match its recorded sha256.
    """
    import json
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"{manifest_path}: not a JSON manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: manifest is {type(manifest).__name__}, not dict")
    manifest = {"inputs": [], "outputs": [], **manifest}
    for key, kind in (("command", str), ("config", dict), ("base_seed", int),
                      ("inputs", list), ("outputs", list)):
        if key not in manifest:
            raise ConfigError(f"{manifest_path}: manifest lacks {key!r}")
        value = manifest[key]
        if not isinstance(value, kind) or isinstance(value, bool):  # bool is an int
            raise ConfigError(f"{manifest_path}: {key!r} is {type(value).__name__},"
                              f" not {kind.__name__}")
    if manifest["command"] not in _COMMANDS:
        raise ConfigError(f"{manifest_path}: unknown command {manifest['command']!r}")
    inputs, outputs = manifest["inputs"], manifest["outputs"]
    for entry in (*inputs, *outputs):
        if not isinstance(entry, dict) or not {"file", "sha256"} <= entry.keys():
            raise ConfigError(f"{manifest_path}: an entry lacks 'file' or 'sha256'")
        for key in ("file", "sha256"):
            if not isinstance(entry[key], str):
                raise ConfigError(f"{manifest_path}: an entry's {key!r} is"
                                  f" {type(entry[key]).__name__}, not str")
    if manifest["command"] in _NEEDS_INPUT and not inputs:
        raise ConfigError(f"{manifest_path}: {manifest['command']} manifest has no input entry")
    # The echo holds only int, float and str; a float's repr parses back to
    # the same double.
    try:
        settings = merge_settings(None, {k: str(v) for k, v in manifest["config"].items()})
        settings = settings.with_seed(int(manifest["base_seed"]))
        _check_hashes(inputs, "", "input")
        with _admissibility_lines():
            written = _run(manifest["command"], settings, out_dir,
                           inputs[0]["file"] if inputs else None)
    except ConfigError as exc:  # the echo's values, or a rule the command checks
        raise type(exc)(f"{manifest_path}: {exc}") from None
    _check_hashes(outputs, out_dir, "output")
    return written


def _check_hashes(entries: list[dict], base_dir: str, role: str) -> None:
    for entry in entries:
        name = os.path.join(base_dir, entry["file"])
        if file_sha256(name) != entry["sha256"]:
            raise InvalidArgumentError(
                f"{name}: {role} does not match the sha256 recorded in the manifest")


if __name__ == "__main__":
    sys.exit(main())
