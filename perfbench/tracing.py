"""Traced run: per-layer metrics from spans around public jumpsift calls.

Each round of a traced run does four things:

1. runs the workload's CLI commands untraced at parallelism 1 and 2, which
   gives ``montecarlo.speedup_2proc`` and checks that the output bytes do
   not depend on the worker count (the determinism contract);
2. replays every command through the package's public functions, one span
   per layer call. An ``mc`` or ``compare`` replay calls the harness once,
   untraced, to produce the outputs, then replays its per-path loop with a
   span around each call. The replayed outputs must equal the CLI's bytes;
3. replays a probe chain so that every layer is timed on every workload:
   the io chain (simulate, estimate, detect) at the workload's preset and
   size for the mc workloads, and the harness on one path of the preset's
   size for ``io-longpath``. The harness cannot run the long path: at
   n >= 10000 ``build_uniform_grid`` returns a grid that ``is_uniform``
   rejects, so ``normalized_bias`` raises and ``mc`` exits 3;
4. starts and stops a 2-worker pool the way the harness does.

Spans stay in memory as [name, start_ns, end_ns, parent index] and are
written to ``spans.json`` when the run ends. Layer code is never patched.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from jumpsift import (
    DegenerateStatisticError,
    bipower_variation,
    build_histogram,
    detect_jumps,
    efficiency_comparison,
    estimation_report,
    finite_activity,
    ks_statistic,
    merge_settings,
    normalized_bias,
    path_seed,
    realized_variance,
    refine,
    run_experiment,
    sample_moments,
    simulate,
    threshold_realized_variance,
    true_integrated_variance,
)
from jumpsift.cli import build_parser
from jumpsift.diagnostics import DEFAULT_BIN_COUNT, DEFAULT_RANGE
from jumpsift.serialize import (
    build_manifest,
    file_sha256,
    read_path_csv,
    report_to_dict,
    summary_to_dict,
    write_detection_csv,
    write_efficiency_csv,
    write_histogram_csv,
    write_json,
    write_path_csv,
)

from workloads import (Cycle, Tally, Workload, command_dir, compare_outputs, data_outputs,
                       run_cycle, tally_cycle)

# Paths of an infinite-activity run matched against ground truth after the
# replay (the harness itself skips matching there).
MATCH_SAMPLE = 20


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def dump(self, dest: Path) -> None:
        dest.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"],
                                    "spans": self.spans}))


@dataclass
class Counts:
    """Exact counts taken at the layer boundaries of one round."""

    paths: int = 0
    jump_events: int = 0
    flagged: int = 0
    tp: int = 0
    fp: int = 0
    fn: int = 0
    excluded: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    def add_match(self, match) -> None:
        self.tp += match.true_positives
        self.fp += match.false_positives
        self.fn += match.false_negatives


class Replay:
    """Replays CLI commands through public functions with spans."""

    def __init__(self, tracer: Tracer, counts: Counts, seed: int):
        self.tr = tracer
        self.c = counts
        self.seed = seed
        self.simulated = None   # last path from a replayed simulate, with truth

    def commands(self, commands, out_root: Path) -> list[list[str]]:
        """Replays each command; returns the problems found per command."""
        problems = []
        path_csv = command_dir(out_root, 0, commands[0]) / "path.csv"
        for i, argv in enumerate(commands):
            argv = [a.replace("{in}", str(path_csv)) for a in argv]
            out = command_dir(out_root, i, argv)
            out.mkdir(parents=True, exist_ok=True)
            try:
                getattr(self, "_" + argv[0])(argv, out)
                problems.append([])
            except Exception as exc:  # recorded as a failed command
                problems.append([f"replay raised {exc!r}"])
        return problems

    def time_refine(self, argv) -> None:
        """Times refine() once on the command's grid; simulate calls it per path."""
        settings = self._settings(argv)
        cfg = settings.experiment()
        grid = cfg.build_grid()
        with self.tr.span("grids.refine"):
            refine(grid, cfg.substeps)

    def _settings(self, argv):
        args = build_parser().parse_args(argv)
        overrides = {key: getattr(args, key) for key in
                     ("n", "paths", "beta", "scale_c", "substeps", "jitter", "parallelism")}
        preset = args.preset or ("diffusion-desk" if args.command == "compare" else "model1-desk")
        with self.tr.span("config.merge_settings"):
            settings = merge_settings(None, overrides, preset=preset)
        return settings.with_seed(self.seed)

    def _finish(self, command, out: Path, names, inputs=()):
        with self.tr.span("serialize.sha256"):
            manifest = build_manifest(command=command, config={}, base_seed=self.seed,
                                      rng_id="", version="", created_utc="",
                                      out_dir=str(out), outputs=list(names))
            manifest["inputs"] = [{"file": p, "sha256": file_sha256(p)} for p in inputs]
        with self.tr.span("serialize.write_json"):
            write_json(str(out / "manifest.json"), manifest)
        self.c.bytes_written += sum(os.path.getsize(out / n) for n in os.listdir(out))
        self.c.bytes_read += sum(os.path.getsize(p) for p in inputs)

    def _mc(self, argv, out: Path):
        with self.tr.span("cli.mc"):
            settings = self._settings(argv)
            cfg = replace(settings.experiment(), parallelism=1)
            with self.tr.span("montecarlo.harness"):
                summary = run_experiment(cfg)
            names = ["summary.json"]
            with self.tr.span("serialize.write_json"):
                write_json(str(out / "summary.json"), summary_to_dict(summary))
            if summary.histogram is not None:
                with self.tr.span("serialize.write_histogram_csv"):
                    write_histogram_csv(summary.histogram, str(out / "hist.csv"))
                names.append("hist.csv")
            self._finish("mc", out, names)
        self._mc_paths(cfg)

    def _mc_paths(self, cfg):
        """The per-path loop of run_experiment, one span per layer call."""
        tr, spec = self.tr, cfg.threshold
        fa = finite_activity(cfg.model)
        biases, unmatched = [], []
        with tr.span("montecarlo.replay"):
            with tr.span("grids.build"):
                grid = cfg.build_grid()
            for i in range(cfg.n_paths):
                with tr.span("simulate.path"):
                    path = simulate(cfg.model, grid, cfg.substeps, path_seed(cfg.base_seed, i))
                with tr.span("simulate.true_iv"):
                    true_iv = true_integrated_variance(path, 2)
                with tr.span("estimators.trv"):
                    threshold_realized_variance(path, spec)
                with tr.span("estimators.rv"):
                    realized_variance(path)
                with tr.span("estimators.bpv"):
                    bipower_variation(path)
                truth = path.ground_truth.jumps
                with tr.span("estimators.detect"):
                    det = detect_jumps(path, spec, truth if fa else None)
                if cfg.jitter == 0.0:
                    with tr.span("estimators.nbias"):
                        try:
                            biases.append(normalized_bias(path, spec, true_iv))
                        except DegenerateStatisticError:
                            self.c.excluded += 1
                self.c.paths += 1
                self.c.jump_events += len(truth)
                self.c.flagged += int(np.count_nonzero(det.indicators))
                if det.match is not None:
                    self.c.add_match(det.match)
                elif len(unmatched) < MATCH_SAMPLE:
                    unmatched.append(path)
            with tr.span("diagnostics.summary"):
                if len(biases) >= 2:
                    sample_moments(biases)
                if biases:
                    ks_statistic(biases)
                    build_histogram(biases, DEFAULT_BIN_COUNT, DEFAULT_RANGE)
        for path in unmatched:
            self.c.add_match(detect_jumps(path, spec, path.ground_truth.jumps).match)

    def _compare(self, argv, out: Path):
        with self.tr.span("cli.compare"):
            settings = self._settings(argv)
            cfg = replace(settings.experiment(), parallelism=1)
            with self.tr.span("montecarlo.harness"):
                table = efficiency_comparison(cfg)
            with self.tr.span("serialize.write_efficiency_csv"):
                write_efficiency_csv(table, str(out / "efficiency.csv"))
            self._finish("compare", out, ["efficiency.csv"])
        tr, spec = self.tr, cfg.threshold
        thr, bpv = [], []
        with tr.span("montecarlo.replay"):
            with tr.span("grids.build"):
                grid = cfg.build_grid()
            for i in range(cfg.n_paths):
                with tr.span("simulate.path"):
                    path = simulate(cfg.model, grid, cfg.substeps, path_seed(cfg.base_seed, i))
                with tr.span("simulate.true_iv"):
                    iv = true_integrated_variance(path, 2)
                with tr.span("simulate.true_iv"):
                    iq = true_integrated_variance(path, 4)
                with tr.span("estimators.trv"):
                    t = threshold_realized_variance(path, spec)
                with tr.span("estimators.bpv"):
                    b = bipower_variation(path)
                denom = math.sqrt(path.grid.h * iq)
                thr.append((t - iv) / denom)
                bpv.append((b - iv) / denom)
            with tr.span("diagnostics.moments"):
                sample_moments(thr)
                sample_moments(bpv)

    def _simulate(self, argv, out: Path):
        with self.tr.span("cli.simulate"):
            settings = self._settings(argv)
            cfg = settings.experiment()
            with self.tr.span("grids.build"):
                grid = cfg.build_grid()
            with self.tr.span("simulate.path"):
                path = simulate(cfg.model, grid, cfg.substeps, path_seed(cfg.base_seed, 0))
            with self.tr.span("serialize.write_path_csv"):
                write_path_csv(path, str(out / "path.csv"))
            self._finish("simulate", out, ["path.csv"])
        self.simulated = path
        self.c.paths += 1
        self.c.jump_events += len(path.ground_truth.jumps)

    def _estimate(self, argv, out: Path):
        src = argv[argv.index("--in") + 1]
        with self.tr.span("cli.estimate"):
            settings = self._settings(argv)
            spec = settings.threshold()
            with self.tr.span("serialize.read_path_csv"):
                path = read_path_csv(src)
            with self.tr.span("estimators.report"):
                report = estimation_report(path, spec)
            with self.tr.span("serialize.write_json"):
                write_json(str(out / "report.json"), report_to_dict(report, path))
            self._finish("estimate", out, ["report.json"], [src])

    def _detect(self, argv, out: Path):
        src = argv[argv.index("--in") + 1]
        with self.tr.span("cli.detect"):
            settings = self._settings(argv)
            spec = settings.threshold()
            with self.tr.span("serialize.read_path_csv"):
                path = read_path_csv(src)
            with self.tr.span("estimators.detect"):
                det = detect_jumps(path, spec)
            with self.tr.span("estimators.report"):
                report = estimation_report(path, spec)
            with self.tr.span("serialize.write_detection_csv"):
                write_detection_csv(path, det, str(out / "detection.csv"))
            with self.tr.span("serialize.write_json"):
                write_json(str(out / "report.json"), report_to_dict(report, path))
            self._finish("detect", out, ["detection.csv", "report.json"], [src])
        self.c.flagged += int(np.count_nonzero(det.indicators))
        # The single estimators on the stored path, and detection matched
        # against the simulated path's ground truth; neither is part of the
        # detect command, so they run after its span. normalized_bias is left
        # out: it rejects long stored paths (see the module docstring).
        tr, sim = self.tr, self.simulated
        for name, fn in (("estimators.trv", lambda: threshold_realized_variance(path, spec)),
                         ("estimators.rv", lambda: realized_variance(path)),
                         ("estimators.bpv", lambda: bipower_variation(path)),
                         ("simulate.true_iv", lambda: true_integrated_variance(sim, 2))):
            with tr.span(name):
                fn()
        self.c.add_match(detect_jumps(sim, spec, sim.ground_truth.jumps).match)


def probe_commands(wl: Workload) -> tuple[tuple[str, ...], ...]:
    """The command chain a workload does not run itself, at its own size."""
    first = wl.commands[0]
    preset = first[first.index("--preset") + 1]
    if first[0] == "simulate":
        return (("mc", "--preset", preset, "--paths", "1", "--parallelism", "1"),)
    return (("simulate", "--preset", preset, "--parallelism", "1"),
            ("estimate", "--in", "{in}", "--parallelism", "1"),
            ("detect", "--in", "{in}", "--parallelism", "1"))


def pool_start_ms() -> float:
    """Start a 2-worker pool, run one trivial task per worker, tear it down.

    Uses the default start method, as run_experiment's pool does."""
    t0 = time.perf_counter()
    with multiprocessing.Pool(2) as pool:
        pool.map(abs, [0, 1], chunksize=1)
    return (time.perf_counter() - t0) * 1e3


def run_traced(cli_main, wl: Workload, seed: int, seconds: float, tally: Tally,
               work: Path):
    tracer = Tracer()
    rounds, probe_flags = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        label = f"round {len(rounds)}"
        walls = {}
        cycles = {}
        for k in (1, 2):
            cycle = run_cycle(cli_main, wl, seed, work / f"p{k}", parallelism=k)
            cycles[k], walls[k] = cycle, cycle.walls
        compare_outputs(cycles[1], cycles[2], "between parallelism 1 and 2")
        for k in (1, 2):
            tally_cycle(tally, wl, cycles[k], f"{label} parallelism {k}")

        counts = Counts()
        start = len(tracer.spans)
        replay = Replay(tracer, counts, seed)
        traced_root = work / "traced"
        shutil.rmtree(traced_root, ignore_errors=True)
        problems = replay.commands(wl.commands, traced_root)
        outputs = {}
        for i, argv in enumerate(wl.commands):
            outputs.update(data_outputs(command_dir(traced_root, i, argv)))
        traced = Cycle([], problems, outputs)
        compare_outputs(cycles[1], traced, "between the CLI and the traced replay")
        tally_cycle(tally, wl, traced, f"{label} replay")

        replay.time_refine(list(wl.commands[0]))
        probe_root = work / "probe"
        shutil.rmtree(probe_root, ignore_errors=True)
        probe = probe_commands(wl)
        with tracer.span("probe"):
            found = Replay(tracer, Counts(), seed).commands(probe, probe_root)
        for argv, problems in zip(probe, found):
            tally.record(f"{label} probe {argv[0]}", problems)
        flags = _in_probe(tracer.spans[start:], start)
        probe_flags += flags
        rounds.append(_round_figures(tracer.spans[start:], start, flags, walls[1], walls[2],
                                     counts, pool_start_ms()))
    tracer.dump(work / "spans.json")
    return _metrics(tracer.spans, probe_flags, rounds), {
        "rounds": len(rounds), "spans": len(tracer.spans),
        "simulate_path_samples": sum(1 for s in tracer.spans if s[0] == "simulate.path"),
        "spans_file": os.path.relpath(work / "spans.json")}


def _in_probe(spans, offset) -> list[bool]:
    """Whether each span of a round lies inside the round's probe span."""
    flags: list[bool] = []
    for name, _, _, parent in spans:
        flags.append(name == "probe" or (parent >= offset and flags[parent - offset]))
    return flags


def _layer_spans(spans, probe_flags) -> dict[str, list]:
    """Spans by name: the workload's own calls, or the probe's for a layer
    the workload never calls."""
    own: dict[str, list] = {}
    probe: dict[str, list] = {}
    for span, in_probe in zip(spans, probe_flags):
        (probe if in_probe else own).setdefault(span[0], []).append(span)
    return {**probe, **own}


def _round_figures(spans, offset, probe_flags, walls_p1, walls_p2, counts: Counts,
                   pool_ms) -> dict:
    """Per-round totals from the round's spans; parent indices are global."""
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    local = {i + offset: i for i in range(len(spans))}
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    child_time: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s[3] in local:
            p = local[s[3]]
            child_time[p] = child_time.get(p, 0.0) + dur[i]

    layers = _layer_spans(spans, probe_flags)

    def total(name):
        return sum(s[2] - s[1] for s in layers.get(name, ())) / 1e9

    cli_roots = [i for i in roots if spans[i][0].startswith("cli.")]
    replay_roots = [i for i in roots if spans[i][0] == "montecarlo.replay"]
    harness_in_cli = sum(dur[i] for i, s in enumerate(spans)
                         if s[0] == "montecarlo.harness" and local.get(s[3]) in cli_roots)
    traced_wall = sum(dur[i] for i in cli_roots) - harness_in_cli \
        + sum(dur[i] for i in replay_roots)
    # Children of a replay span exclude its own loop glue; grids.refine is
    # timed outside the replay, so it never enters the subtraction. Either
    # the workload or its probe runs the harness, never both, so every
    # replay span pairs with the harness spans that total() counts.
    replay_layers = sum(child_time.get(i, 0.0) for i, s in enumerate(spans)
                        if s[0] == "montecarlo.replay")
    return {
        "trace_overhead": traced_wall / sum(walls_p1),
        "speedup_2proc": sum(walls_p1) / sum(walls_p2),
        "cli_overhead_s": sum(walls_p1) - sum(child_time.get(i, 0.0) for i in cli_roots),
        "harness_self_s": total("montecarlo.harness") - replay_layers,
        "pool_start_ms": pool_ms,
        "totals_s": {name: total(name) for name in (
            "estimators.report", "diagnostics.summary", "serialize.write_path_csv",
            "serialize.read_path_csv", "serialize.write_detection_csv",
            "serialize.write_json", "serialize.sha256")},
        "counts": counts,
    }


def _metrics(spans, probe_flags, rounds) -> dict:
    per_call = {name: [(s[2] - s[1]) / 1e3 for s in group]     # microseconds
                for name, group in _layer_spans(spans, probe_flags).items()}

    def pct(name, q):
        # A layer without samples means its replays raised; the run is
        # already marked failed, so 0 only keeps the output well-formed.
        return float(np.percentile(per_call[name], q)) if name in per_call else 0.0

    def med(key):
        return statistics.median(r[key] for r in rounds)

    m = {
        "grids.build_us": (pct("grids.build", 50), "us"),
        "grids.refine_us": (pct("grids.refine", 50), "us"),
        "simulate.path_us_p50": (pct("simulate.path", 50), "us"),
        "simulate.path_us_p98": (pct("simulate.path", 98), "us"),
        "simulate.true_iv_us_p50": (pct("simulate.true_iv", 50), "us"),
        "simulate.path_samples": (len(per_call.get("simulate.path", ())), "count"),
    }
    c = [r["counts"] for r in rounds]
    paths = max(1, sum(x.paths for x in c))
    m["models.jump_events_per_path"] = (sum(x.jump_events for x in c) / paths, "count")
    for short in ("trv", "rv", "bpv", "nbias", "detect"):
        m[f"estimators.{short}_us_p50"] = (pct(f"estimators.{short}", 50), "us")
        m[f"estimators.{short}_us_p98"] = (pct(f"estimators.{short}", 98), "us")
    tp, fp, fn = (sum(getattr(x, k) for x in c) for k in ("tp", "fp", "fn"))
    totals = {name: statistics.median(r["totals_s"][name] for r in rounds) * 1e3
              for name in rounds[0]["totals_s"]}
    m.update({
        "estimators.report_ms": (totals["estimators.report"], "ms"),
        "estimators.flagged_per_path": (sum(x.flagged for x in c) / paths, "count"),
        "estimators.detect_precision": (tp / (tp + fp) if tp + fp else 0.0, "ratio"),
        "estimators.detect_recall": (tp / (tp + fn) if tp + fn else 0.0, "ratio"),
        "diagnostics.summary_ms": (totals["diagnostics.summary"], "ms"),
        "montecarlo.harness_self_s": (med("harness_self_s"), "s"),
        "montecarlo.pool_start_ms": (med("pool_start_ms"), "ms"),
        "montecarlo.speedup_2proc": (med("speedup_2proc"), "ratio"),
        "montecarlo.excluded_paths": (statistics.median(x.excluded for x in c), "count"),
    })
    for name in ("write_path_csv", "read_path_csv", "write_detection_csv", "write_json",
                 "sha256"):
        m[f"serialize.{name}_ms"] = (totals[f"serialize.{name}"], "ms")
    m["serialize.bytes_written"] = (statistics.median(x.bytes_written for x in c), "bytes")
    m["serialize.bytes_read"] = (statistics.median(x.bytes_read for x in c), "bytes")
    m["cli.overhead_ms"] = (med("cli_overhead_s") * 1e3, "ms")
    m["config.merge_settings_us"] = (pct("config.merge_settings", 50), "us")
    m["trace_overhead"] = (med("trace_overhead"), "ratio")
    return m
