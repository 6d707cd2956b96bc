"""Workload table, one timed pass through a workload's CLI commands, and the
output checks shared by the untraced and the traced runs."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Workload:
    name: str
    # CLI argv without --seed/--out; "{in}" is the path.csv of command 0.
    commands: tuple[tuple[str, ...], ...]
    paths: int          # paths simulated per pass through the commands


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The four workloads (BENCHMARK.json says why each); tiny=True shrinks
    them for the smoke test."""
    # Commands of tens of milliseconds give hundreds of passes per run, so
    # each command's fastest run is a steady figure on a host whose speed
    # drifts (see README.md).
    p = "8" if tiny else "40"
    p3 = "8" if tiny else "10"
    n_long = "400" if tiny else "10000"
    table = (
        Workload("mc-model1", (
            ("mc", "--preset", "model1-desk", "--paths", p, "--parallelism", "1"),
            ("compare", "--preset", "diffusion-desk", "--paths", p, "--parallelism", "1"),
        ), 2 * int(p)),
        Workload("mc-model3", (
            ("mc", "--preset", "model3-desk", "--paths", p3, "--parallelism", "1"),
        ), int(p3)),
        Workload("mc-model2-2proc", (
            ("mc", "--preset", "model2-desk", "--paths", p, "--parallelism", "2"),
        ), int(p)),
        Workload("io-longpath", (
            ("simulate", "--preset", "model1-desk", "--n", n_long, "--parallelism", "1"),
            ("estimate", "--in", "{in}", "--parallelism", "1"),
            ("detect", "--in", "{in}", "--parallelism", "1"),
        ), 1),
    )
    return {w.name: w for w in table}


def with_parallelism(argv: tuple[str, ...], k: int) -> tuple[str, ...]:
    out = list(argv)
    out[out.index("--parallelism") + 1] = str(k)
    return tuple(out)


def command_dir(out_root: Path, index: int, argv) -> Path:
    return out_root / f"{index}-{argv[0]}"


@dataclass
class Tally:
    """Commands attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{label}: {p}" for p in problems[:3])


@dataclass
class Cycle:
    """One pass through a workload's commands."""

    walls: list[float]
    problems: list[list[str]]    # per command
    outputs: dict[str, str]      # data file (relative to out_root) -> sha256


def run_cycle(cli_main, wl: Workload, seed: int, out_root: Path,
              parallelism: int | None = None) -> Cycle:
    """Runs the workload's commands once, timing each cli.main call."""
    shutil.rmtree(out_root, ignore_errors=True)
    walls, problems, outputs = [], [], {}
    path_csv = command_dir(out_root, 0, wl.commands[0]) / "path.csv"
    for i, argv in enumerate(wl.commands):
        if parallelism is not None:
            argv = with_parallelism(argv, parallelism)
        out = command_dir(out_root, i, argv)
        full = [a.replace("{in}", str(path_csv)) for a in argv]
        full += ["--seed", str(seed), "--out", str(out)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli_main(full)
        except Exception:  # a traceback is a failed command, not a failed run
            rc, sink = 1, io.StringIO(traceback.format_exc())
        walls.append(time.perf_counter() - t0)
        problems.append([] if rc == 0 else [f"exit {rc}: {sink.getvalue().strip()[-300:]}"])
        outputs.update(data_outputs(out))
    return Cycle(walls, problems, outputs)


def data_outputs(out: Path) -> dict[str, str]:
    """sha256 of each file a command wrote, except its timestamped manifest."""
    if not out.is_dir():
        return {}
    return {f"{out.name}/{name}": sha256(out / name)
            for name in sorted(os.listdir(out)) if name != "manifest.json"}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_outputs(wl: Workload, out_root: Path, cycle: Cycle) -> None:
    """Content checks that hold on any seed; adds problems to the cycle."""
    for i, argv in enumerate(wl.commands):
        out = command_dir(out_root, i, argv)
        try:
            cycle.problems[i].extend(_check_command(argv, out))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            cycle.problems[i].append(f"unreadable output: {exc!r}")


def _check_command(argv, out: Path) -> list[str]:
    found = []
    if argv[0] == "mc":
        summary = json.loads((out / "summary.json").read_text())
        if summary["n_paths"] != int(argv[argv.index("--paths") + 1]):
            found.append("summary.json n_paths differs from --paths")
        rows = (out / "hist.csv").read_text().splitlines()[1:]
        total = sum(int(r.rsplit(",", 1)[1]) for r in rows)
        if total != summary["n_paths"] - summary["excluded_paths"]:
            found.append(f"hist.csv holds {total} biases, expected "
                         f"{summary['n_paths'] - summary['excluded_paths']}")
    elif argv[0] == "compare":
        rows = [r.split(",") for r in (out / "efficiency.csv").read_text().splitlines()[1:]]
        if float(rows[1][2]) != float(rows[1][1]) / float(rows[0][1]):
            found.append("efficiency.csv ratio is not bipower / threshold")
    elif argv[0] in ("estimate", "detect"):
        report = json.loads((out / "report.json").read_text())
        sizes = [e["size_hat"] for e in report["jump_size_estimates"]]
        flagged_mass = math.fsum(s * s for s in sizes)
        # The identity the estimators document: RV == TRV + flagged mass.
        if report["iv_threshold"] + flagged_mass != report["realized_variance"]:
            found.append("report.json: iv_threshold + fsum(size_hat^2) != realized_variance")
        if len(sizes) != report["n_flagged"]:
            found.append("report.json: n_flagged differs from the size estimates")
        if argv[0] == "detect":
            with open(out / "detection.csv", encoding="utf-8") as fh:
                next(fh)
                flagged = [int(r.split(",", 1)[0]) for r in fh if r.split(",")[4] == "1"]
            if flagged != report["flagged_intervals"]:
                found.append("detection.csv flags differ from report.json")
    return found


def check_pinned(wl_name: str, scale: str, cycle: Cycle) -> None:
    """At DEFAULT_SEED every data output must match its pinned sha256."""
    expected = json.loads(EXPECTED.read_text()).get(scale, {}).get(wl_name, {})
    for name in sorted(set(expected) | set(cycle.outputs)):
        if expected.get(name) != cycle.outputs.get(name):
            cycle.problems[_command_index(name)].append(
                f"{name} sha256 {cycle.outputs.get(name)} != pinned {expected.get(name)}")


def compare_outputs(base: Cycle, other: Cycle, what: str) -> None:
    """Marks each command of `other` whose data outputs differ from `base`."""
    for name in sorted(set(base.outputs) | set(other.outputs)):
        if base.outputs.get(name) != other.outputs.get(name):
            other.problems[_command_index(name)].append(f"{name} differs {what}")


def _command_index(output_name: str) -> int:
    """'2-detect/report.json' -> 2."""
    return int(output_name.split("-", 1)[0])


def tally_cycle(tally: Tally, wl: Workload, cycle: Cycle, label: str) -> None:
    for argv, problems in zip(wl.commands, cycle.problems):
        tally.record(f"{label} {argv[0]}", problems)
