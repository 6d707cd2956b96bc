"""jumpsift benchmark: closed-loop CLI workloads with output checks.

One caller issues the workload's commands back to back through
``jumpsift.cli.main`` in this process, for ``--seconds`` seconds, and checks
every output. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
replays the same commands through the package's public functions with one
span per layer call and prints the per-layer metrics (see tracing.py).

Run from the repository root:

    python3 perfbench/run.py --workload mc-model1 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print each metric by name and unit, the error rate and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (Tally, Workload, check_outputs, check_pinned, command_dir,
                       compare_outputs, run_cycle, tally_cycle, workloads)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Every run first runs its workload once at this seed and compares the output
# bytes with the sha256 values pinned in expected.json.
DEFAULT_SEED = 1
SETUP_LAUNCHES = 7
SETUP_PROBE = "import time, jumpsift; print(time.monotonic(), jumpsift.__file__)"
# Launches one probe interpreter per input line and prints its set-up time.
SETUP_HELPER = """
import subprocess, sys, time
for _ in sys.stdin:
    t0 = time.monotonic()
    res = subprocess.run([sys.executable, "-c", sys.argv[1]], capture_output=True,
                         text=True, timeout=120, check=True)
    done, where = res.stdout.split(maxsplit=1)
    print(float(done) - t0, where.strip(), flush=True)
"""


class SetupTimer:
    """Times fresh interpreters up to `import jumpsift` finishing.

    A helper process launches and reaps the probe interpreters, so they stay
    out of this process's RUSAGE_CHILDREN until close(); read peak_rss_mb()
    before closing.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen([sys.executable, "-c", SETUP_HELPER, SETUP_PROBE],
                                     cwd=ROOT, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def launch(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("setup probe failed")
        seconds, where = line.split(maxsplit=1)
        if not Path(where.strip()).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"setup probe imported jumpsift from {where.strip()}")
        return float(seconds)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(seed: int) -> dict:
    import numpy
    sha = "unknown"
    if (ROOT / ".git").exists():   # git would otherwise report an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "seed": seed,
            "platform": platform.platform()}


def csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def rows_per_cycle(wl: Workload, out_root: Path) -> int:
    """CSV data rows written by the commands plus rows they read back."""
    rows = 0
    for i, argv in enumerate(wl.commands):
        out = command_dir(out_root, i, argv)
        rows += sum(csv_rows(out / n) for n in os.listdir(out) if n.endswith(".csv"))
        if "--in" in argv:
            rows += csv_rows(command_dir(out_root, 0, wl.commands[0]) / "path.csv")
    return rows


def run_untraced(cli_main, wl: Workload, seed: int, seconds: float,
                 tally: Tally) -> tuple[dict, dict]:
    out_root = WORK / wl.name / "run"
    passes, setup, first = [], [], None
    timer = SetupTimer()
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            cycle = run_cycle(cli_main, wl, seed, out_root)
            if first is None:
                first = cycle
                check_outputs(wl, out_root, cycle)
                rows = rows_per_cycle(wl, out_root)
            else:
                compare_outputs(first, cycle, "between passes at one seed")
            tally_cycle(tally, wl, cycle, f"pass {len(passes)}")
            passes.append(cycle.walls)
            # Set-up launches are spread over the window, between passes, so
            # their median covers the host's phases as the passes do.
            if time.perf_counter() - start >= len(setup) * seconds / SETUP_LAUNCHES:
                setup.append(timer.launch())
        while len(setup) < SETUP_LAUNCHES:
            setup.append(timer.launch())
        rss = peak_rss_mb()
    finally:
        timer.close()
    # The host's speed drifts by up to 2x in phases of seconds, so a pass's
    # wall time is the sum over its commands of each command's fastest run:
    # the uncontended time. Medians of the raw times go to the info line.
    fastest = [min(walls) for walls in zip(*passes)]
    wall = sum(fastest)
    totals = [sum(walls) for walls in passes]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "paths_per_s": (wl.paths / wall, "1/s"),
        "rows_per_s": (rows / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }, {"passes": len(passes), "pass_wall_median_s": statistics.median(totals),
        "pass_wall_p90_s": statistics.quantiles(totals, n=10)[-1] if len(totals) > 1
        else totals[0], "command_fastest_s": fastest, "setup_launches_s": setup,
        "command_walls_s": [list(w) for w in zip(*passes)]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (8 paths, n=400 long path)")
    parser.add_argument("--record", help="also write the full result as JSON to this file")
    args = parser.parse_args(argv)

    if not (SRC / "jumpsift" / "__init__.py").is_file():
        print(f"perfbench: no jumpsift sources under {SRC}", file=sys.stderr)
        return 2
    table = workloads(args.tiny)
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r} (known: {', '.join(table)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from jumpsift.cli import main as cli_main
    wl = table[args.workload]
    scale = "tiny" if args.tiny else "full"

    WORK.mkdir(exist_ok=True)
    tally = Tally()
    # Warm-up pass at the pinned seed: fills caches and checks output bytes.
    out_root = WORK / wl.name / "pinned"
    pinned = run_cycle(cli_main, wl, DEFAULT_SEED, out_root)
    check_outputs(wl, out_root, pinned)
    check_pinned(wl.name, scale, pinned)
    tally_cycle(tally, wl, pinned, "pinned")

    if args.trace:
        import tracing
        metrics, info = tracing.run_traced(cli_main, wl, args.seed, args.seconds, tally,
                                           WORK / wl.name)
    else:
        metrics, info = run_untraced(cli_main, wl, args.seed, args.seconds, tally)

    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    print(f"{wl.name} error_rate = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed}/{tally.attempted} commands)")
    env = environment(args.seed)
    print("env " + json.dumps(env))
    print("info " + json.dumps({k: v for k, v in info.items() if k != "command_walls_s"}))
    for err in tally.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.record:
        record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
                  "env": env, "info": info,
                  "error_rate": tally.failed / tally.attempted, "errors": tally.errors,
                  **result}
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
