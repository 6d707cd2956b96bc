"""Fixed-seed sweep of estimators._exact_sum against math.fsum, bit for bit.

Too long for the tier-1 suite; CI runs it as its own step:

    PYTHONPATH=src python tests/sweep_exact_sums.py --rows 5000 --seed 2008

Rows have 64 to --max-length values (log-uniform), and each is summed on
its own. Three kinds are mixed:

* squares: squared, neighbouring-product and fourth-power increments of a
  Brownian path with a few jumps, as the per-path kernel sums them;
* cancel: mixed-sign values, most of them cancelling a partner exactly or
  up to a few low bits, at a drawn exponent spread;
* midpoint: either of the above with a tail planted so that the total lies
  between ulp(S) * 2**-120 and ulp(S) / 8 of the midpoint S + ulp(S)/2, or
  exactly on it, with S = fsum(body).

Each squares row, having no negative value, is also summed through the
per-path kernel's non-negative entry (_exact_sum with nonneg=True), which
must give the same sum and take the same exit.

Prints how many rows took each exit and exits 1 on any bit difference.
"""

from __future__ import annotations

import argparse
import collections
import math
import sys

import numpy as np

from jumpsift.estimators import _exact_sum


def squares_row(rng, n):
    dx = rng.standard_normal(n) * math.sqrt(rng.uniform(0.01, 1.0) / n)
    dx[rng.integers(n, size=rng.integers(0, 6))] += rng.normal(0.0, 0.6)
    kind = rng.integers(3)
    if kind == 0:
        return dx * dx
    if kind == 1:
        a = np.abs(dx)
        return a[1:] * a[:-1]
    return dx ** 4


def cancel_row(rng, n):
    half = n // 2
    x = rng.standard_normal(half) * 2.0 ** rng.integers(-40, 41, half) * 2.0 ** rng.integers(-300, 300)
    partner = -x
    blur = rng.random(half) < 0.3
    partner[blur] *= 1.0 + rng.integers(-8, 9, int(blur.sum())) * 2.0 ** -52
    row = np.concatenate((x, partner, rng.standard_normal(n - 2 * half) * np.abs(x).min()))
    return rng.permutation(row)


def midpoint_row(rng, n):
    body = (squares_row if rng.random() < 0.5 else cancel_row)(rng, n - 3)
    s = math.fsum(body.tolist())
    if s == 0.0 or not math.isfinite(s):
        return body
    # rest is fsum(body) - s, rounded; planting -rest leaves the body's sum
    # within half an ulp of rest of s.
    rest = math.fsum([*body.tolist(), -s])
    half = math.copysign(math.ulp(s) / 2.0, rng.choice([-1.0, 1.0]))
    offset = 0.0 if rng.random() < 0.2 else (
        rng.choice([-1.0, 1.0]) * abs(half) * 2.0 ** -float(rng.integers(2, 120)))
    return np.insert(body, rng.integers(0, body.size + 1, 3), [-rest, half, offset])


KINDS = {"squares": squares_row, "cancel": cancel_row, "midpoint": midpoint_row}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--max-length", type=int, default=100_000)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    names = list(KINDS)
    exits = collections.Counter()
    done = bad = 0
    while done < args.rows:
        # Rows are drawn in groups of one to three. The group size is used for
        # nothing else, but drawing it keeps the rows each seed gives.
        for _ in range(min(int(rng.integers(1, 4)), args.rows - done)):
            n = int(math.exp(rng.uniform(math.log(64), math.log(args.max_length + 1))))
            kind = names[rng.integers(len(names))]
            row = KINDS[kind](rng, n)
            taken = []
            value = _exact_sum(row, taken)
            want = math.fsum(row.tolist())
            exits[kind, taken[0]] += 1
            if np.float64(value).tobytes() != np.float64(want).tobytes():
                bad += 1
                print(f"row {done}: {kind}, {row.size} values: got {value!r}, fsum {want!r}")
            if kind == "squares":
                nonneg = []
                value = _exact_sum(row, nonneg, nonneg=True)
                if np.float64(value).tobytes() != np.float64(want).tobytes() or nonneg != taken:
                    bad += 1
                    print(f"row {done}: {kind}, {row.size} values, non-negative entry:"
                          f" got {value!r} at exit {nonneg[0]}, fsum {want!r}, exit {taken[0]}")
            done += 1
    for (kind, exit_at), count in sorted(exits.items()):
        print(f"{kind:>8} exit {exit_at}: {count} rows")
    print(f"{done} rows, {bad} differ from math.fsum")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
