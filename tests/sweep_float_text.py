"""Fixed-seed sweep of the CSV cell kernels against format(x, ".17g") and
str(i).

Too long for the tier-1 suite; CI runs it as its own step:

    PYTHONPATH=src python tests/sweep_float_text.py --values 1000000 --seed 2010

Every value goes through serialize._float_slots, or serialize._int_slots
for an int64, in one-column tables of serialize._CSV_CHUNK_ROWS rows, as
write_csv sends a long table, joined by serialize._join_slots; each line is
compared with format(x, ".17g"), or with str(i). A family's last chunk
reaches back to take a full table, so that in a family of at least
serialize._KERNEL_MIN_VALUES values every float value reaches the certified
kernel rather than format(). The families, either sign:

* bits: --values uniformly random 64-bit patterns, most of them outside
  the certified range [1e-30, 1e30], NaN and infinity patterns included;
* range: --values random doubles at every exponent of the certified range;
* pow10: powers of ten from 1e-40 to 1e40, up to 40 doubles either side;
* halfway: the double nearest a random 17-digit decimal with a 5 in the
  18th digit, and the two doubles either side of it;
* ties: m/2, m/4 and m/8 for m near 2**53, many of them exact ties;
* edges: up to 40 doubles either side of 1e-30 and 1e30, zeros and
  subnormals;
* ints: int64 values 10**k - 1, 10**k and 10**k + 1 for k up to 18, 0,
  --values random ones in (-10**18, 10**18), and -2**63 and 2**63 - 1.

Prints how many values each family had and how many differ, and exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np

from jumpsift import serialize


def neighbours(values, k):
    """Each value and the k doubles either side of it."""
    out = []
    for v in values:
        up = down = v
        out.append(v)
        for _ in range(k):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            out += [up, down]
    return np.array(out)


def families(rng, count):
    bits = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64).view(np.float64)
    in_range = rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-30, 30, count)
    pow10 = neighbours([float(f"1e{e}") for e in range(-40, 41)], 40)
    digits = rng.integers(10 ** 16, 10 ** 17, count // 10).tolist()
    exponents = rng.integers(-50, 16, count // 10).tolist()
    halfway = neighbours([float(f"{d}5e{e}") for d, e in zip(digits, exponents)], 2)
    m = rng.integers(2 ** 52, 2 ** 54, count // 10)
    ties = np.concatenate([m / 2.0, m / 4.0, m / 8.0])
    subnormal = rng.integers(1, 2 ** 52, count // 100, dtype=np.uint64).view(np.float64)
    edges = np.concatenate([neighbours([1e-30, 1e30], 40), [0.0], subnormal])
    tens = np.array([10 ** k + d for k in range(19) for d in (-1, 0, 1)])
    ints = np.concatenate([tens, rng.integers(1 - 10 ** 18, 10 ** 18, count), [2 ** 63 - 1]])
    out = {name: np.concatenate([v, -v]) for name, v in (
        ("bits", bits), ("range", in_range), ("pow10", pow10), ("halfway", halfway),
        ("ties", ties), ("edges", edges), ("ints", ints))}
    out["ints"] = np.append(out["ints"], np.int64(-2 ** 63))
    return out


def differences(values):
    """The (value, got, want) lines where the kernel and format() or, for
    ints, str() differ."""
    bad = []
    rows = serialize._CSV_CHUNK_ROWS
    ints = values.dtype.kind == "i"
    cell = str if ints else "{:.17g}".format
    slots = serialize._int_slots if ints else serialize._float_slots
    for lo in range(0, values.size, rows):
        chunk = values[lo:lo + rows]
        start = max(0, min(lo, values.size - rows))
        table = serialize._join_slots([slots(values[start:lo + rows])])
        got = table.decode().split("\n")[lo - start:-1]
        want = [cell(v) for v in chunk.tolist()]
        bad += [(v, g, w) for v, g, w in itertools.zip_longest(chunk.tolist(), got, want)
                if g != w]
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=2010)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    total = bad = 0
    for name, values in families(rng, args.values).items():
        found = differences(values)
        for v, got, want in found[:10]:
            print(f"{name}: {v!r}: got {got!r}, format gives {want!r}")
        print(f"{name:>8}: {values.size} values, {len(found)} differ")
        total += values.size
        bad += len(found)
    print(f"{total} values, {bad} differ from format(x, '.17g') or str(i)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
