#!/usr/bin/env python3
"""Check mrscan_cli's text output bytes against Python's own %.17g.

    check_text_output.py --cli PATH/TO/mrscan_cli --work DIR

Writes a point file whose coordinates and weights sit at the edges of the
text writer's double formatter (exact ties, two ulps around 1e-5, 1e-4,
1e16, 2^53, 2^-19 and 1e-6, negative values, values below 1e-6,
subnormals), clusters
it with --minpts 1 so every point is written, and checks every output
line against '%.17g' % v, which Python rounds correctly without
libstdc++. Exits 1 naming the first lines that differ.
"""

import argparse
import math
import random
import struct
import subprocess
import sys
from pathlib import Path


def as_float32(value):
    return struct.unpack("<f", struct.pack("<f", value))[0]


def neighbours(value, ulps):
    out = [value]
    below = above = value
    for _ in range(ulps):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


def edge_values():
    values = [2.0**50 + 0.25, 2.0**50 + 0.75, 2.0**49 + 0.125,
              2.0**49 + 0.375, 2.0**52 + 0.5, 0.0, -0.0, 1.0, 0.1, 1.5e-5]
    for edge in (1e-5, 1e-4, 1e16, 2.0**53, 2.0**-19, 1e-6):
        values += neighbours(edge, 2)
    # Below the kernel's range: to_chars' path.
    values += [1e-7, 2.0**-20, 5e-324, 2.2250738585072014e-308, 1e-300]
    return values + [-v for v in values]


def weights():
    return [as_float32(w) for w in
            (1.0, 0.5, 0.3, -2.5, 8388607.5, 1e-5, 1e-4, 1e-40, 3.4e38,
             -1e-7, 0.0)]


def points():
    rng = random.Random(25)
    coords = edge_values()
    # Seeded doubles across the kernel's binades, and lon/lat-like ones.
    for _ in range(600):
        exponent = rng.randrange(1000, 1080)
        bits = (rng.getrandbits(1) << 63 | exponent << 52 |
                rng.getrandbits(52))
        coords.append(struct.unpack("<d", struct.pack("<Q", bits))[0])
    coords += [rng.uniform(-180.0, 180.0) for _ in range(600)]
    ws = weights()
    out = []
    for i, x in enumerate(coords):
        y = coords[(i * 7 + 3) % len(coords)]
        out.append((i + 1, x, y, ws[i % len(ws)]))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    pts = points()
    source = work / "text_oracle_input.txt"
    output = work / "text_oracle_output.txt"
    # repr round-trips a double and %.9g a float, so the reader gets back
    # exactly these values.
    source.write_text("# id x y weight\n" + "".join(
        f"{i} {x!r} {y!r} {w:.9g}\n" for i, x, y, w in pts))
    # Eps 1e9 keeps the widest grid (coordinates past 2^53) inside int32
    # cell indices; MinPts 1 makes every point a core point.
    run = subprocess.run(
        [args.cli, "--input", str(source), "--output", str(output),
         "--eps", "1e9", "--minpts", "1", "--leaves", "4"],
        capture_output=True, text=True)
    if run.returncode != 0:
        print(run.stdout + run.stderr, file=sys.stderr)
        return 1
    by_id = {i: (x, y, w) for i, x, y, w in pts}
    seen = set()
    bad = []
    for line in output.read_text().splitlines():
        fields = line.split(" ")
        if (len(fields) != 5 or not fields[0].isdigit()
                or int(fields[0]) not in by_id
                or not fields[4].lstrip("-").isdigit()):
            bad.append(f"malformed line: {line!r}")
            continue
        x, y, w = by_id[int(fields[0])]
        want = [fields[0]] + ["%.17g" % v for v in (x, y, w)] + [fields[4]]
        seen.add(int(fields[0]))
        if fields != want:
            bad.append(f"got  {line!r}\nwant {' '.join(want)!r}")
    missing = len(by_id) - len(seen)
    if missing:
        bad.append(f"{missing} of {len(by_id)} points missing from the output")
    for message in bad[:10]:
        print(message, file=sys.stderr)
    if bad:
        print(f"{len(bad)} problems", file=sys.stderr)
        return 1
    print(f"{len(seen)} records match Python's %.17g")
    return 0


if __name__ == "__main__":
    sys.exit(main())
