#!/usr/bin/env python3
"""check_counts.py COMMITTED FRESH TABLE=COL,COL,... [TABLE=COL,...]

Compares two --json reports of one bench: each named table must keep its
number of rows, and row by row every listed column its cell. A comma inside
[...] belongs to the column name ("phys. msg bytes [min,max]"). Prints each
differing cell and exits 1, or prints that the count columns match.
"""
import json
import re
import sys


def tables(path):
    with open(path) as f:
        return {t["name"]: t["rows"] for t in json.load(f)["tables"]}


def main(argv):
    if len(argv) < 4 or any("=" not in spec for spec in argv[3:]):
        sys.exit(__doc__)
    want, got = tables(argv[1]), tables(argv[2])
    bad = []
    for spec in argv[3:]:
        name, cols = spec.split("=", 1)
        if name not in want or name not in got:
            bad.append(f"{name}: table missing from "
                       f"{argv[1] if name not in want else argv[2]}")
            continue
        if len(want[name]) != len(got[name]):
            bad.append(f"{name}: the set of rows changed")
        for i, (w, g) in enumerate(zip(want[name], got[name])):
            for c in re.split(r",(?![^\[]*\])", cols):
                if c not in w or c not in g:
                    bad.append(f"{name} row {i}: no column {c!r}")
                elif w[c] != g[c]:
                    bad.append(f"{name} row {i}: {c} {w[c]} -> {g[c]}")
    print("\n".join(bad) or "count columns match the committed table")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
