"""The `decompose` parity grid: one line per case, so that two trees compare
by a plain diff of their outputs. It uses only the standard library, numpy
and the package:

    python3 ci/decompose_parity.py [--tree PATH] [--grid generated|identity|all]

Each case decomposes one tuple under one family, `auto` or one of the seven
names, and prints `<case>\\t<digest>`: the SHA-256 of the result's
`encode_decomposition` JSON with sorted keys, or, when `decompose` raises,
`<ErrorClass>: <message>`. The tuples are

- `generated`: every generator family x field x n in {2, 3, 5} x m in 1..6 x
  seed in {0, 1} that `generate` accepts, each clean and with f_1's transfer
  scaled by 1 + 1e-6;
- `identity`: identity maps at n = 2 on every span kind x field x m in 1..5.

`--tree PATH` imports the package from `PATH/src` instead of this checkout's,
for example from a `git archive` of another commit:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 ci/decompose_parity.py --tree /tmp/parent > parent.txt
    python3 ci/decompose_parity.py > head.txt
    diff parent.txt head.txt

Run each tree in its own process: the package is imported once per run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("auto", "mn_chain", "pn_pair", "hermitian", "pn_chain", "symmetric", "diag_pair", "diag_chain")
SIZES = (2, 3, 5)
LENGTHS = range(1, 7)
SEEDS = (0, 1)
IDENTITY_LENGTHS = range(1, 6)
MOVE = 1 + 1e-6


def _digest(tp, encode, maps, family: str) -> str:
    """The case's outcome: the digest of its encoded result, or its error."""
    try:
        result = tp.decompose(maps, family=family)
    except Exception as exc:  # every error class is an outcome to compare
        return f"{type(exc).__name__}: {exc}"
    doc = encode(result, maps[0].domain)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _generated(tp):
    """(label, maps) for every accepted generator spec, clean and moved."""
    for family in tp.FAMILIES:
        for fd in tp.Field:
            for n in SIZES:
                for m in LENGTHS:
                    for seed in SEEDS:
                        try:
                            gen = tp.generate(tp.GenSpec(family=family, n=n, m=m, field=fd, seed=seed))
                        except tp.InvalidParameterError:
                            continue
                        label = f"generated {family} {fd.value} n={n} m={m} seed={seed}"
                        yield f"{label} clean", list(gen.maps)
                        f = gen.maps[0]
                        moved = tp.LinMap(f.domain, f.codomain, f.transfer * MOVE)
                        yield f"{label} moved", [moved, *gen.maps[1:]]


def _identity(tp):
    """(label, maps) for identity maps at n = 2 on every span kind and field."""
    for kind in tp.SpaceKind:
        for fd in tp.Field:
            for m in IDENTITY_LENGTHS:
                yield f"identity {kind.value} {fd.value} m={m}", [tp.identity_map(tp.SpaceTag(kind, fd, 2))] * m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout whose src/ to import")
    parser.add_argument("--grid", choices=["generated", "identity", "all"], default="all")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import traceprod as tp
    from traceprod.jsonio import encode_decomposition

    grids = {"generated": [_generated], "identity": [_identity], "all": [_generated, _identity]}[args.grid]
    for grid in grids:
        for label, maps in grid(tp):
            for family in NAMES:
                print(f"{label} {family}\t{_digest(tp, encode_decomposition, maps, family)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
