"""Command line front end.

Every subcommand prints exactly one JSON document to stdout, as one line of
compact JSON ending in a newline (`jsonio.encode_document`); a NaN or
infinite residual is written as null. Diagnostics go to stderr. Exit codes:
0 success (and, for checks, the identity holds), 1 the identity fails or the
maps lack the expected canonical structure, 2 usage or input errors (a
non-finite or negative `--tol`, a negative `--seed` and a size too large to
allocate among them) and a stdout closed by its reader, which gets nothing
more written to it.
`generate` output pipes straight into `check`, `decompose`, `extend`, and
`weighted` via `--maps -`.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from .decompose import decompose, verify_weighted
from .errors import (
    CanonicalStructureError,
    InvalidParameterError,
    NotApplicableError,
    PreservationError,
    TraceProdError,
)
from .extend import check_preservation, dualize, embed_extend_pair, infeasibility_certificate
from .families import FAMILIES, GenSpec, generate
from .jsonio import (
    _generated_document,
    _maps_document,
    decode_maps_document,
    encode_certificate,
    encode_decomposition,
    encode_document,
    encode_error,
    encode_report,
)
from .spaces import Field, SpaceKind, SpaceTag, span_of


def _read_maps(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return decode_maps_document(json.loads(text))
    except RecursionError:
        raise InvalidParameterError("the maps document is nested too deeply") from None


def _emit(doc) -> None:
    encode_document(doc, sys.stdout)


def _verdict(report, what: str) -> int:
    """Print the report; exit status 1, with `what` named on stderr, when it failed."""
    _emit(encode_report(report))
    if not report.passed:
        print(f"{what} fails: max residual {report.max_residual:.3g}", file=sys.stderr)
        return 1
    return 0


def _float_list(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="traceprod",
        description="Verify, construct, and invert tuples of maps preserving traces of products.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a canonical tuple of maps")
    g.add_argument("--family", required=True, choices=sorted(FAMILIES))
    g.add_argument("--n", type=int, required=True, help="matrix size")
    g.add_argument("--m", type=int, required=True, help="tuple length")
    g.add_argument("--field", default="complex", choices=["real", "complex"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--condition-bound", type=float, default=1e3)

    c = sub.add_parser("check", help="check the trace-of-products identity")
    c.add_argument("--maps", required=True, help="JSON file of maps, or - for stdin")
    c.add_argument("--tol", type=float, default=1e-9)
    c.add_argument("--mode", default="auto", choices=["auto", "exhaustive", "randomized"])
    c.add_argument("--trials", type=int, default=10000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument(
        "--space",
        default=None,
        choices=sorted(k.value for k in SpaceKind),
        help="sample from this space kind instead of each map's own domain",
    )

    d = sub.add_parser("dualize", help="construct the trace-dual partner of a map")
    d.add_argument("--maps", required=True)
    d.add_argument("--index", type=int, default=0, help="which map of the document to dualize")
    d.add_argument("--tol", type=float, default=1e-9)

    dc = sub.add_parser("decompose", help="recover canonical parameters of a tuple")
    dc.add_argument("--maps", required=True)
    dc.add_argument("--family", default="auto")
    dc.add_argument("--tol", type=float, default=1e-7)

    e = sub.add_parser("extend", help="extend a corner-supported pair to a bijective pair")
    e.add_argument("--maps", required=True)
    e.add_argument("--tol", type=float, default=1e-8)

    ce = sub.add_parser("certify", help="certify that no pair into smaller matrices exists")
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--field", default="complex", choices=["real", "complex"])
    ce.add_argument("--trials", type=int, default=20)
    ce.add_argument("--seed", type=int, default=0)

    w = sub.add_parser("weighted", help="check the weighted power identity")
    w.add_argument("--maps", required=True)
    w.add_argument("--alpha", type=_float_list, required=True, help="comma-separated exponents")
    w.add_argument("--beta", type=_float_list, required=True, help="comma-separated exponents")
    w.add_argument("--trials", type=int, default=1000)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--tol", type=float, default=1e-8)

    return p


def _cmd_generate(args) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        m=args.m,
        field=Field(args.field),
        seed=args.seed,
        condition_bound=args.condition_bound,
    )
    gen = generate(spec)
    _emit(_generated_document(gen, args.family, stream=True))
    return 0


def _cmd_check(args) -> int:
    maps, _ = _read_maps(args.maps)
    sample_space = None
    if args.space is not None:
        dom = maps[0].domain
        sample_space = SpaceTag(SpaceKind(args.space), dom.field, dom.n)
    report = check_preservation(
        maps,
        tol=args.tol,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        sample_space=sample_space,
    )
    return _verdict(report, "identity")


def _cmd_dualize(args) -> int:
    maps, space = _read_maps(args.maps)
    if not 0 <= args.index < len(maps):
        raise NotApplicableError(f"document has {len(maps)} maps; index {args.index} is out of range")
    f = maps[args.index]
    psi = dualize(f, tol=args.tol)
    _emit(_maps_document(space if space is not None else f.domain, [f, psi], stream=True))
    return 0


def _cmd_decompose(args) -> int:
    maps, space = _read_maps(args.maps)
    result = decompose(maps, family=args.family, tol=args.tol)
    _emit(encode_decomposition(result, space if space is not None else maps[0].domain))
    return 0


def _cmd_extend(args) -> int:
    maps, _ = _read_maps(args.maps)
    if len(maps) != 2:
        raise NotApplicableError(f"extension needs exactly 2 maps, got {len(maps)}")
    psi1, psi2 = embed_extend_pair(maps[0], maps[1], tol=args.tol)
    _emit(_maps_document(span_of(psi1.domain), [psi1, psi2], stream=True))
    return 0


def _cmd_certify(args) -> int:
    cert = infeasibility_certificate(
        args.n, args.k, field=Field(args.field), trials=args.trials, seed=args.seed
    )
    _emit(encode_certificate(cert))
    return 0


def _cmd_weighted(args) -> int:
    maps, _ = _read_maps(args.maps)
    report = verify_weighted(
        maps, args.alpha, args.beta, trials=args.trials, seed=args.seed, tol=args.tol
    )
    return _verdict(report, "weighted identity")


_HANDLERS = {
    "generate": _cmd_generate,
    "check": _cmd_check,
    "dualize": _cmd_dualize,
    "decompose": _cmd_decompose,
    "extend": _cmd_extend,
    "certify": _cmd_certify,
    "weighted": _cmd_weighted,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", 0.0)
        if not math.isfinite(tol) or tol < 0:
            raise InvalidParameterError(f"--tol must be finite and nonnegative, got {tol}")
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # the reader closed stdout: an error document there would break again
        return 2
    except (TraceProdError, json.JSONDecodeError, UnicodeDecodeError, OSError, MemoryError) as exc:
        return _failed(exc)
    except ValueError as exc:
        # numpy refuses an array whose size or byte count overflows before touching any memory
        if not str(exc).startswith(("array is too big", "Maximum allowed dimension exceeded")):
            raise
        return _failed(exc)


def _failed(exc: Exception) -> int:
    """Print the error document; exit status 1 for a tuple that breaks the
    identity or the canonical structure, 2 for any other error."""
    _emit(encode_error(exc))
    print(f"error: {exc}", file=sys.stderr)
    return 1 if isinstance(exc, (PreservationError, CanonicalStructureError)) else 2


def main() -> None:
    # Everything imported so far lives as long as the process. Frozen into the
    # permanent generation, it is no longer traversed by the collections that
    # decoding or encoding a large document triggers, nor by the one at
    # interpreter shutdown, whose walk over numpy's import-time objects was
    # most of the time a stage spent exiting. `run` and the library never
    # touch the collector.
    gc.freeze()
    status = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, or the interpreter's own flush at exit
        # reports the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    main()
