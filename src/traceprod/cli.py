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
from typing import Callable, NamedTuple

from .errors import (
    CanonicalStructureError,
    InvalidParameterError,
    NotApplicableError,
    PreservationError,
    TraceProdError,
)
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

# the library names that only some subcommands use, by their module. Each is
# imported on first use and then kept in this module's namespace, where the
# handlers call it by its bare name and a test or a tracer may rebind it.
_LAZY = {
    "FAMILIES": "families",
    "GenSpec": "families",
    "generate": "families",
    "CheckMode": "extend",
    "check_preservation": "extend",
    "dualize": "extend",
    "embed_extend_pair": "extend",
    "infeasibility_certificate": "extend",
    "decompose": "decompose",
    "verify_weighted": "decompose",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .<module> import <name>`, written out so that `-X importtime` reports it
    value = globals()[name] = getattr(__import__(_LAZY[name], globals(), level=1), name)
    return value


def _load(module: str) -> None:
    """Import `module` and bind here each of its `_LAZY` names not bound yet."""
    for name, home in _LAZY.items():
        if home == module and name not in globals():
            __getattr__(name)


def _read_maps(path: str):
    """The maps and space of a maps document. The text is dropped once
    parsed, before the decode allocates the transfers."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
        del text
        return decode_maps_document(doc)
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


class _Subcommands(argparse._SubParsersAction):
    """The subcommands of `_SUBCOMMANDS`. The one being parsed gets its options
    only then, once its library module is imported: the choices of `generate
    --family` and `check --mode` come from modules that the other subcommands
    never load."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._built = set()

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if name in _SUBCOMMANDS and name not in self._built:
            self._built.add(name)
            _load(_SUBCOMMANDS[name].module)
            _SUBCOMMANDS[name].options(self._name_parser_map[name])
        super().__call__(parser, namespace, values, option_string)


def _generate_options(g) -> None:
    g.add_argument("--family", required=True, choices=sorted(FAMILIES))
    g.add_argument("--n", type=int, required=True, help="matrix size")
    g.add_argument("--m", type=int, required=True, help="tuple length")
    g.add_argument("--field", choices=[f.value for f in Field])
    g.add_argument("--seed", type=int)
    g.add_argument("--condition-bound", type=float)


def _check_options(c) -> None:
    c.add_argument("--maps", required=True, help="JSON file of maps, or - for stdin")
    c.add_argument("--tol", type=float)
    c.add_argument("--mode", choices=["auto", *(mode.value for mode in CheckMode)])
    c.add_argument("--trials", type=int)
    c.add_argument("--seed", type=int)
    c.add_argument(
        "--space",
        dest="sample_space",
        choices=sorted(k.value for k in SpaceKind),
        help="sample from this space kind instead of each map's own domain",
    )


def _dualize_options(d) -> None:
    d.add_argument("--maps", required=True)
    d.add_argument("--index", type=int, default=0, help="which map of the document to dualize")
    d.add_argument("--tol", type=float)


def _decompose_options(dc) -> None:
    dc.add_argument("--maps", required=True)
    dc.add_argument("--family")
    dc.add_argument("--tol", type=float)


def _extend_options(e) -> None:
    e.add_argument("--maps", required=True)
    e.add_argument("--tol", type=float)


def _certify_options(ce) -> None:
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--field", choices=[f.value for f in Field])
    ce.add_argument("--trials", type=int)
    ce.add_argument("--seed", type=int)


def _weighted_options(w) -> None:
    w.add_argument("--maps", required=True)
    w.add_argument("--alpha", type=_float_list, required=True, help="comma-separated exponents")
    w.add_argument("--beta", type=_float_list, required=True, help="comma-separated exponents")
    w.add_argument("--trials", type=int)
    w.add_argument("--seed", type=int)
    w.add_argument("--tol", type=float)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="traceprod",
        description="Verify, construct, and invert tuples of maps preserving traces of products.",
    )
    sub = p.add_subparsers(dest="command", required=True, action=_Subcommands)
    for name, subcommand in _SUBCOMMANDS.items():
        sub.add_parser(name, help=subcommand.help, argument_default=argparse.SUPPRESS)
    return p


def _options(args, *cli_only: str) -> dict:
    """The options given to a subcommand but `--maps` and `cli_only`: its library
    call's keywords. One left out is absent (`argparse.SUPPRESS`), so the call
    applies its own default; only `dualize --index`, a CLI option, has one here."""
    skip = ("command", "maps", *cli_only)
    return {k: v for k, v in vars(args).items() if k not in skip}


def _cmd_generate(args) -> int:
    gen = generate(GenSpec(**_options(args)))
    _emit(_generated_document(gen, args.family, stream=True))
    return 0


def _cmd_check(args) -> int:
    maps, _ = _read_maps(args.maps)
    opts = _options(args)
    if "sample_space" in opts:
        opts["sample_space"] = SpaceTag(opts["sample_space"], maps[0].domain.field, maps[0].domain.n)
    return _verdict(check_preservation(maps, **opts), "identity")


def _cmd_dualize(args) -> int:
    maps, space = _read_maps(args.maps)
    if not 0 <= args.index < len(maps):
        raise NotApplicableError(f"document has {len(maps)} maps; index {args.index} is out of range")
    f = maps[args.index]
    psi = dualize(f, **_options(args, "index"))
    _emit(_maps_document(space if space is not None else f.domain, [f, psi], stream=True))
    return 0


def _cmd_decompose(args) -> int:
    maps, space = _read_maps(args.maps)
    result = decompose(maps, **_options(args))
    _emit(encode_decomposition(result, space if space is not None else maps[0].domain))
    return 0


def _cmd_extend(args) -> int:
    maps, _ = _read_maps(args.maps)
    if len(maps) != 2:
        raise NotApplicableError(f"extension needs exactly 2 maps, got {len(maps)}")
    psi1, psi2 = embed_extend_pair(*maps, **_options(args))
    _emit(_maps_document(span_of(psi1.domain), [psi1, psi2], stream=True))
    return 0


def _cmd_certify(args) -> int:
    _emit(encode_certificate(infeasibility_certificate(**_options(args))))
    return 0


def _cmd_weighted(args) -> int:
    maps, _ = _read_maps(args.maps)
    return _verdict(verify_weighted(maps, **_options(args)), "weighted identity")


class _Subcommand(NamedTuple):
    help: str
    # the module that its `_LAZY` library calls come from
    module: str
    options: Callable
    handler: Callable


_SUBCOMMANDS = {
    "generate": _Subcommand(
        "generate a canonical tuple of maps", "families", _generate_options, _cmd_generate
    ),
    "check": _Subcommand(
        "check the trace-of-products identity", "extend", _check_options, _cmd_check
    ),
    "dualize": _Subcommand(
        "construct the trace-dual partner of a map", "extend", _dualize_options, _cmd_dualize
    ),
    "decompose": _Subcommand(
        "recover canonical parameters of a tuple", "decompose", _decompose_options, _cmd_decompose
    ),
    "extend": _Subcommand(
        "extend a corner-supported pair to a bijective pair", "extend", _extend_options, _cmd_extend
    ),
    "certify": _Subcommand(
        "certify that no pair into smaller matrices exists", "extend", _certify_options, _cmd_certify
    ),
    "weighted": _Subcommand(
        "check the weighted power identity", "decompose", _weighted_options, _cmd_weighted
    ),
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", 0.0)
        if not math.isfinite(tol) or tol < 0:
            raise InvalidParameterError(f"--tol must be finite and nonnegative, got {tol}")
        return _SUBCOMMANDS[args.command].handler(args)
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
    # The subcommand named first (the only place it can stand but after `--`)
    # has its library module imported now, so that the freeze covers it too.
    # Everything imported so far lives as long as the process. Frozen into the
    # permanent generation, it is no longer traversed by the collections that
    # decoding or encoding a large document triggers, nor by the one at
    # interpreter shutdown, whose walk over numpy's import-time objects was
    # most of the time a stage spent exiting. `run` and the library never
    # touch the collector.
    if sys.argv[1:2] and sys.argv[1] in _SUBCOMMANDS:
        _load(_SUBCOMMANDS[sys.argv[1]].module)
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
