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
`weighted` via `--maps -`, which reads stdin as strict UTF-8, as a file is
read; `jsonio.decode_document` parses either.
"""
from __future__ import annotations

import gc

# The collector is paused from this module's first import to the end of its
# body, then left as the caller had it. What numpy and the library create as
# they load lives as long as the process, so a collection that walks it frees
# nothing. The first allocation after the pause sets off one collection over
# all of it, so the pause ends last: run as `__main__` (`python -m` and the
# `traceprod` script), main() pauses the collector again before anything is
# allocated, and freezes that heap.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
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
        decode_document,
        decode_maps_document,
        encode_certificate,
        encode_decomposition,
        encode_document,
        encode_error,
        encode_report,
    )
    from .spaces import Field, SpaceKind, SpaceTag, span_of
except BaseException:
    if _collecting:
        gc.enable()
    raise


def _load(module: str):
    """The library module `module`, imported by the statement's own path,
    which `-X importtime` reports."""
    return __import__(module, globals(), level=1)


def _read_maps(path: str):
    """The maps and space of the maps document in the file `path`, or on stdin for `-`."""
    if path != "-":
        with open(path, "r", encoding="utf-8") as fh:
            doc = decode_document(fh)
    elif sys.stdin is None:  # the process was started with stdin closed
        raise InvalidParameterError("--maps - reads stdin, which is closed")
    else:
        doc = decode_document(sys.stdin)
    return decode_maps_document(doc)


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


def _generate_options(g, lib) -> None:
    g.add_argument("--family", required=True, choices=sorted(lib.FAMILIES))
    g.add_argument("--n", type=int, required=True, help="matrix size")
    g.add_argument("--m", type=int, required=True, help="tuple length")
    g.add_argument("--field", choices=[f.value for f in Field])
    g.add_argument("--seed", type=int)
    g.add_argument("--condition-bound", type=float)


def _check_options(c, lib) -> None:
    c.add_argument("--maps", required=True, help="JSON file of maps, or - for stdin")
    c.add_argument("--tol", type=float)
    c.add_argument("--mode", choices=["auto", *(mode.value for mode in lib.CheckMode)])
    c.add_argument("--trials", type=int)
    c.add_argument("--seed", type=int)
    c.add_argument(
        "--space",
        dest="sample_space",
        choices=sorted(k.value for k in SpaceKind),
        help="sample from this space kind instead of each map's own domain",
    )


def _dualize_options(d, lib) -> None:
    d.add_argument("--maps", required=True)
    d.add_argument("--index", type=int, default=0, help="which map of the document to dualize")
    d.add_argument("--tol", type=float)


def _decompose_options(dc, lib) -> None:
    dc.add_argument("--maps", required=True)
    dc.add_argument("--family")
    dc.add_argument("--tol", type=float)


def _extend_options(e, lib) -> None:
    e.add_argument("--maps", required=True)
    e.add_argument("--tol", type=float)


def _certify_options(ce, lib) -> None:
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--field", choices=[f.value for f in Field])
    ce.add_argument("--trials", type=int)
    ce.add_argument("--seed", type=int)


def _weighted_options(w, lib) -> None:
    w.add_argument("--maps", required=True)
    w.add_argument("--alpha", type=_float_list, required=True, help="comma-separated exponents")
    w.add_argument("--beta", type=_float_list, required=True, help="comma-separated exponents")
    w.add_argument("--trials", type=int)
    w.add_argument("--seed", type=int)
    w.add_argument("--tol", type=float)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the options of `command` only
    (`_command`): the choices of `generate --family` and `check --mode` come
    from modules that the other subcommands never load."""
    p = argparse.ArgumentParser(
        prog="traceprod",
        description="Verify, construct, and invert tuples of maps preserving traces of products.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, subcommand in _SUBCOMMANDS.items():
        parser = sub.add_parser(name, help=subcommand.help, argument_default=argparse.SUPPRESS)
        if name == command:
            subcommand.options(parser, _load(subcommand.module))
    return p


def _options(args, *cli_only: str) -> dict:
    """The options given to a subcommand but `--maps` and `cli_only`: its library
    call's keywords. One left out is absent (`argparse.SUPPRESS`), so the call
    applies its own default; only `dualize --index`, a CLI option, has one here."""
    skip = ("command", "maps", *cli_only)
    return {k: v for k, v in vars(args).items() if k not in skip}


def _cmd_generate(lib, args) -> int:
    gen = lib.generate(lib.GenSpec(**_options(args)))
    _emit(_generated_document(gen, args.family, stream=True))
    return 0


def _cmd_check(lib, args) -> int:
    maps, _ = _read_maps(args.maps)
    opts = _options(args)
    if "sample_space" in opts:
        opts["sample_space"] = SpaceTag(opts["sample_space"], maps[0].domain.field, maps[0].domain.n)
    return _verdict(lib.check_preservation(maps, **opts), "identity")


def _cmd_dualize(lib, args) -> int:
    maps, space = _read_maps(args.maps)
    if not 0 <= args.index < len(maps):
        raise NotApplicableError(f"document has {len(maps)} maps; index {args.index} is out of range")
    f = maps[args.index]
    psi = lib.dualize(f, **_options(args, "index"))
    _emit(_maps_document(space if space is not None else f.domain, [f, psi], stream=True))
    return 0


def _cmd_decompose(lib, args) -> int:
    maps, space = _read_maps(args.maps)
    result = lib.decompose(maps, **_options(args))
    _emit(encode_decomposition(result, space if space is not None else maps[0].domain))
    return 0


def _cmd_extend(lib, args) -> int:
    maps, _ = _read_maps(args.maps)
    if len(maps) != 2:
        raise NotApplicableError(f"extension needs exactly 2 maps, got {len(maps)}")
    psi1, psi2 = lib.embed_extend_pair(*maps, **_options(args))
    _emit(_maps_document(span_of(psi1.domain), [psi1, psi2], stream=True))
    return 0


def _cmd_certify(lib, args) -> int:
    _emit(encode_certificate(lib.infeasibility_certificate(**_options(args))))
    return 0


def _cmd_weighted(lib, args) -> int:
    maps, _ = _read_maps(args.maps)
    return _verdict(lib.verify_weighted(maps, **_options(args)), "weighted identity")


class _Subcommand(NamedTuple):
    help: str
    # the library module that its options builder and handler take
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
        "check the weighted power identity", "weighted", _weighted_options, _cmd_weighted
    ),
}


def _command(argv: list) -> str | None:
    """The subcommand that `argv` names first, with its library module
    imported; None when it names none. argparse refuses a leading `--` as a
    subcommand, so the first argument is the only place one can stand."""
    if argv[:1] and argv[0] in _SUBCOMMANDS:
        _load(_SUBCOMMANDS[argv[0]].module)
        return argv[0]
    return None


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(_command(argv)).parse_args(argv)
    subcommand = _SUBCOMMANDS[args.command]
    try:
        return subcommand.handler(_load(subcommand.module), args)
    except BrokenPipeError:
        # the reader closed stdout: an error document there would break again
        return 2
    except (TraceProdError, UnicodeDecodeError, OSError, MemoryError) as exc:
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
    # The subcommand named first (`_command`) has its library module imported
    # now, so that the freeze covers it too.
    # As over this module's own imports, the collector is paused while that
    # import runs and until the freeze, then left as the caller had it.
    # Everything imported so far lives as long as the process. Frozen into the
    # permanent generation, it is no longer traversed by the collections that
    # decoding or encoding a large document triggers, nor by the one at
    # interpreter shutdown, whose walk over numpy's import-time objects was
    # most of the time a stage spent exiting. `run` and the library never
    # touch the collector. Reconfiguring stdin allocates, so it runs in the pause too.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if sys.stdin is not None:  # `--maps -` reads it as a file is read, whatever the locale
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        _command(sys.argv[1:])
        gc.freeze()
    finally:
        if collecting:
            gc.enable()
    status = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, or the interpreter's own flush at exit
        # reports the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    sys.exit(status)


# the end of the pause begun before the imports
if _collecting:
    gc.enable()

if __name__ == "__main__":
    main()
