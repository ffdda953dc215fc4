"""Batch command-line interface.

Every command is a pure function of its input files and flags and emits
canonical text: complexes as `fcw/1` documents, polynomials in the
`coeff*t^exp` rendering, barcodes as TSV, scalars as lowest-terms
rationals.  Exit codes: 0 success, 1 domain error or failed output write,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from collections import Counter

# Each handler imports the layers beyond these when it runs, so a process
# loads only what its subcommand needs.  product, smash and wedge stay
# module globals: fcwbench's tracer patches them here.
from . import fileformat
from ._record import Record
from .complexes import FilteredComplex, product, smash, sphere, wedge
from .errors import FCWError, ParseError, ValidationError
from .rationals import NEG_INF, format_extended


class CommandResult(Record):
    """Exit code, stdout payload and stderr text, without its last newline,
    of one command."""

    __slots__ = ("exit_code", "payload", "error")


def _parsed(path: str, parse):
    """parse() of the file's text, the CLI's one reader; any ParseError or ValidationError names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _load(path: str) -> FilteredComplex:
    return _parsed(path, fileformat.parse_complex)


def _weight(text: str, flag: str, finite: bool = True):
    """A flag's weight; a ParseError names the flag."""
    try:
        value = fileformat.parse_weight(text)
    except ParseError as exc:
        raise ParseError(f"{flag}: {exc}") from None
    if finite and value is NEG_INF:
        raise ParseError(f"{flag} must be a finite rational")
    return value


# -- handlers -----------------------------------------------------------------


def _cmd_validate(ns) -> CommandResult:
    try:
        violations = _parsed(ns.file, fileformat.parse_document).validate()
    except ValidationError as exc:  # a duplicate id stops the build
        violations = exc.violations
    if not violations:
        return CommandResult(0, "ok\n", "")
    return CommandResult(1, "".join(f"{v}\n" for v in violations), "")


def _cmd_info(ns) -> str:
    from . import invariants

    x = _load(ns.file)
    report = invariants.invariant_report(x)
    spectrum = x.spectrum()
    counts = Counter(x._dims)
    eternal = x._rank.count(-1)
    lines = [
        f"cells: {len(x)}",
        f"eternal-cells: {eternal}",
        "spectrum:" + "".join(f" {format_extended(v)}" for v in spectrum),
        f"min-finite-weight: {format_extended(spectrum[0]) if spectrum else 'none'}",
        f"max-finite-weight: {format_extended(spectrum[-1]) if spectrum else 'none'}",
        f"cell-count: {format_extended(report.cell_count)}",
        f"weighted-size: {format_extended(report.weighted_size)}",
        f"weighted-euler: {format_extended(report.weighted_euler)}",
    ]
    lines.extend(f"dim {d}: {counts[d]}" for d in sorted(counts))
    return "".join(f"{line}\n" for line in lines)


def _cmd_euler(ns) -> str:
    from . import invariants

    x = _load(ns.file)
    upto = _weight(ns.upto, "--upto", finite=False) if ns.upto is not None else None
    poly = invariants.euler_polynomial(x, upto)
    if ns.derivative:
        poly = poly.derivative()
    if ns.at_one:
        return format_extended(poly.at_one()) + "\n"
    return poly.render() + "\n"


def _cmd_size(ns) -> str:
    from . import invariants

    return invariants.size_polynomial(_load(ns.file)).render() + "\n"


def _cmd_weighted_euler(ns) -> str:
    from . import invariants

    return format_extended(invariants.weighted_euler_char(_load(ns.file))) + "\n"


def _cmd_match(ns) -> str:
    from . import invariants

    return format_extended(invariants.matching_number(_load(ns.left), _load(ns.right))) + "\n"


def _cmd_kclass(ns) -> str:
    from . import invariants

    return invariants.k_class(_load(ns.file), ns.n).render() + "\n"


def _cmd_barcode(ns) -> str:
    from . import persistence

    return persistence.barcode(_load(ns.file)).to_tsv()


def _cmd_euler_curve(ns) -> str:
    from . import invariants

    x = _load(ns.file)
    levels = [NEG_INF, *x.spectrum()]
    values = invariants.euler_curve(x)
    return "r\teuler\n" + "".join(
        f"{format_extended(r)}\t{value}\n" for r, value in zip(levels, values)
    )


def _cmd_bottleneck(ns) -> str:
    from . import persistence

    if ns.dim is not None and ns.dim < 0:
        raise ParseError(f"--dim must be nonnegative, got {ns.dim}")
    left = persistence.barcode(_load(ns.left))
    right = persistence.barcode(_load(ns.right))
    return format_extended(persistence.bottleneck(left, right, ns.dim)) + "\n"


def _cmd_wedge(ns) -> str:
    return fileformat.serialize_complex(wedge(_load(ns.left), _load(ns.right)))


def _cmd_product(ns) -> str:
    return fileformat.serialize_complex(
        product(_load(ns.left), _load(ns.right), filtered=ns.filtered)
    )


def _cmd_smash(ns) -> str:
    return fileformat.serialize_complex(
        smash(_load(ns.left), _load(ns.right), filtered=ns.filtered)
    )


def _cmd_suspend(ns) -> str:
    return fileformat.serialize_complex(_load(ns.file).suspend())


def _cmd_shift(ns) -> str:
    return fileformat.serialize_complex(_load(ns.file).shift(_weight(ns.by, "--by")))


def _cmd_cutoff(ns) -> str:
    return fileformat.serialize_complex(_load(ns.file).cutoff(_weight(ns.at, "--at")))


def _cmd_sphere(ns) -> str:
    if ns.k < 0:
        raise ParseError(f"-k must be nonnegative, got {ns.k}")
    return fileformat.serialize_complex(sphere(ns.k, _weight(ns.level, "-l", finite=False)))


def _cmd_morse_build(ns) -> str:
    from . import morse

    def attached(text: str) -> FilteredComplex:  # the build checks the chains, so it runs in the loader
        boundaries = fileformat.load_json(text)
        if boundaries is None:  # a JSON null, which morse_complex reads as no boundaries
            raise ParseError("boundaries must be a JSON object, got null")
        return morse.morse_complex(datum, boundaries)

    datum = _parsed(ns.file, morse.parse_morse_datum)
    built = morse.morse_complex(datum) if ns.boundaries is None else _parsed(ns.boundaries, attached)
    return fileformat.serialize_complex(built)


def _cmd_morse_bounds(ns) -> str:
    from . import morse

    datum = _parsed(ns.file, morse.parse_morse_datum)
    return (
        f"spheres: {format_extended(morse.bound_size_spheres(datum))}\n"
        f"wedges: {format_extended(morse.bound_size_wedges(datum))}\n"
    )


def _cmd_linearize(ns) -> str:
    from . import morse

    lin = morse.canonical_linearization(_load(ns.file))
    stats = morse.linearization_stats(lin)
    chi = morse.euler_poly_rel(lin)
    return (
        f"lambda: {stats.poly.render()}\n"
        f"count: {format_extended(stats.count)}\n"
        f"weight: {format_extended(stats.weight)}\n"
        f"euler: {chi.render()}\n"
    )


# -- wiring -------------------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


_FILE = (_arg("file"),)
_PAIR = (_arg("left"), _arg("right"))
_FILTERED = _arg("--filtered", action="store_true", help="weights add instead of taking max")

# name -> (handler, help, arguments), in the order `fcw --help` lists them
_COMMANDS = {
    "validate": (_cmd_validate, "list invariant violations (empty output = valid)", _FILE),
    "info": (_cmd_info, "spectrum, weight range, counts and headline invariants", _FILE),
    "euler": (_cmd_euler, "Euler polynomial", (
        *_FILE,
        _arg("--upto", metavar="R", default=None, help="truncate to weights <= R"),
        _arg("--derivative", action="store_true", help="apply d/dt first"),
        _arg("--at-one", action="store_true", dest="at_one", help="evaluate at t=1"),
    )),
    "size": (_cmd_size, "size polynomial", _FILE),
    "weighted-euler": (_cmd_weighted_euler, "d/dt Euler polynomial at t=1", _FILE),
    "match": (_cmd_match, "matching number of two filtrations", _PAIR),
    "kclass": (_cmd_kclass, "stable class in the exponent ring", (
        *_FILE, _arg("-n", type=int, default=0, help="suspension degree (default 0)"),
    )),
    "barcode": (_cmd_barcode, "persistence barcode as TSV", _FILE),
    "euler-curve": (_cmd_euler_curve, "Euler characteristic at each spectral point", _FILE),
    "bottleneck": (_cmd_bottleneck, "exact bottleneck distance of two barcodes", (
        *_PAIR, _arg("--dim", type=int, default=None, help="restrict to one homological degree"),
    )),
    "wedge": (_cmd_wedge, "one-point union of two complexes", _PAIR),
    "product": (_cmd_product, "cellwise product (naive weights by default)", (*_PAIR, _FILTERED)),
    "smash": (_cmd_smash, "product with the wedge collapsed", (*_PAIR, _FILTERED)),
    "suspend": (_cmd_suspend, "raise every cell one dimension", _FILE),
    "shift": (_cmd_shift, "delay every finite weight", (
        *_FILE, _arg("--by", required=True, metavar="A", help="rational shift amount"),
    )),
    "cutoff": (_cmd_cutoff, "raise weights to at least a floor", (
        *_FILE, _arg("--at", required=True, metavar="A", help="rational floor"),
    )),
    "sphere": (_cmd_sphere, "basepoint plus one k-cell at level l", (
        _arg("-k", type=int, required=True, help="cell dimension"),
        _arg("-l", dest="level", required=True, help="weight (rational or -inf)"),
    )),
    "morse-build": (_cmd_morse_build, "cell-attachment model of a Morse datum", (
        *_FILE, _arg("--boundaries", default=None, help="JSON file: cell id -> boundary chain"),
    )),
    "morse-bounds": (_cmd_morse_bounds, "cone-decomposition size bounds", _FILE),
    "linearize": (_cmd_linearize, "canonical linearization stats and Euler polynomial", _FILE),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of every subcommand, or of `command` alone."""
    parser = argparse.ArgumentParser(
        prog="fcw",
        description="Exact invariants, barcodes and constructions for filtered complexes.",
    )
    # With one subcommand the usage line still lists all of them, as the
    # full parser's default metavar does.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        handler, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def run(argv) -> CommandResult:
    """The command's result, with every byte it prints: argparse writes help
    and usage errors to sys.stdout and sys.stderr, so they are caught here."""
    argv = list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, out.getvalue(), err.getvalue().removesuffix("\n"))
    finally:
        sys.stdout, sys.stderr = streams
    try:
        out = ns.handler(ns)
    except ParseError as exc:
        return CommandResult(2, "", f"ParseError: {exc}")
    except FCWError as exc:
        return CommandResult(1, "", f"{type(exc).__name__}: {exc}")
    if isinstance(out, CommandResult):
        return out
    return CommandResult(0, out, "")


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.payload:
        sys.stdout.write(result.payload)
    if result.error:
        sys.stderr.write(result.error + "\n")
    return result.exit_code


def console():
    """The `fcw` process: main() with the cyclic collector off, its output
    flushed, then os._exit, which skips the interpreter's teardown and so
    every atexit handler.  An OSError from writing or flushing the output
    is exit 1 with one line on stderr.  Callers inside a live interpreter
    use main() or run(), which leave the collector and the exit alone."""
    gc.disable()  # a collection walks every live object, the parsed JSON tree included, and frees little
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = 1
        try:
            sys.stderr.write(f"OSError: cannot write output: {exc}\n")
            sys.stderr.flush()
        except OSError:
            pass  # stderr is what failed: the exit code alone reports it
    os._exit(code)


if __name__ == "__main__":
    console()
