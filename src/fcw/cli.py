"""Batch command-line interface.

Every command is a pure function of its input files and flags and emits
canonical text: complexes as `fcw/1` documents, polynomials in the
`coeff*t^exp` rendering, barcodes as TSV, scalars as lowest-terms
rationals.  Exit codes: 0 success, 1 domain error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

# Each handler imports the layers beyond these when it runs, so a process
# loads only what its subcommand needs.  product, smash and wedge stay
# module globals: fcwbench's tracer patches them here.
from . import fileformat
from ._record import Record
from .complexes import FilteredComplex, product, smash, sphere, wedge
from .errors import FCWError, ParseError
from .rationals import NEG_INF, format_extended


class CommandResult(Record):
    """Exit code, stdout payload and stderr line of one command."""

    __slots__ = ("exit_code", "payload", "error")

    def __init__(self, exit_code: int, payload: str, error: str = ""):
        setattr_ = object.__setattr__
        setattr_(self, "exit_code", exit_code)
        setattr_(self, "payload", payload)
        setattr_(self, "error", error)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc})") from exc


def _load(path: str) -> FilteredComplex:
    return fileformat.parse_complex(_read(path))


def _finite_weight(text: str, flag: str):
    value = fileformat.parse_weight(text)
    if value is NEG_INF:
        raise ParseError(f"{flag} must be a finite rational")
    return value


def _scalar(value) -> str:
    return f"{value}\n"


# -- handlers -----------------------------------------------------------------


def _cmd_validate(ns) -> CommandResult:
    built = fileformat.parse_document(_read(ns.file))
    violations = built.validate()
    if not violations:
        return CommandResult(0, "ok\n")
    return CommandResult(1, "".join(f"{v}\n" for v in violations))


def _cmd_info(ns) -> str:
    from . import invariants

    x = _load(ns.file)
    report = invariants.invariant_report(x)
    spectrum = x.spectrum()
    counts = Counter(c.dim for c in x.cells)
    eternal = sum(1 for c in x.cells if c.eternal)
    lines = [
        f"cells: {len(x)}",
        f"eternal-cells: {eternal}",
        "spectrum:" + "".join(f" {v}" for v in spectrum),
        f"min-finite-weight: {spectrum[0] if spectrum else 'none'}",
        f"max-finite-weight: {spectrum[-1] if spectrum else 'none'}",
        f"cell-count: {report.cell_count}",
        f"weighted-size: {report.weighted_size}",
        f"weighted-euler: {report.weighted_euler}",
    ]
    lines.extend(f"dim {d}: {counts[d]}" for d in sorted(counts))
    return "".join(f"{line}\n" for line in lines)


def _cmd_euler(ns) -> str:
    from . import invariants

    x = _load(ns.file)
    upto = fileformat.parse_weight(ns.upto) if ns.upto is not None else None
    poly = invariants.euler_polynomial(x, upto)
    if ns.derivative:
        poly = poly.derivative()
    if ns.at_one:
        return _scalar(poly.at_one())
    return poly.render() + "\n"


def _cmd_size(ns) -> str:
    from . import invariants

    return invariants.size_polynomial(_load(ns.file)).render() + "\n"


def _cmd_weighted_euler(ns) -> str:
    from . import invariants

    return _scalar(invariants.weighted_euler_char(_load(ns.file)))


def _cmd_match(ns) -> str:
    from . import invariants

    return _scalar(invariants.matching_number(_load(ns.left), _load(ns.right)))


def _cmd_kclass(ns) -> str:
    from . import invariants

    return invariants.k_class(_load(ns.file), ns.n).render() + "\n"


def _cmd_barcode(ns) -> str:
    from . import persistence

    return persistence.barcode(_load(ns.file)).to_tsv()


def _cmd_euler_curve(ns) -> str:
    from . import persistence

    x = _load(ns.file)
    levels = [NEG_INF, *x.spectrum()]
    values = persistence.euler_curve(persistence.barcode(x), levels)
    return "r\teuler\n" + "".join(
        f"{format_extended(r)}\t{value}\n" for r, value in zip(levels, values)
    )


def _cmd_bottleneck(ns) -> str:
    from . import persistence

    left = persistence.barcode(_load(ns.left))
    right = persistence.barcode(_load(ns.right))
    return _scalar(format_extended(persistence.bottleneck(left, right, ns.dim)))


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
    return fileformat.serialize_complex(_load(ns.file).shift(_finite_weight(ns.by, "--by")))


def _cmd_cutoff(ns) -> str:
    return fileformat.serialize_complex(_load(ns.file).cutoff(_finite_weight(ns.at, "--at")))


def _cmd_sphere(ns) -> str:
    if ns.k < 0:
        raise ParseError(f"-k must be nonnegative, got {ns.k}")
    return fileformat.serialize_complex(sphere(ns.k, fileformat.parse_weight(ns.level)))


def _cmd_morse_build(ns) -> str:
    from . import morse

    datum = morse.parse_morse_datum(_read(ns.file))
    boundaries = None
    if ns.boundaries is not None:
        boundaries = fileformat.load_json(_read(ns.boundaries), "boundaries JSON")
        if not isinstance(boundaries, dict):
            raise ParseError("boundaries file must be a JSON object")
    return fileformat.serialize_complex(morse.morse_complex(datum, boundaries))


def _cmd_morse_bounds(ns) -> str:
    from . import morse

    datum = morse.parse_morse_datum(_read(ns.file))
    return (
        f"spheres: {morse.bound_size_spheres(datum)}\n"
        f"wedges: {morse.bound_size_wedges(datum)}\n"
    )


def _cmd_linearize(ns) -> str:
    from . import morse

    lin = morse.canonical_linearization(_load(ns.file))
    stats = morse.linearization_stats(lin)
    chi = morse.euler_poly_rel(lin)
    return (
        f"lambda: {stats.poly.render()}\n"
        f"count: {stats.count}\n"
        f"weight: {stats.weight}\n"
        f"euler: {chi.render()}\n"
    )


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcw",
        description="Exact invariants, barcodes and constructions for filtered complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = command("validate", _cmd_validate, "list invariant violations (empty output = valid)")
    p.add_argument("file")

    p = command("info", _cmd_info, "spectrum, weight range, counts and headline invariants")
    p.add_argument("file")

    p = command("euler", _cmd_euler, "Euler polynomial")
    p.add_argument("file")
    p.add_argument("--upto", metavar="R", default=None, help="truncate to weights <= R")
    p.add_argument("--derivative", action="store_true", help="apply d/dt first")
    p.add_argument("--at-one", action="store_true", dest="at_one", help="evaluate at t=1")

    p = command("size", _cmd_size, "size polynomial")
    p.add_argument("file")

    p = command("weighted-euler", _cmd_weighted_euler, "d/dt Euler polynomial at t=1")
    p.add_argument("file")

    p = command("match", _cmd_match, "matching number of two filtrations")
    p.add_argument("left")
    p.add_argument("right")

    p = command("kclass", _cmd_kclass, "stable class in the exponent ring")
    p.add_argument("file")
    p.add_argument("-n", type=int, default=0, help="suspension degree (default 0)")

    p = command("barcode", _cmd_barcode, "persistence barcode as TSV")
    p.add_argument("file")

    p = command("euler-curve", _cmd_euler_curve, "Euler characteristic at each spectral point")
    p.add_argument("file")

    p = command("bottleneck", _cmd_bottleneck, "exact bottleneck distance of two barcodes")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--dim", type=int, default=None, help="restrict to one homological degree")

    p = command("wedge", _cmd_wedge, "one-point union of two complexes")
    p.add_argument("left")
    p.add_argument("right")

    p = command("product", _cmd_product, "cellwise product (naive weights by default)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--filtered", action="store_true", help="weights add instead of taking max")

    p = command("smash", _cmd_smash, "product with the wedge collapsed")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--filtered", action="store_true", help="weights add instead of taking max")

    p = command("suspend", _cmd_suspend, "raise every cell one dimension")
    p.add_argument("file")

    p = command("shift", _cmd_shift, "delay every finite weight")
    p.add_argument("file")
    p.add_argument("--by", required=True, metavar="A", help="rational shift amount")

    p = command("cutoff", _cmd_cutoff, "raise weights to at least a floor")
    p.add_argument("file")
    p.add_argument("--at", required=True, metavar="A", help="rational floor")

    p = command("sphere", _cmd_sphere, "basepoint plus one k-cell at level l")
    p.add_argument("-k", type=int, required=True, help="cell dimension")
    p.add_argument("-l", dest="level", required=True, help="weight (rational or -inf)")

    p = command("morse-build", _cmd_morse_build, "cell-attachment model of a Morse datum")
    p.add_argument("file")
    p.add_argument("--boundaries", default=None, help="JSON file: cell id -> boundary chain")

    p = command("morse-bounds", _cmd_morse_bounds, "cone-decomposition size bounds")
    p.add_argument("file")

    p = command("linearize", _cmd_linearize, "canonical linearization stats and Euler polynomial")
    p.add_argument("file")

    return parser


def run(argv) -> CommandResult:
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, "")
    try:
        out = ns.handler(ns)
    except ParseError as exc:
        return CommandResult(2, "", f"ParseError: {exc}")
    except FCWError as exc:
        return CommandResult(1, "", f"{type(exc).__name__}: {exc}")
    if isinstance(out, CommandResult):
        return out
    return CommandResult(0, out)


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.payload:
        sys.stdout.write(result.payload)
    if result.error:
        sys.stderr.write(result.error + "\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
