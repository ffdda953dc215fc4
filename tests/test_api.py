"""The public API: lazily loaded package names and immutable value objects."""

from __future__ import annotations

import copy
import operator
import os
import pickle
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import fcw
from fcw import (
    NEG_INF,
    POS_INF,
    Bar,
    Barcode,
    Cell,
    CriticalPoint,
    InvariantReport,
    Linearization,
    LinearizationStats,
    MorseDatum,
    Polynomial,
    Violation,
)
from fcw.cli import CommandResult
from fcw.invariants import euler_curve

F = Fraction


def test_a_fresh_package_lists_its_names_before_loading_them():
    code = (
        "import sys, fcw\n"
        "print(set(fcw.__all__) <= set(dir(fcw)), sorted(m for m in sys.modules if m.startswith('fcw.')))"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "True []"


def test_every_public_name_resolves():
    for name in fcw.__all__:
        assert getattr(fcw, name) is not None, name
    namespace = {}
    exec("from fcw import *", namespace)
    assert set(fcw.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(fcw, name) for name in fcw.__all__)
    assert set(fcw.__all__) <= set(dir(fcw))


def test_public_annotations_resolve():
    # each public function, and each public method or __init__ of a public class
    functions = []
    for name in fcw.__all__:
        obj = getattr(fcw, name)
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if attr == "__init__" or not attr.startswith("_"):
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if callable(member):
                        functions.append(member)
        elif callable(obj):
            functions.append(obj)
    assert fcw.FilteredComplex.__init__ in functions and fcw.FilteredComplex.ranks in functions
    for function in functions:
        # exact values only: no public function takes or returns a float
        assert float not in typing.get_type_hints(function).values(), function


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fcw.no_such_name
    from fcw import persistence

    assert persistence.barcode is fcw.barcode


POLY = Polynomial([(1, 1)])
# each value class, one of its fields and the arguments of one instance
VALUES = [
    (Cell, "weight", ("a", 1, F(1, 2), frozenset({"pt"}))),
    (Violation, "cell", ("Kind", "a", "detail")),
    (Bar, "birth", (1, F(1, 2), 1)),
    (Barcode, "bars", ([Bar(1, 0, 1), Bar(0, NEG_INF, POS_INF), Bar(1, 0, 1)],)),
    (InvariantReport, "cell_count", (POLY, POLY, F(1), F(1), F(1))),
    (CriticalPoint, "value", (F(1, 2), 1)),
    (MorseDatum, "points", ([(0, 0), (1, 1)],)),
    (Linearization, "entries", ([(0, 1), (1, F(1, 2))],)),
    (LinearizationStats, "count", (POLY, F(1), F(1))),
    (CommandResult, "exit_code", (0, "ok\n", "")),
    (Polynomial, "_terms", ([(1, 1), (F(1, 2), -2)],)),
]


@pytest.mark.parametrize("cls, field, args", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_objects_are_immutable_records(cls, field, args):
    x, y = cls(*args), cls(*args)
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == y and hash(x) == hash(y)
    assert not x != y
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert x != subclass(*args) and subclass(*args) != x
    assert pickle.loads(pickle.dumps(x)) == x


def test_records_of_different_classes_never_compare_equal():
    same = (1, 2, 3)
    records = [Violation(*same), Bar(*same), LinearizationStats(*same), CommandResult(*same)]
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            assert a != b and b != a


def test_copies_keep_the_infinity_singletons():
    bar = Bar(0, NEG_INF, POS_INF)
    for copied in (pickle.loads(pickle.dumps(bar)), copy.deepcopy(bar), copy.copy(bar)):
        assert copied == bar and copied.birth is NEG_INF and copied.death is POS_INF


def test_records_take_exactly_their_fields():
    for cls, _, args in VALUES:
        if cls in (Violation, InvariantReport, LinearizationStats, CommandResult):
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*args[:-1])
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*args, None)


EXTENDED = [NEG_INF, -5, False, True, 0, F(-1, 3), F(7, 2), 10**30, POS_INF]
ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


def test_infinities_order_against_every_extended_value():
    # -inf below, +inf above, and every finite value between them
    place = lambda v: -1 if v is NEG_INF else 1 if v is POS_INF else 0
    for a in (NEG_INF, POS_INF):
        for b in EXTENDED:
            for x, y in ((a, b), (b, a)):
                for compare in ORDERINGS:
                    assert compare(x, y) is compare(place(x), place(y)), (compare, x, y)
            assert (a == b) is (a is b) and (a != b) is (a is not b)
    assert sorted([POS_INF, F(1, 2), NEG_INF, 3, POS_INF, NEG_INF]) == [NEG_INF, NEG_INF, F(1, 2), 3, POS_INF, POS_INF]
    assert (repr(NEG_INF), repr(POS_INF), str(NEG_INF), str(POS_INF)) == ("-inf", "inf", "-inf", "inf")


@pytest.mark.parametrize("other", [0.5, float("inf"), "1", None, (1,), Polynomial.one()])
def test_infinities_refuse_other_operands(other):
    for inf in (NEG_INF, POS_INF):
        for compare in ORDERINGS:
            with pytest.raises(TypeError):
                compare(inf, other)
            with pytest.raises(TypeError):
                compare(other, inf)


def test_infinities_are_immutable_singletons():
    for inf in (NEG_INF, POS_INF):
        with pytest.raises(AttributeError):
            inf.extra = 1
        with pytest.raises(AttributeError):
            inf._sign = -inf._sign
        with pytest.raises(AttributeError):
            del inf._sign
        assert copy.copy(inf) is inf and pickle.loads(pickle.dumps(inf)) is inf


def test_record_repr_names_the_fields():
    assert repr(Violation("Kind", "a", "x")) == "Violation(kind='Kind', cell='a', detail='x')"
    assert repr(Bar(1, F(1, 2), POS_INF)) == "Bar(dim=1, birth=Fraction(1, 2), death=inf)"


def test_cell_checks_and_coerces_its_fields():
    with pytest.raises(TypeError):
        Cell("x", True, 1)
    with pytest.raises(TypeError):
        Cell("x", 1.0, 1)
    with pytest.raises(TypeError):
        Cell("x", 1, 0.5)
    cell = Cell("x", 1, 2, ["a", "a"])
    assert cell.weight == F(2) and type(cell.weight) is F
    assert cell.boundary == frozenset({"a"}) and type(cell.boundary) is frozenset
    assert Cell(id="x", dim=1, weight=2, boundary=["a"]) == cell


# each entry point that takes a complex, a Morse datum or a barcode, given another value,
# and the whole message of its TypeError
SPHERE = fcw.sphere(1, 0)
NOT_A_COMPLEX = "expected a FilteredComplex, got str"
BARCODE = Barcode([Bar(1, 0, POS_INF)])
NOT_A_POINT = r"Morse datum entry must be a CriticalPoint or a \(value, index\) pair, got "
WRONG_TYPES = {
    "FilteredComplex": (lambda: fcw.FilteredComplex([("pt", 0, NEG_INF)], "pt"), r"complex entry must be a Cell, got \('pt', 0, -inf\)"),
    **{
        name: (lambda function=getattr(fcw, name): function("x"), NOT_A_COMPLEX)
        for name in (
            "barcode", "canonical_linearization", "euler_polynomial", "invariant_report",
            "k_class", "size_polynomial", "weighted_euler_char",
        )
    },
    "euler_curve": (lambda: euler_curve(5), "expected a FilteredComplex, got int"),
    "matching_number-left": (lambda: fcw.matching_number("x", SPHERE), NOT_A_COMPLEX),
    "matching_number-right": (lambda: fcw.matching_number(SPHERE, "x"), NOT_A_COMPLEX),
    **{
        f"{name}-{side}": (lambda name=name, operands=operands: getattr(fcw, name)(*operands), NOT_A_COMPLEX)
        for name in ("wedge", "product", "smash")
        for side, operands in (("left", ("x", SPHERE)), ("right", (SPHERE, "x")))
    },
    "serialize_complex": (lambda: fcw.serialize_complex(None), "expected a FilteredComplex, got NoneType"),
    "MorseDatum": (lambda: MorseDatum([5]), NOT_A_POINT + "5"),
    "MorseDatum-triple": (lambda: MorseDatum([(0, 0, 1)]), NOT_A_POINT + r"\(0, 0, 1\)"),
    "morse_complex": (lambda: fcw.morse_complex([(0, 0)]), "expected a MorseDatum, got list"),
    "bound_size_spheres": (lambda: fcw.bound_size_spheres([(0, 0)]), "expected a MorseDatum, got list"),
    "bound_size_wedges": (lambda: fcw.bound_size_wedges([(0, 0)]), "expected a MorseDatum, got list"),
    "linearization_stats": (lambda: fcw.linearization_stats([(0, 1)]), "expected a Linearization, got list"),
    "euler_poly_rel": (lambda: fcw.euler_poly_rel([(0, 1)]), "expected a Linearization, got list"),
    "rename": (lambda: SPHERE.rename(5), "expected a Mapping, got int"),
    "cell": (lambda: SPHERE.cell(5), "cell id must be a str, got 5"),
    "parse_morse_datum": (lambda: fcw.parse_morse_datum(5), "expected a str, got int"),
    "Linearization": (
        lambda: Linearization([5]),
        r"linearization entry must be a \(sphere dimension, weight\) pair, got 5",
    ),
    "Linearization-triple": (
        lambda: Linearization([(0, 1, 2)]),
        r"linearization entry must be a \(sphere dimension, weight\) pair, got \(0, 1, 2\)",
    ),
    "restrict-bool": (lambda: BARCODE.restrict(True), "degree must be an int, got True"),
    "restrict-str": (lambda: BARCODE.restrict("1"), "degree must be an int, got '1'"),
    "euler_from_barcode": (lambda: fcw.euler_from_barcode([Bar(1, 0, 1)], 0), "expected a Barcode, got list"),
    "euler_from_barcode-level": (
        lambda: fcw.euler_from_barcode(BARCODE, 0.5),
        "expected an exact rational, got float: 0.5",
    ),
    # a level is a weight, so +inf is refused as sublevel refuses it
    "euler_from_barcode-inf": (
        lambda: fcw.euler_from_barcode(BARCODE, POS_INF),
        "expected an exact rational, got _Infinity: inf",
    ),
    **{
        f"format_extended-{value!r}": (
            lambda value=value: fcw.format_extended(value),
            f"expected an exact rational, got {type(value).__name__}: {value!r}",
        )
        for value in (0.5, True, "1", None)
    },
}


@pytest.mark.parametrize("call, message", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_an_entry_point_names_a_value_of_the_wrong_type(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


def test_a_barcode_restricted_to_a_negative_degree_is_refused():
    with pytest.raises(ValueError, match="^degree must be nonnegative, got -1$"):
        BARCODE.restrict(-1)
