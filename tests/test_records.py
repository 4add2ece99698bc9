"""The result and input records: field names and order, defaults, keyword
construction, value equality, hashing, immutability, copies through
``_replace`` and the errors each constructor raises for invalid input."""

import json

import pytest

from conftest import Q2, SHIFT, pp, rf
from diffalg import (
    ConstLinDiffOp,
    DACertificate,
    DAStatus,
    DAVerdict,
    DiffStructure,
    GroupClass,
    GroupKind,
    IntegrabilityResult,
    IntegrabilityStatus,
    MatrixRF,
    MultStandardForm,
    ParseError,
    PreconditionError,
    Rat,
    ScalarDiffEq,
    SolutionSpace,
    StandardDecomp,
    Status,
    Telescoper,
    VectorSolutionSpace,
)
from diffalg.cli import Query, VerdictReport
from diffalg.parsing import MAX_DEGREE_CAP, MAX_ORDER_BOUND

EQ = ScalarDiffEq(SHIFT, (pp("x"), pp("-x-1")))
SCALAR_PAYLOAD = {"coeffs": "1;1"}  # a solve-scalar query's one required argument

# (record, positional arguments, field names in order, defaults of the
# omitted trailing fields, a field change that makes an unequal record,
# whether it hashes)
RECORDS = [
    (DiffStructure, (Rat(2),), ("q",), {}, {"q": Rat(3)}, True),
    (DiffStructure, (), ("q",), {"q": None}, {"q": Rat(2)}, True),
    (ConstLinDiffOp, (), ("coeffs",), {"coeffs": ()}, {"coeffs": (Rat(1),)}, True),
    (
        ScalarDiffEq,
        (SHIFT, (pp("x"), pp("-x-1"))),
        ("structure", "coeffs", "rhs_basis", "lambda_fixed"),
        {"rhs_basis": (), "lambda_fixed": ()},
        {"structure": Q2},
        True,
    ),
    (
        SolutionSpace,
        (Status.NO_SOLUTION,),
        ("status", "particular", "homogeneous_basis", "witness", "universal_den", "degree_bound"),
        {"particular": None, "homogeneous_basis": (), "witness": None, "universal_den": None, "degree_bound": None},
        {"witness": "pole orbit"},
        True,
    ),
    (
        VectorSolutionSpace,
        (Status.NO_SOLUTION,),
        ("status", "particular", "homogeneous_basis", "witness", "scalar_trace"),
        {"particular": None, "homogeneous_basis": (), "witness": None, "scalar_trace": None},
        {"witness": "coordinate 0: no rational solution"},
        True,
    ),
    (
        StandardDecomp,
        (SHIFT, Rat(1), rf("1/x"), rf("0")),
        ("structure", "twist_a", "standard_part", "certificate_g"),
        {},
        {"twist_a": Rat(2)},
        True,
    ),
    (
        MultStandardForm,
        (SHIFT, rf("x"), rf("1")),
        ("structure", "standard_part", "certificate_g"),
        {},
        {"certificate_g": rf("x")},
        True,
    ),
    (MatrixRF, (((rf("x"),),),), ("entries",), {}, {"entries": ((rf("1"),),)}, True),
    (Telescoper, ((ConstLinDiffOp((1,)),), rf("1/x")), ("operators", "certificate_g"), {}, {"certificate_g": rf("x")}, True),
    (DACertificate, (), ("f", "c", "n_or_r", "d"), {"f": None, "c": None, "n_or_r": None, "d": None}, {"c": Rat(2)}, True),
    (
        DAVerdict,
        (DAStatus.DIFFERENTIALLY_ALGEBRAIC, DACertificate(f=rf("x")), "notes"),
        ("status", "certificate", "hypothesis_notes"),
        {},
        {"certificate": None},
        True,
    ),
    (
        IntegrabilityResult,
        (IntegrabilityStatus.NOT_CONSTANT_CONJUGATE, None, EQ),
        ("status", "b_matrix", "scalar_trace"),
        {},
        {"b_matrix": MatrixRF([[1]])},
        True,
    ),
    (
        GroupClass,
        (GroupKind.FULL_GA,),
        ("kind", "certificate_h", "certificate_c"),
        {"certificate_h": None, "certificate_c": None},
        {"kind": GroupKind.TRIVIAL},
        True,
    ),
    (
        Query,
        ("disp",),
        ("subcommand", "structure", "payload", "order_bound", "degree_cap"),
        {"structure": SHIFT, "payload": {}, "order_bound": 3, "degree_cap": None},
        {"payload": {"poly": "x"}},
        False,
    ),
    (
        VerdictReport,
        ("disp", "shift", None, "DISPERSION", {"dispersion": 0}, True, "", 1),
        ("subcommand", "case", "q", "verdict", "certificate", "substitution_verified", "hypothesis_notes", "timing_ms"),
        {},
        {"verdict": "ERROR"},
        False,
    ),
]


def _record_id(row):
    cls, args = row[0], row[1]
    if cls is DiffStructure:
        # the ids count a variant argument that DiffStructure no longer
        # takes, so the q row stays -2 and the shift row stays -1
        return f"DiffStructure-{len(args) + 1}"
    return f"{cls.__name__}-{len(args)}"


@pytest.mark.parametrize(
    "cls, args, fields, defaults, change, hashable",
    RECORDS,
    ids=[_record_id(r) for r in RECORDS],
)
def test_record_contract(cls, args, fields, defaults, change, hashable):
    rec = cls(*args)
    assert rec._fields == fields
    assert {name: getattr(rec, name) for name in fields[len(args):]} == defaults
    assert cls(**dict(zip(fields, args))) == rec
    assert cls(*args) == rec
    other = rec._replace(**change)
    assert type(other) is cls and other != rec
    assert rec._replace() == rec
    if hashable:
        assert hash(cls(*args)) == hash(rec)
        assert len({rec, cls(*args), other}) == 2
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_query_payload_default_is_not_shared():
    assert Query("disp").payload is not Query("disp").payload


def test_query_payload_is_a_read_only_copy():
    given = {"coeffs": "1;1"}
    query = Query("solve-scalar", payload=given)
    given.pop("coeffs")
    assert query.payload == {"coeffs": "1;1"}
    with pytest.raises(TypeError):
        query.payload["coeffs"] = None


def test_verdict_report_json_keys_in_field_order():
    report = VerdictReport("disp", "q", "2", "DISPERSION", {"dispersion": 0}, True, "", 3)
    out = report.to_json_dict()
    assert type(out) is dict and list(out) == list(VerdictReport._fields)
    assert json.dumps(out).startswith('{"subcommand": "disp", "case": "q", "q": "2"')


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: DiffStructure(0), PreconditionError),
        (lambda: DiffStructure(1), PreconditionError),
        (lambda: DiffStructure(-1), PreconditionError),
        (lambda: DiffStructure(Rat(-3, 3)), PreconditionError),
        (lambda: Q2._replace(q=Rat(-1)), PreconditionError),
        (lambda: ScalarDiffEq(SHIFT, ()), PreconditionError),
        (lambda: ScalarDiffEq(SHIFT, (0, pp("0"))), PreconditionError),
        (lambda: EQ._replace(coeffs=(0,)), PreconditionError),
        (lambda: ScalarDiffEq(SHIFT, (1, -1), (rf("x"),), (1, None)), PreconditionError),
        (lambda: ScalarDiffEq(SHIFT, (1, -1), (), (Rat(1),)), PreconditionError),
        (lambda: MatrixRF([[1, 2]]), PreconditionError),
        (lambda: MatrixRF([[1]])._replace(entries=((1, 2),)), PreconditionError),
        (lambda: Query("explode"), ParseError),
        (lambda: Query(["disp"]), ParseError),
        (lambda: Query("solve-scalar"), ParseError),
        (lambda: Query("disp", "q"), ParseError),
        (lambda: Query("telescope", order_bound=-1), ParseError),
        (lambda: Query("telescope", order_bound=MAX_ORDER_BOUND + 1), ParseError),
        (lambda: Query("solve-scalar", payload=SCALAR_PAYLOAD, degree_cap=-1), ParseError),
        (lambda: Query("solve-scalar", payload=SCALAR_PAYLOAD)._replace(degree_cap=-2), ParseError),
        (lambda: Query("solve-scalar", payload=SCALAR_PAYLOAD, degree_cap=MAX_DEGREE_CAP + 1), ParseError),
        (lambda: Query("solve-scalar", payload=SCALAR_PAYLOAD)._replace(degree_cap=10 ** 12), ParseError),
        (lambda: Query("da-hypergeom", payload={"b": "x", "a": "1"}), ParseError),
    ],
)
def test_invalid_record_rejected(build, error):
    with pytest.raises(error):
        build()


def test_constructors_coerce_their_fields():
    assert DiffStructure(2).q == Rat(2) and type(Q2.q) is Rat
    assert ConstLinDiffOp((1,))._replace(coeffs=(3, 0)).coeffs == (Rat(3),)
    eq = ScalarDiffEq(SHIFT, (1, pp("x")), (2,), (1,))
    assert eq.coeffs == (pp("1"), pp("x")) and eq.rhs_basis == (rf("2"),)
    assert eq.lambda_fixed == (Rat(1),) and type(eq.lambda_fixed[0]) is Rat
