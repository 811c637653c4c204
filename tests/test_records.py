"""The value records of the package: immutable, keyword-constructible,
equal and hashed by value, printed as `Name(field=value, ...)` (an
Enclosure prints its cell). Cached sequences, enclosures, pieces and
thickness reports are shared between calls, so none of them may be changed
after construction."""

import pickle
from fractions import Fraction as F

import pytest

from lambdaset.cantor_metrics import DefiningSequence
from lambdaset.cli import Command
from lambdaset.constructions import (GapRecord, LedgerEntry, PieceEndpoints,
                                     ThicknessReport, VerificationLedger)
from lambdaset.ifs_core import Member, NotMember, Unresolved
from lambdaset.intersect import CommonPointCertificate
from lambdaset.lambda_set import (BoxDimReport, CoverInterval, IntervalCover,
                                  LambdaGap, LipschitzReport)
from lambdaset.numerics import Enclosure, PrecisionConfig
from lambdaset.seqcode import EpSequence


def _cell():
    return Enclosure((2, 3, 3), 64)


def _seq():
    return EpSequence((0,), (1, 0))


def _handler(args, cfg):
    return {}, 0


# each type with a function building fresh, equal field values
RECORDS = [
    (Member, lambda: {"coding": _seq()}),
    (NotMember, lambda: {"reject_step": 3}),
    (Unresolved, lambda: {"digits": (0, 1, 1)}),
    (CoverInterval, lambda: {"lo": _cell(), "hi": _cell(), "low_code": _seq(),
                             "high_code": None}),
    (IntervalCover, lambda: {"x": F(1, 3), "depth": 2, "intervals": (),
                             "precision": PrecisionConfig()}),
    (LambdaGap, lambda: {"left_end": _cell(), "right_end": _cell(),
                         "left_code": _seq(), "right_code": _seq()}),
    (LipschitzReport, lambda: {"x": F(1, 3), "lam": F(2, 5), "bound": F(1, 9),
                               "min_ratio": F(1, 2), "pairs": 4,
                               "violations": 0}),
    (BoxDimReport, lambda: {"x": F(1, 3), "window": (F(2, 5), F(1, 2)),
                            "slope": 0.5, "stderr": None,
                            "points": ((F(1, 256), 7),), "segments": 9}),
    (PieceEndpoints, lambda: {"x": F(1, 3), "k": 1, "n_k": 3, "alpha": _cell(),
                              "beta": _cell(), "alpha_next": _cell(),
                              "precision": PrecisionConfig()}),
    (GapRecord, lambda: {"position": 2, "gap": (_cell(), _cell()),
                         "ratio_lo": F(1, 5)}),
    (ThicknessReport, lambda: {"x": F(1, 3), "ell": 1, "k_max": 2, "q_max": 1,
                               "tau_truncated": F(1, 7),
                               "per_family_minima": (("bridge_F", F(1, 7)),),
                               "bound_violations": (
                                   (("family", "gap_ratio"), ("k", 1)),)}),
    (LedgerEntry, lambda: {"kind": "switch_lower", "params": (("q", 2),),
                           "lhs": "1/3", "rhs": "1/4", "passed": True}),
    (VerificationLedger, lambda: {"case": "A", "x": F(2, 7), "trials": 1,
                                  "seed": 0, "entries": ()}),
    (CommonPointCertificate, lambda: {"targets": (F(1, 3),), "lam": _cell(),
                                      "lam_exact": F(1, 3),
                                      "per_target_codings": (_seq(),)}),
    (DefiningSequence, lambda: {"hull": (0, 1, 7, 8),
                                "removals": ((2, 3, 4, 5),), "exponent": 3,
                                "bits": 64}),
    (Command, lambda: {"help": "h", "arguments": (("--x", {}),),
                       "handler": _handler, "schema": "cover",
                       "mirror": True}),
    (Enclosure, lambda: {"cell": (2, 3, 3), "bits": 64}),
    (PrecisionConfig, lambda: {"precision_bits": 96, "width_bits": 40}),
    (EpSequence, lambda: {"preperiod": (0,), "period": (1, 0)}),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    values = fields()
    record = cls(**values)
    assert cls(*values.values()) is not record
    for name, value in values.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)

    twin = cls(**fields())
    assert record == twin and not record != twin
    if all(map(_hashable, values.values())):
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)

    # a copy goes through the constructor, not through field assignment
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and repr(copy) == repr(record)

    # an Enclosure prints its cell: Enclosure[0.25, 0.375]@64
    if cls is not Enclosure:
        text = repr(record)
        assert text.startswith(f"{cls.__name__}(")
        assert all(f"{name}=" in text for name in values)


def test_sequences_order_by_stream_not_by_field():
    a, b = EpSequence((0,), (0, 1)), EpSequence((), (0, 1))
    # stream 0 0 1 0 1 ... against 0 1 0 1 ...; field order would say False
    assert a <= b and not b <= a
    assert b >= a
    with pytest.raises(TypeError):
        a < b
    with pytest.raises(TypeError):
        a > b
    # one stream, two representations
    assert EpSequence((0, 1), (0, 1)) == b
    assert hash(EpSequence((0, 1), (0, 1))) == hash(b)
    # a sequence is not equal to its literal
    assert (b == "(01)") is False
