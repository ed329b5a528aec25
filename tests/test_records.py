"""The package's value objects: construction, checks, equality, repr,
hashing and immutability, and an import that loads no `dataclasses`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from perpetuants.basis import DimensionSeries, InvariantElement
from perpetuants.binforms import CovariantProfile, MembershipReport
from perpetuants.perpetua import ComplementCertificate, ThresholdVector
from perpetuants.polycore import Poly
from perpetuants.symfunc import Partition, TransitionMatrix
from perpetuants.umbral import PotenziantExpansion, UmbralMonomial

A0 = Poly.variable("a", 0)

# (class, fields by keyword, repr); the fields are listed in declaration order
RECORDS = [
    (InvariantElement, dict(k=(1,), degree=3, weight=3, poly=A0),
     "InvariantElement(k=(1,), degree=3, weight=3, poly=a0)"),
    (DimensionSeries, dict(n=3, coefficients=[1, 0, 1]),
     "DimensionSeries(n=3, coefficients=[1, 0, 1])"),
    (CovariantProfile, dict(n=3, k=2, g=3, p=0),
     "CovariantProfile(n=3, k=2, g=3, p=0)"),
    (MembershipReport, dict(identity_holds=True, in_limit_decomposables=True,
                            indecomposable_in_cubic_algebra=False),
     "MembershipReport(identity_holds=True, in_limit_decomposables=True, "
     "indecomposable_in_cubic_algebra=False)"),
    (ThresholdVector, dict(n=4, k=(1, 1)), "ThresholdVector(n=4, k=(1, 1))"),
    (ComplementCertificate, dict(n=4, g=9, dim_total=3, dim_decomposable=2, dim_perpetuant=1,
                                 direct_sum_ok=True, stroh_coefficient=1),
     "ComplementCertificate(n=4, g=9, dim_total=3, dim_decomposable=2, dim_perpetuant=1, "
     "direct_sum_ok=True, stroh_coefficient=1)"),
    (Partition, dict(parts=(3, 1)), "Partition(parts=(3, 1))"),
    (TransitionMatrix, dict(rows=(Partition((1,)),), cols=[(1,)], entries=[[1]], direction="beta"),
     "TransitionMatrix(rows=(Partition(parts=(1,)),), cols=[(1,)], entries=[[1]], "
     "direction='beta')"),
    (UmbralMonomial, dict(r=(2, 0), ambient=2), "UmbralMonomial(r=(2, 0), ambient=2)"),
    (PotenziantExpansion, dict(n=2, g=0, rows=[], e_rows=[]),
     "PotenziantExpansion(n=2, g=0, rows=[], e_rows=[])"),
]
FROZEN = {CovariantProfile, ThresholdVector, Partition, UmbralMonomial}
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_built_by_keyword_or_position(cls, fields, text):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == text
    assert record != tuple(fields.values())


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_a_missing_or_unknown_field_is_a_type_error(cls, fields, text):
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(values[0], **fields)


def test_equality_is_by_class_as_well_as_fields():
    assert ThresholdVector(4, (1, 1)) != DimensionSeries(4, (1, 1))
    assert DimensionSeries(4, [1, 1]) != DimensionSeries(4, [1, 0])
    assert DimensionSeries(4, [1, 1]) == DimensionSeries(4, [1, 1])


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_frozen_records_hash_by_value_and_refuse_assignment(cls, fields, text):
    record = cls(**fields)
    name = next(iter(fields))
    if cls in FROZEN:
        assert hash(record) == hash(cls(**fields))
        assert {record: 1}[cls(**fields)] == 1
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, fields[name])
        assert record == cls(**fields)


def test_partition_checks_and_normalises_its_parts():
    assert Partition([3, 1]).parts == (3, 1)
    with pytest.raises(ValueError, match="parts must be positive"):
        Partition((2, 0))
    with pytest.raises(ValueError, match="parts must be weakly decreasing"):
        Partition((1, 2))
    # the unchecked builder takes the parts as they are
    assert Partition._of((3, 1)) == Partition((3, 1))
    assert hash(Partition._of((3, 1))) == hash(Partition((3, 1)))
    assert Partition._of((1, 2)).parts == (1, 2)


def test_umbral_monomial_checks_and_normalises_its_exponents():
    assert UmbralMonomial([2.0, 0], 2).r == (2, 0)
    assert type(UmbralMonomial([2.0, 0], 2).r[0]) is int
    with pytest.raises(ValueError, match="length ambient"):
        UmbralMonomial((1, 2), 3)
    with pytest.raises(ValueError, match="nonnegative integers"):
        UmbralMonomial((-1,), 1)
    with pytest.raises(ValueError, match="nonnegative integers"):
        UmbralMonomial((0.5,), 1)


@pytest.mark.parametrize("module", ["perpetuants", "perpetuants.cli"])
def test_import_loads_no_dataclasses_or_inspect(module):
    # a fresh interpreter without site, so that nothing else loads them
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
