"""The value records: points, elements, ideals, residue fields and subsets
compare, hash, print and refuse change as the frozen dataclasses they
replaced did."""

import copy
import pickle
from fractions import Fraction

import pytest

from conftest import F2
from spectop import rings
from spectop import spectrum as sp
from spectop.spectrum import SpecSubset
from spectop.values import (
    FieldZero,
    FpxGeneric,
    FpxMax,
    IntEl,
    ModEl,
    MonoPrime,
    MonomialIdeal,
    MPolyEl,
    PolyEl,
    PrincipalIdeal,
    RatEl,
    Record,
    ResidueField,
    SuppMin,
    SuppTop,
    TamePrime,
    TupleEl,
    ZGeneric,
    ZmodPrime,
    ZMax,
)

Z6 = rings.zmod(6)

# One sample of each record class, its fields, a second value of the class
# with other fields (None for the classes without fields) and its repr.
SAMPLES = [
    (ZGeneric, (), None, "ZGeneric()"),
    (ZMax, (5,), (7,), "ZMax(p=5)"),
    (ZmodPrime, (5,), (3,), "ZmodPrime(p=5)"),
    (FpxGeneric, (), None, "FpxGeneric()"),
    (FpxMax, ((1, 1),), ((1, 1, 1),), "FpxMax(coeffs=(1, 1))"),
    (FieldZero, (), None, "FieldZero()"),
    (MonoPrime, (frozenset({1, 2}),), (frozenset({2}),), "MonoPrime(cover=frozenset({1, 2}))"),
    (SuppMin, (5,), (1,), "SuppMin(k=5)"),
    (SuppTop, (), None, "SuppTop()"),
    (TamePrime, (1, ZmodPrime(3)), (0, ZmodPrime(3)), "TamePrime(slot=1, inner=ZmodPrime(p=3))"),
    (IntEl, (5,), (-5,), "IntEl(v=5)"),
    (RatEl, (Fraction(1, 2),), (Fraction(2),), "RatEl(v=Fraction(1, 2))"),
    (ModEl, (3,), (1,), "ModEl(v=3)"),
    (PolyEl, ((0, 1),), ((),), "PolyEl(coeffs=(0, 1))"),
    (MPolyEl, (((1, (1,)),),), ((),), "MPolyEl(terms=((1, (1,)),))"),
    (TupleEl, ((ModEl(1), ModEl(2)),), ((ModEl(0), ModEl(2)),),
     "TupleEl(items=(ModEl(v=1), ModEl(v=2)))"),
    (PrincipalIdeal, (ModEl(1),), (ModEl(0),), "PrincipalIdeal(gen=ModEl(v=1))"),
    (MonomialIdeal, (frozenset({1}),), (frozenset({3}),), "MonomialIdeal(gens=frozenset({1}))"),
    (ResidueField, ("F_5", rings.prime_field(5)), ("Q", rings.QQ),
     "ResidueField(label='F_5', ring=PrimeField(p=5))"),
    (SpecSubset, (Z6, frozenset({ZmodPrime(2)}), True), (Z6, frozenset(), False),
     "SpecSubset(ring=ModRing(n=6, factorization=((2, 1), (3, 1))), "
     "points=frozenset({ZmodPrime(p=2)}), cofinite=True)"),
]
IDS = [cls.__name__ for cls, *_ in SAMPLES]


def test_every_record_class_is_sampled():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {cls for cls, *_ in SAMPLES} == set(subclasses(Record))


@pytest.mark.parametrize("cls, fields, other, text", SAMPLES, ids=IDS)
def test_equal_and_hashed_by_class_and_fields(cls, fields, other, text):
    r = cls(*fields)
    assert r == cls(*fields) and not r != cls(*fields)
    assert hash(r) == hash(cls(*fields)) == hash(tuple(fields))
    assert len({r, cls(*fields)}) == 1
    assert r != tuple(fields) and not r == tuple(fields)
    assert tuple(fields) != r and not tuple(fields) == r
    if other is not None:
        assert r != cls(*other) and not r == cls(*other)


def test_equal_fields_of_another_class_are_another_value():
    assert ZMax(5) != ZmodPrime(5) and not ZMax(5) == ZmodPrime(5)
    assert IntEl(3) != ModEl(3)
    zeros = [ZGeneric(), FpxGeneric(), FieldZero(), SuppTop()]
    assert len(set(zeros)) == 4
    for a in zeros:
        for b in zeros:
            assert (a == b) == (type(a) is type(b))
    assert {ZMax(5): "Z"}.get(ZmodPrime(5)) is None


@pytest.mark.parametrize("cls, fields, other, text", SAMPLES, ids=IDS)
def test_records_have_no_order(cls, fields, other, text):
    r = cls(*fields)
    for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(r, cls(*fields))
    with pytest.raises(TypeError):
        sorted([r, cls(*(other or fields))])


@pytest.mark.parametrize("cls, fields, other, text", SAMPLES, ids=IDS)
def test_records_refuse_change(cls, fields, other, text):
    r = cls(*fields)
    for name in r._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert r == cls(*fields)


@pytest.mark.parametrize("cls, fields, other, text", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_text(cls, fields, other, text):
    r = cls(*fields)
    assert repr(r) == str(r) == f"{r}" == text
    assert [getattr(r, name) for name in r._fields] == list(fields)


@pytest.mark.parametrize("cls, fields, other, text", SAMPLES, ids=IDS)
def test_every_record_is_true(cls, fields, other, text):
    assert bool(cls(*fields)) is True


def test_zero_field_records_are_true():
    assert ZGeneric() and FpxGeneric() and FieldZero() and SuppTop()


def test_a_subset_defaults_to_finite():
    E = SpecSubset(Z6, frozenset({ZmodPrime(2)}))
    assert E.cofinite is False
    assert E == sp.explicit(Z6, [ZmodPrime(2)])
    assert sp.whole(rings.ZZ).cofinite is True


@pytest.mark.parametrize("cls, fields, other, text", SAMPLES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, other, text):
    r = cls(*fields)
    for back in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(back) is cls and back == r and repr(back) == text


def test_a_cofinite_subset_survives_pickle():
    E = sp.cofinite(rings.ZZ, [ZMax(2)], with_limit=False)
    back = pickle.loads(pickle.dumps(E))
    assert back == E and sp.subset_str(back) == sp.subset_str(E)
    R = rings.localized(rings.monomial_quotient(F2, 2, {(1, 1)}))
    assert pickle.loads(pickle.dumps(sp.whole(R))) == sp.whole(R)


def test_positional_construction_only():
    # Records are built positionally; the field names are not keywords.
    with pytest.raises(TypeError):
        ZMax(p=5)
    with pytest.raises(TypeError):
        ZMax()
    with pytest.raises(TypeError):
        ZGeneric(1)
