"""The value records: points, elements, ideals, residue fields, subsets,
rings, maps and reports compare, hash, print and refuse change as the
frozen dataclasses they replaced did."""

import copy
import pickle
from fractions import Fraction

import pytest

from conftest import F2
from spectop import cli, construction, jsonio, maps, products, rings, suites
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import KindMismatchError
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
F2X1 = rings.monomial_quotient(F2, 2, {(1, 1)})
F2X2 = rings.monomial_quotient(F2, 3, {(1, 1)})
E2 = sp.explicit(Z6, [ZmodPrime(2)])
E3 = sp.explicit(Z6, [ZmodPrime(3)])
Z6_TEXT = "ModRing(n=6, factorization=((2, 1), (3, 1)))"
E2_TEXT = f"SpecSubset(ring={Z6_TEXT}, points=frozenset({{ZmodPrime(p=2)}}), cofinite=False)"
F2X1_TEXT = "MonomialQuotient(field=PrimeField(p=2), nvars=2, gens=frozenset({3}))"
MINS = (MonoPrime(frozenset({1})), MonoPrime(frozenset({2})))
REPRO = "spectop verify demo --seed 7"
CODEC = jsonio._Codec(str, int)

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
    (rings.IntegerRing, (), None, "IntegerRing()"),
    (rings.RationalField, (), None, "RationalField()"),
    (rings.ModRing, (6, ((2, 1), (3, 1))), (4, ((2, 2),)), Z6_TEXT),
    (rings.PrimeField, (5,), (7,), "PrimeField(p=5)"),
    (rings.PolyRingOverPrimeField, (3,), (2,), "PolyRingOverPrimeField(p=3)"),
    (rings.MonomialQuotient, (F2, 2, frozenset({3})), (F2, 3, frozenset({3})), F2X1_TEXT),
    (rings.LocalizedAtIrrelevant, (F2, 2, frozenset({3})), (F2, 3, frozenset({3})),
     "LocalizedAtIrrelevant(field=PrimeField(p=2), nvars=2, gens=frozenset({3}))"),
    (rings.SymbolicSupplement, (F2,), (rings.QQ,), "SymbolicSupplement(field=PrimeField(p=2))"),
    (rings.Product, ((Z6, F2),), ((F2, Z6),), f"Product(factors=({Z6_TEXT}, PrimeField(p=2)))"),
    (maps.QuotientMap, (Z6, ZmodPrime(2)), (Z6, ZmodPrime(3)),
     f"QuotientMap(ring={Z6_TEXT}, prime=ZmodPrime(p=2))"),
    (maps.ResidueMap, (Z6, ZmodPrime(2)), (Z6, ZmodPrime(3)),
     f"ResidueMap(ring={Z6_TEXT}, prime=ZmodPrime(p=2))"),
    (maps.CanonicalIntoQuotientProduct, (E2,), (E3,),
     f"CanonicalIntoQuotientProduct(subset={E2_TEXT})"),
    (maps.CanonicalIntoLocalProduct, (E2,), (E3,), f"CanonicalIntoLocalProduct(subset={E2_TEXT})"),
    (maps.DiagonalIntoModProduct, (6, (2, 3)), (6, (6,)), "DiagonalIntoModProduct(n=6, divisors=(2, 3))"),
    (top.DensityCertificate, (True, "zariski", None, "FactorizationFinite"),
     (False, "flat", IntEl(2), "CounterexampleElement"),
     "DensityCertificate(holds=True, mode='zariski', witness=None, rationale='FactorizationFinite')"),
    (products.ImageReport, (E2, E2, "zariski", False, None), (E2, E3, "flat", True, ZmodPrime(3)),
     f"ImageReport(image={E2_TEXT}, closure={E2_TEXT}, topology='zariski', strict=False, "
     "witness=None)"),
    (construction.SupplementReport, (2, "F_2", False, True, MINS, 1, True, True),
     (3, "Q", False, True, MINS, 1, True, False),
     "SupplementReport(n=2, field='F_2', degenerate=False, intersection_ok=True, "
     "minimal_primes=(MonoPrime(cover=frozenset({1})), MonoPrime(cover=frozenset({2}))), "
     "dim=1, reduced=True, pz_ok=True)"),
    (suites.SuiteCase, ("001", "input", "True", "False", False, REPRO),
     ("001", "input", "True", "True", True, None),
     f"SuiteCase(id='001', input='input', expected='True', actual='False', passed=False, "
     f"repro='{REPRO}')"),
    (suites.SuiteResult, ("demo", 7, {}, [], []), ("demo", 8, {}, [], []),
     "SuiteResult(suite='demo', seed=7, params={}, cases=[], notes=[])"),
    (cli._Opt, ("--n", "n", "int", (), True, None, "the number of axes", True),
     ("--seed", "seed", "int", (), False, 0, "", True),
     "_Opt(flag='--n', dest='n', kind='int', choices=(), required=True, default=None, "
     "help='the number of axes', const=True)"),
    (cli._Command, (len, "count", (), ()), (len, "other", (), ()),
     "_Command(fn=<built-in function len>, help='count', positionals=(), options=())"),
    (jsonio._Codec, (str, int), (int, str), "_Codec(enc=<class 'str'>, dec=<class 'int'>)"),
    (jsonio._Field, ("p", CODEC, None, 0), ("q", CODEC, "p", 0),
     f"_Field(key='p', codec={CODEC!r}, attr=None, default=0)"),
    (jsonio._Row, (ZMax, "zMax", (), ZMax, None, False), (ZMax, "zMax", (), ZMax, None, True),
     "_Row(cls=<class 'spectop.values.ZMax'>, tag='zMax', fields=(), "
     "build=<class 'spectop.values.ZMax'>, when=None, bounded=False)"),
]
IDS = [cls.__name__ for cls, *_ in SAMPLES]


# The bases the ring families and map kinds share: never built themselves.
ABSTRACT = {
    rings.RingExpr, rings._Residue, rings._ZeroDimensional, rings._Domain, rings._Field,
    rings._Symbolic, rings._Dedekind, rings._Monomial, rings._Quotient,
    maps.RingMapSpec, maps._PrimeMap, maps._ProductMap,
}


def test_every_record_class_is_sampled():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    every = set(subclasses(Record))
    assert ABSTRACT <= every
    assert {cls for cls, *_ in SAMPLES} == every - ABSTRACT


@pytest.mark.parametrize("cls, fields, other, text", SAMPLES, ids=IDS)
def test_equal_and_hashed_by_class_and_fields(cls, fields, other, text):
    # The hash is the tuple of the fields, as a frozen dataclass's was, so
    # sets and dicts of records iterate in the same order as before.
    r = cls(*fields)
    assert r == cls(*fields) and not r != cls(*fields)
    try:
        value = hash(tuple(fields))
    except TypeError:  # a suite result holds lists, and has no hash
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(cls(*fields)) == value
        assert len({r, cls(*fields)}) == 1
    assert r != tuple(fields) and not r == tuple(fields)
    assert tuple(fields) != r and not tuple(fields) == r
    if other is not None:
        assert r != cls(*other) and not r == cls(*other)


def test_equal_fields_of_another_class_are_another_value():
    assert ZMax(5) != ZmodPrime(5) and not ZMax(5) == ZmodPrime(5)
    # The two prime maps share their fields, and R -> R/p is not R -> k(p).
    assert maps.QuotientMap(Z6, ZmodPrime(2)) != maps.ResidueMap(Z6, ZmodPrime(2))
    assert rings.IntegerRing() != rings.RationalField()
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


def test_a_field_assignment_is_refused():
    # A ring keeps a __dict__ for its tables, yet no field or other name
    # can be assigned.
    R = rings.zmod(6)
    sp.spec_points(R)
    for name, value in (("n", 7), ("_spectrum_table", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(R, name, value)
    assert R.n == 6 and R == rings.zmod(6) and len(sp.spec_points(R)) == 2


@pytest.mark.parametrize("cls, fields, other, text", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_text(cls, fields, other, text):
    r = cls(*fields)
    assert repr(r) == text
    if cls.__str__ is Record.__str__:  # rings and maps print themselves
        assert str(r) == f"{r}" == text
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


def test_a_ring_with_filled_tables_survives_pickle():
    R = rings.localized(rings.monomial_quotient(F2, 2, {(1, 1)}))
    pts = sp.spec_points(R)
    R.reach(frozenset(pts[:1]), True)
    assert {"_spectrum_table", "_order_table"} <= vars(R).keys()
    for back in (pickle.loads(pickle.dumps(R)), copy.deepcopy(R)):
        assert back == R and hash(back) == hash(R)
        assert vars(back).keys() == vars(R).keys() and sp.spec_points(back) == pts


def test_the_diagonal_bound_survives_pickle():
    m = maps.DiagonalIntoModProduct(6, (2, 3), limit=None)
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back.limit is None


def test_constructors_take_exactly_the_fields():
    with pytest.raises(TypeError):
        ZGeneric(1)
    with pytest.raises(TypeError):
        rings.IntegerRing(1)
    with pytest.raises(TypeError):
        top.DensityCertificate(True, "zariski", None)
    with pytest.raises(TypeError):
        construction.SupplementReport(n=2)
    # A subclass that declares no fields keeps its parent's constructor,
    # checks included.
    assert maps.QuotientMap._fields == maps.ResidueMap._fields == ("ring", "prime")
    with pytest.raises(KindMismatchError):
        maps.QuotientMap(Z6, ZmodPrime(5))


def test_a_cofinite_subset_survives_pickle():
    E = sp.cofinite(rings.ZZ, [ZMax(2)], with_limit=False)
    back = pickle.loads(pickle.dumps(E))
    assert back == E and sp.subset_str(back) == sp.subset_str(E)
    R = rings.localized(rings.monomial_quotient(F2, 2, {(1, 1)}))
    assert pickle.loads(pickle.dumps(sp.whole(R))) == sp.whole(R)


def test_the_command_table_records_fill_in_their_defaults():
    assert cli._Opt("--x", "x") == cli._Opt("--x", "x", "value", (), False, None, "", True)
    assert cli._Opt("--x", "x", help="h", const=None).help == "h"
    assert jsonio._Field("k", CODEC) == jsonio._Field("k", CODEC, None, jsonio._REQUIRED)


def test_positional_construction_only():
    # Records are built positionally; the field names are not keywords.
    with pytest.raises(TypeError):
        ZMax(p=5)
    with pytest.raises(TypeError):
        ZMax()
    with pytest.raises(TypeError):
        ZGeneric(1)
