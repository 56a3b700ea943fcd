"""Every rule of every map kind, on a grid of maps.

The grid: the quotient and residue maps at every point of Z/12 and of
the three-axes ring, and at a few points of Z, F_2[x] and Axes(F_2); the
two canonical product maps over the empty set, the whole spectrum, and
explicit and cofinite sets of Z/30, the three-axes ring, Z, F_2[x] and
Axes(F_2); and five diagonal maps.  Each map's printed form, source,
JSON, injectivity, tame primes, their contractions and the lying-over
answer at each minimal prime of the source are shown as text.  The values
were recorded before each map kind owned its rules.
"""

import pytest

from conftest import AXES_F2, F2X, SUPP3
from spectop import jsonio, maps, rings
from spectop import spectrum as sp
from spectop.errors import SpectopError
from spectop.spectrum import FpxGeneric, FpxMax, SuppMin, SuppTop, ZGeneric, ZMax

Z30 = rings.zmod(30)
SUPP3_MINS = [p for p in sp.spec_points(SUPP3) if SUPP3.is_minimal_prime(p)]

# (ring, the points the residue and quotient maps are taken at)
PRIME_MAP_RINGS = {
    "Z12": (rings.zmod(12), sp.spec_points(rings.zmod(12))),
    "Supp3": (SUPP3, sp.spec_points(SUPP3)),
    "Z": (rings.ZZ, [ZGeneric(), ZMax(2)]),
    "F2x": (F2X, [FpxGeneric()]),
    "AxesF2": (AXES_F2, [SuppMin(1), SuppTop()]),
}

# (ring, its index sets other than the empty set and the whole spectrum)
PRODUCT_RINGS = {
    "Z30": (Z30, [sp.explicit(Z30, [sp.ZmodPrime(3)])]),
    "Supp3": (
        SUPP3,
        [
            sp.explicit(SUPP3, SUPP3_MINS),
            sp.explicit(SUPP3, SUPP3_MINS[:2]),
            sp.explicit(SUPP3, [sp.spec_points(SUPP3)[-1]]),
        ],
    ),
    "Z": (
        rings.ZZ,
        [
            sp.explicit(rings.ZZ, [ZMax(3)]),
            sp.explicit(rings.ZZ, [ZGeneric(), ZMax(5)]),
            sp.cofinite(rings.ZZ, [ZMax(2)], True),
            sp.cofinite(rings.ZZ, [ZMax(2)], False),
        ],
    ),
    "F2x": (
        F2X,
        [
            sp.explicit(F2X, [FpxMax((0, 1))]),
            sp.explicit(F2X, [FpxGeneric(), FpxMax((1, 1))]),
            sp.cofinite(F2X, [FpxMax((0, 1))], True),
            sp.cofinite(F2X, [FpxMax((0, 1))], False),
        ],
    ),
    "AxesF2": (
        AXES_F2,
        [
            sp.explicit(AXES_F2, [SuppTop()]),
            sp.explicit(AXES_F2, [SuppMin(1), SuppMin(2)]),
            sp.cofinite(AXES_F2, [SuppMin(1)], True),
            sp.cofinite(AXES_F2, [SuppMin(1)], False),
        ],
    ),
}

DIAGONALS = [(6, (2, 3)), (12, (4, 3)), (12, (2, 3)), (12, ()), (6, (0,))]

# Minimal primes of the symbolic sources that lying over is asked about.
SYMBOLIC_MINIMALS = {
    rings.ZZ: [ZGeneric()],
    F2X: [FpxGeneric()],
    AXES_F2: [SuppMin(1), SuppMin(2), SuppMin(4)],
}


def _grid() -> dict:
    grid = {}
    for name, (R, pts) in PRIME_MAP_RINGS.items():
        for p in pts:
            grid[f"quotient/{name}/{sp.point_str(p)}"] = maps.QuotientMap(R, p)
            grid[f"residue/{name}/{sp.point_str(p)}"] = maps.ResidueMap(R, p)
    for name, (R, sets) in PRODUCT_RINGS.items():
        for E in [sp.empty_set(R), sp.whole(R)] + sets:
            key = f"{name}/{sp.subset_str(E)}"
            grid[f"quotient-product/{key}"] = maps.CanonicalIntoQuotientProduct(E)
            grid[f"local-product/{key}"] = maps.CanonicalIntoLocalProduct(E)
    for n, divisors in DIAGONALS:
        # A map with bad fields is refused when built: its entry is the refusal.
        grid[f"diagonal/{n}/{divisors}"] = _outcome(
            lambda n=n, divisors=divisors: maps.DiagonalIntoModProduct(rings.zmod(n), divisors)
        )
    return grid


def _outcome(fn):
    try:
        return fn()
    except SpectopError as exc:
        return f"raises {type(exc).__name__}"


GRID = _grid()


def _points(pts) -> str:
    return ", ".join(sp.point_str(p) for p in pts)


def _minimals(R) -> list:
    if R.symbolic:
        return SYMBOLIC_MINIMALS[R]
    return [p for p in sp.spec_points(R) if R.is_minimal_prime(p)]


def answers(m) -> dict:
    if isinstance(m, str):
        return {"built": m}
    src = m.source
    tames = _outcome(lambda: maps.tame_points(m))
    out = {
        "str": str(m),
        "source": str(src),
        "json": jsonio.dumps_canonical(jsonio.map_to_json(m)),
        "injective": _outcome(lambda: repr(maps.is_injective(m))),
        "tame": tames if isinstance(tames, str) else _points(tames),
    }
    if not isinstance(tames, str):
        out["contract"] = {
            sp.point_str(q): _outcome(lambda q=q: sp.point_str(maps.contract(m, q)))
            for q in tames
        }
    out["over"] = {
        sp.point_str(p): _outcome(lambda p=p: sp.point_str(maps.laying_over(m, p)))
        for p in _minimals(src)
    }
    return out


# Recorded before each map kind owned its rules.  Four rows differ from
# that recording: the diagonal map with divisor 0, whose injectivity and
# lying over crashed with ZeroDivisionError and whose tame points were an
# empty list (it is now refused when built), and the localization product over {m} on Axes(F_2), {(x)} on
# F_2[x] and {(3)} on Z, whose lying over raised NonEnumerableError
# although the map is injective.
EXPECTED = {'diagonal/12/()': {'str': 'Z/12 -> ',
                    'source': 'Z/12',
                    'json': '{"divisors":[],"n":12,"type":"diagonalIntoModProduct"}',
                    'injective': 'False',
                    'tame': '',
                    'contract': {},
                    'over': {'(2)': 'raises LyingOverNotFoundError',
                             '(3)': 'raises LyingOverNotFoundError'}},
 'diagonal/12/(2, 3)': {'str': 'Z/12 -> Z/2 x Z/3',
                        'source': 'Z/12',
                        'json': '{"divisors":[2,3],"n":12,"type":"diagonalIntoModProduct"}',
                        'injective': 'False',
                        'tame': 'pi_0^-1(2), pi_1^-1(3)',
                        'contract': {'pi_0^-1(2)': '(2)', 'pi_1^-1(3)': '(3)'},
                        'over': {'(2)': 'raises LyingOverNotFoundError',
                                 '(3)': 'raises LyingOverNotFoundError'}},
 'diagonal/12/(4, 3)': {'str': 'Z/12 -> Z/4 x Z/3',
                        'source': 'Z/12',
                        'json': '{"divisors":[4,3],"n":12,"type":"diagonalIntoModProduct"}',
                        'injective': 'True',
                        'tame': 'pi_0^-1(2), pi_1^-1(3)',
                        'contract': {'pi_0^-1(2)': '(2)', 'pi_1^-1(3)': '(3)'},
                        'over': {'(2)': 'pi_0^-1(2)', '(3)': 'pi_1^-1(3)'}},
 'diagonal/6/(0,)': {'built': 'raises KindMismatchError'},
 'diagonal/6/(2, 3)': {'str': 'Z/6 -> Z/2 x Z/3',
                       'source': 'Z/6',
                       'json': '{"divisors":[2,3],"n":6,"type":"diagonalIntoModProduct"}',
                       'injective': 'True',
                       'tame': 'pi_0^-1(2), pi_1^-1(3)',
                       'contract': {'pi_0^-1(2)': '(2)', 'pi_1^-1(3)': '(3)'},
                       'over': {'(2)': 'pi_0^-1(2)', '(3)': 'pi_1^-1(3)'}},
 'local-product/AxesF2/Spec(Axes(F_2))': {'str': 'Axes(F_2) -> prod R_p over Spec(Axes(F_2))',
                                          'source': 'Axes(F_2)',
                                          'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"type":"whole"},"type":"canonicalIntoLocalProduct"}',
                                          'injective': 'True',
                                          'tame': 'raises NonEnumerableError',
                                          'over': {'P_1': 'pi_P_1^-1P_1',
                                                   'P_2': 'pi_P_2^-1P_2',
                                                   'P_4': 'pi_P_4^-1P_4'}},
 'local-product/AxesF2/all minimal primes except P_1, with m': {'str': 'Axes(F_2) -> prod R_p over '
                                                                       'all minimal primes except '
                                                                       'P_1, with m',
                                                                'source': 'Axes(F_2)',
                                                                'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"excluded":[1],"type":"cofiniteMin","withTop":true},"type":"canonicalIntoLocalProduct"}',
                                                                'injective': 'True',
                                                                'tame': 'raises NonEnumerableError',
                                                                'over': {'P_1': 'pi_m^-1P_1',
                                                                         'P_2': 'pi_P_2^-1P_2',
                                                                         'P_4': 'pi_P_4^-1P_4'}},
 'local-product/AxesF2/all minimal primes except P_1, without m': {'str': 'Axes(F_2) -> prod R_p '
                                                                          'over all minimal primes '
                                                                          'except P_1, without m',
                                                                   'source': 'Axes(F_2)',
                                                                   'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"excluded":[1],"type":"cofiniteMin","withTop":false},"type":"canonicalIntoLocalProduct"}',
                                                                   'injective': 'False',
                                                                   'tame': 'raises '
                                                                           'NonEnumerableError',
                                                                   'over': {'P_1': 'raises '
                                                                                   'LyingOverNotFoundError',
                                                                            'P_2': 'raises '
                                                                                   'LyingOverNotFoundError',
                                                                            'P_4': 'raises '
                                                                                   'LyingOverNotFoundError'}},
 'local-product/AxesF2/{P_1, P_2}': {'str': 'Axes(F_2) -> prod R_p over {P_1, P_2}',
                                     'source': 'Axes(F_2)',
                                     'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"points":[{"k":1,"type":"suppMin"},{"k":2,"type":"suppMin"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                                     'injective': 'False',
                                     'tame': 'raises NonEnumerableError',
                                     'over': {'P_1': 'raises LyingOverNotFoundError',
                                              'P_2': 'raises LyingOverNotFoundError',
                                              'P_4': 'raises LyingOverNotFoundError'}},
 'local-product/AxesF2/{m}': {'str': 'Axes(F_2) -> prod R_p over {m}',
                              'source': 'Axes(F_2)',
                              'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"points":[{"type":"suppTop"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                              'injective': 'True',
                              'tame': 'raises NonEnumerableError',
                              'over': {'P_1': 'pi_m^-1P_1',
                                       'P_2': 'pi_m^-1P_2',
                                       'P_4': 'pi_m^-1P_4'}},
 'local-product/AxesF2/{}': {'str': 'Axes(F_2) -> prod R_p over {}',
                             'source': 'Axes(F_2)',
                             'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"type":"empty"},"type":"canonicalIntoLocalProduct"}',
                             'injective': 'False',
                             'tame': 'raises NonEnumerableError',
                             'over': {'P_1': 'raises LyingOverNotFoundError',
                                      'P_2': 'raises LyingOverNotFoundError',
                                      'P_4': 'raises LyingOverNotFoundError'}},
 'local-product/F2x/Spec(F_2[x])': {'str': 'F_2[x] -> prod R_p over Spec(F_2[x])',
                                    'source': 'F_2[x]',
                                    'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"type":"whole"},"type":"canonicalIntoLocalProduct"}',
                                    'injective': 'True',
                                    'tame': 'raises NonEnumerableError',
                                    'over': {'(0)': 'pi_(0)^-1(0)'}},
 'local-product/F2x/all closed points except (x), with (0)': {'str': 'F_2[x] -> prod R_p over all '
                                                                     'closed points except (x), '
                                                                     'with (0)',
                                                              'source': 'F_2[x]',
                                                              'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true},"type":"canonicalIntoLocalProduct"}',
                                                              'injective': 'True',
                                                              'tame': 'raises NonEnumerableError',
                                                              'over': {'(0)': 'pi_(0)^-1(0)'}},
 'local-product/F2x/all closed points except (x), without (0)': {'str': 'F_2[x] -> prod R_p over '
                                                                        'all closed points except '
                                                                        '(x), without (0)',
                                                                 'source': 'F_2[x]',
                                                                 'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":false},"type":"canonicalIntoLocalProduct"}',
                                                                 'injective': 'True',
                                                                 'tame': 'raises '
                                                                         'NonEnumerableError',
                                                                 'over': {'(0)': 'pi_(x + '
                                                                                 '1)^-1(0)'}},
 'local-product/F2x/{(0), (x + 1)}': {'str': 'F_2[x] -> prod R_p over {(0), (x + 1)}',
                                      'source': 'F_2[x]',
                                      'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"points":[{"type":"fpxGeneric"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                                      'injective': 'True',
                                      'tame': 'raises NonEnumerableError',
                                      'over': {'(0)': 'pi_(0)^-1(0)'}},
 'local-product/F2x/{(x)}': {'str': 'F_2[x] -> prod R_p over {(x)}',
                             'source': 'F_2[x]',
                             'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"points":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                             'injective': 'True',
                             'tame': 'raises NonEnumerableError',
                             'over': {'(0)': 'pi_(x)^-1(0)'}},
 'local-product/F2x/{}': {'str': 'F_2[x] -> prod R_p over {}',
                          'source': 'F_2[x]',
                          'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"type":"empty"},"type":"canonicalIntoLocalProduct"}',
                          'injective': 'False',
                          'tame': 'raises NonEnumerableError',
                          'over': {'(0)': 'raises LyingOverNotFoundError'}},
 'local-product/Supp3/{(x1,x2), (x1,x3), (x2,x3), (x1,x2,x3)}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m '
                                                                        '-> prod R_p over '
                                                                        '{(x1,x2), (x1,x3), '
                                                                        '(x2,x3), (x1,x2,x3)}',
                                                                 'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                                                                 'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"points":[{"cover":[1,2],"type":"monoPrime"},{"cover":[1,3],"type":"monoPrime"},{"cover":[2,3],"type":"monoPrime"},{"cover":[1,2,3],"type":"monoPrime"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                                                                 'injective': 'True',
                                                                 'tame': 'pi_0^-1(x1,x2), '
                                                                         'pi_1^-1(x1,x3), '
                                                                         'pi_2^-1(x2,x3), '
                                                                         'pi_3^-1(x1,x2), '
                                                                         'pi_3^-1(x1,x3), '
                                                                         'pi_3^-1(x2,x3), '
                                                                         'pi_3^-1(x1,x2,x3)',
                                                                 'contract': {'pi_0^-1(x1,x2)': '(x1,x2)',
                                                                              'pi_1^-1(x1,x3)': '(x1,x3)',
                                                                              'pi_2^-1(x2,x3)': '(x2,x3)',
                                                                              'pi_3^-1(x1,x2)': '(x1,x2)',
                                                                              'pi_3^-1(x1,x3)': '(x1,x3)',
                                                                              'pi_3^-1(x2,x3)': '(x2,x3)',
                                                                              'pi_3^-1(x1,x2,x3)': '(x1,x2,x3)'},
                                                                 'over': {'(x1,x2)': 'pi_0^-1(x1,x2)',
                                                                          '(x1,x3)': 'pi_1^-1(x1,x3)',
                                                                          '(x2,x3)': 'pi_2^-1(x2,x3)'}},
 'local-product/Supp3/{(x1,x2), (x1,x3), (x2,x3)}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m '
                                                            '-> prod R_p over {(x1,x2), (x1,x3), '
                                                            '(x2,x3)}',
                                                     'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                                                     'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"points":[{"cover":[1,2],"type":"monoPrime"},{"cover":[1,3],"type":"monoPrime"},{"cover":[2,3],"type":"monoPrime"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                                                     'injective': 'True',
                                                     'tame': 'pi_0^-1(x1,x2), pi_1^-1(x1,x3), '
                                                             'pi_2^-1(x2,x3)',
                                                     'contract': {'pi_0^-1(x1,x2)': '(x1,x2)',
                                                                  'pi_1^-1(x1,x3)': '(x1,x3)',
                                                                  'pi_2^-1(x2,x3)': '(x2,x3)'},
                                                     'over': {'(x1,x2)': 'pi_0^-1(x1,x2)',
                                                              '(x1,x3)': 'pi_1^-1(x1,x3)',
                                                              '(x2,x3)': 'pi_2^-1(x2,x3)'}},
 'local-product/Supp3/{(x1,x2), (x1,x3)}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> prod '
                                                   'R_p over {(x1,x2), (x1,x3)}',
                                            'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                                            'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"points":[{"cover":[1,2],"type":"monoPrime"},{"cover":[1,3],"type":"monoPrime"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                                            'injective': 'False',
                                            'tame': 'pi_0^-1(x1,x2), pi_1^-1(x1,x3)',
                                            'contract': {'pi_0^-1(x1,x2)': '(x1,x2)',
                                                         'pi_1^-1(x1,x3)': '(x1,x3)'},
                                            'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                                     '(x1,x3)': 'raises LyingOverNotFoundError',
                                                     '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'local-product/Supp3/{(x1,x2,x3)}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> prod R_p over '
                                             '{(x1,x2,x3)}',
                                      'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                                      'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"points":[{"cover":[1,2,3],"type":"monoPrime"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                                      'injective': 'True',
                                      'tame': 'pi_0^-1(x1,x2), pi_0^-1(x1,x3), pi_0^-1(x2,x3), '
                                              'pi_0^-1(x1,x2,x3)',
                                      'contract': {'pi_0^-1(x1,x2)': '(x1,x2)',
                                                   'pi_0^-1(x1,x3)': '(x1,x3)',
                                                   'pi_0^-1(x2,x3)': '(x2,x3)',
                                                   'pi_0^-1(x1,x2,x3)': '(x1,x2,x3)'},
                                      'over': {'(x1,x2)': 'pi_0^-1(x1,x2)',
                                               '(x1,x3)': 'pi_0^-1(x1,x3)',
                                               '(x2,x3)': 'pi_0^-1(x2,x3)'}},
 'local-product/Supp3/{}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> prod R_p over {}',
                            'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                            'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"type":"empty"},"type":"canonicalIntoLocalProduct"}',
                            'injective': 'False',
                            'tame': '',
                            'contract': {},
                            'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                     '(x1,x3)': 'raises LyingOverNotFoundError',
                                     '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'local-product/Z/Spec(Z)': {'str': 'Z -> prod R_p over Spec(Z)',
                             'source': 'Z',
                             'json': '{"ring":{"kind":"Z"},"set":{"type":"whole"},"type":"canonicalIntoLocalProduct"}',
                             'injective': 'True',
                             'tame': 'raises NonEnumerableError',
                             'over': {'(0)': 'pi_(0)^-1(0)'}},
 'local-product/Z/all closed points except (2), with (0)': {'str': 'Z -> prod R_p over all closed '
                                                                   'points except (2), with (0)',
                                                            'source': 'Z',
                                                            'json': '{"ring":{"kind":"Z"},"set":{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true},"type":"canonicalIntoLocalProduct"}',
                                                            'injective': 'True',
                                                            'tame': 'raises NonEnumerableError',
                                                            'over': {'(0)': 'pi_(0)^-1(0)'}},
 'local-product/Z/all closed points except (2), without (0)': {'str': 'Z -> prod R_p over all '
                                                                      'closed points except (2), '
                                                                      'without (0)',
                                                               'source': 'Z',
                                                               'json': '{"ring":{"kind":"Z"},"set":{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":false},"type":"canonicalIntoLocalProduct"}',
                                                               'injective': 'True',
                                                               'tame': 'raises NonEnumerableError',
                                                               'over': {'(0)': 'pi_(3)^-1(0)'}},
 'local-product/Z/{(0), (5)}': {'str': 'Z -> prod R_p over {(0), (5)}',
                                'source': 'Z',
                                'json': '{"ring":{"kind":"Z"},"set":{"points":[{"type":"zGeneric"},{"p":5,"type":"zMax"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                                'injective': 'True',
                                'tame': 'raises NonEnumerableError',
                                'over': {'(0)': 'pi_(0)^-1(0)'}},
 'local-product/Z/{(3)}': {'str': 'Z -> prod R_p over {(3)}',
                           'source': 'Z',
                           'json': '{"ring":{"kind":"Z"},"set":{"points":[{"p":3,"type":"zMax"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                           'injective': 'True',
                           'tame': 'raises NonEnumerableError',
                           'over': {'(0)': 'pi_(3)^-1(0)'}},
 'local-product/Z/{}': {'str': 'Z -> prod R_p over {}',
                        'source': 'Z',
                        'json': '{"ring":{"kind":"Z"},"set":{"type":"empty"},"type":"canonicalIntoLocalProduct"}',
                        'injective': 'False',
                        'tame': 'raises NonEnumerableError',
                        'over': {'(0)': 'raises LyingOverNotFoundError'}},
 'local-product/Z30/{(2), (3), (5)}': {'str': 'Z/30 -> prod R_p over {(2), (3), (5)}',
                                       'source': 'Z/30',
                                       'json': '{"ring":{"kind":"Zmod","n":30},"set":{"points":[{"p":2,"type":"zmodPrime"},{"p":3,"type":"zmodPrime"},{"p":5,"type":"zmodPrime"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                                       'injective': 'True',
                                       'tame': 'pi_0^-1(2), pi_1^-1(3), pi_2^-1(5)',
                                       'contract': {'pi_0^-1(2)': '(2)',
                                                    'pi_1^-1(3)': '(3)',
                                                    'pi_2^-1(5)': '(5)'},
                                       'over': {'(2)': 'pi_0^-1(2)',
                                                '(3)': 'pi_1^-1(3)',
                                                '(5)': 'pi_2^-1(5)'}},
 'local-product/Z30/{(3)}': {'str': 'Z/30 -> prod R_p over {(3)}',
                             'source': 'Z/30',
                             'json': '{"ring":{"kind":"Zmod","n":30},"set":{"points":[{"p":3,"type":"zmodPrime"}],"type":"explicit"},"type":"canonicalIntoLocalProduct"}',
                             'injective': 'False',
                             'tame': 'pi_0^-1(3)',
                             'contract': {'pi_0^-1(3)': '(3)'},
                             'over': {'(2)': 'raises LyingOverNotFoundError',
                                      '(3)': 'raises LyingOverNotFoundError',
                                      '(5)': 'raises LyingOverNotFoundError'}},
 'local-product/Z30/{}': {'str': 'Z/30 -> prod R_p over {}',
                          'source': 'Z/30',
                          'json': '{"ring":{"kind":"Zmod","n":30},"set":{"type":"empty"},"type":"canonicalIntoLocalProduct"}',
                          'injective': 'False',
                          'tame': '',
                          'contract': {},
                          'over': {'(2)': 'raises LyingOverNotFoundError',
                                   '(3)': 'raises LyingOverNotFoundError',
                                   '(5)': 'raises LyingOverNotFoundError'}},
 'quotient-product/AxesF2/Spec(Axes(F_2))': {'str': 'Axes(F_2) -> prod R/p over Spec(Axes(F_2))',
                                             'source': 'Axes(F_2)',
                                             'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"type":"whole"},"type":"canonicalIntoQuotientProduct"}',
                                             'injective': 'True',
                                             'tame': 'raises NonEnumerableError',
                                             'over': {'P_1': 'pi_P_1^-1P_1',
                                                      'P_2': 'pi_P_2^-1P_2',
                                                      'P_4': 'pi_P_4^-1P_4'}},
 'quotient-product/AxesF2/all minimal primes except P_1, with m': {'str': 'Axes(F_2) -> prod R/p '
                                                                          'over all minimal primes '
                                                                          'except P_1, with m',
                                                                   'source': 'Axes(F_2)',
                                                                   'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"excluded":[1],"type":"cofiniteMin","withTop":true},"type":"canonicalIntoQuotientProduct"}',
                                                                   'injective': 'False',
                                                                   'tame': 'raises '
                                                                           'NonEnumerableError',
                                                                   'over': {'P_1': 'raises '
                                                                                   'LyingOverNotFoundError',
                                                                            'P_2': 'raises '
                                                                                   'LyingOverNotFoundError',
                                                                            'P_4': 'raises '
                                                                                   'LyingOverNotFoundError'}},
 'quotient-product/AxesF2/all minimal primes except P_1, without m': {'str': 'Axes(F_2) -> prod '
                                                                             'R/p over all minimal '
                                                                             'primes except P_1, '
                                                                             'without m',
                                                                      'source': 'Axes(F_2)',
                                                                      'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"excluded":[1],"type":"cofiniteMin","withTop":false},"type":"canonicalIntoQuotientProduct"}',
                                                                      'injective': 'False',
                                                                      'tame': 'raises '
                                                                              'NonEnumerableError',
                                                                      'over': {'P_1': 'raises '
                                                                                      'LyingOverNotFoundError',
                                                                               'P_2': 'raises '
                                                                                      'LyingOverNotFoundError',
                                                                               'P_4': 'raises '
                                                                                      'LyingOverNotFoundError'}},
 'quotient-product/AxesF2/{P_1, P_2}': {'str': 'Axes(F_2) -> prod R/p over {P_1, P_2}',
                                        'source': 'Axes(F_2)',
                                        'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"points":[{"k":1,"type":"suppMin"},{"k":2,"type":"suppMin"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                        'injective': 'False',
                                        'tame': 'raises NonEnumerableError',
                                        'over': {'P_1': 'raises LyingOverNotFoundError',
                                                 'P_2': 'raises LyingOverNotFoundError',
                                                 'P_4': 'raises LyingOverNotFoundError'}},
 'quotient-product/AxesF2/{m}': {'str': 'Axes(F_2) -> prod R/p over {m}',
                                 'source': 'Axes(F_2)',
                                 'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"points":[{"type":"suppTop"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                 'injective': 'False',
                                 'tame': 'raises NonEnumerableError',
                                 'over': {'P_1': 'raises LyingOverNotFoundError',
                                          'P_2': 'raises LyingOverNotFoundError',
                                          'P_4': 'raises LyingOverNotFoundError'}},
 'quotient-product/AxesF2/{}': {'str': 'Axes(F_2) -> prod R/p over {}',
                                'source': 'Axes(F_2)',
                                'json': '{"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"set":{"type":"empty"},"type":"canonicalIntoQuotientProduct"}',
                                'injective': 'False',
                                'tame': 'raises NonEnumerableError',
                                'over': {'P_1': 'raises LyingOverNotFoundError',
                                         'P_2': 'raises LyingOverNotFoundError',
                                         'P_4': 'raises LyingOverNotFoundError'}},
 'quotient-product/F2x/Spec(F_2[x])': {'str': 'F_2[x] -> prod R/p over Spec(F_2[x])',
                                       'source': 'F_2[x]',
                                       'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"type":"whole"},"type":"canonicalIntoQuotientProduct"}',
                                       'injective': 'True',
                                       'tame': 'raises NonEnumerableError',
                                       'over': {'(0)': 'pi_(0)^-1(0)'}},
 'quotient-product/F2x/all closed points except (x), with (0)': {'str': 'F_2[x] -> prod R/p over '
                                                                        'all closed points except '
                                                                        '(x), with (0)',
                                                                 'source': 'F_2[x]',
                                                                 'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true},"type":"canonicalIntoQuotientProduct"}',
                                                                 'injective': 'True',
                                                                 'tame': 'raises '
                                                                         'NonEnumerableError',
                                                                 'over': {'(0)': 'pi_(0)^-1(0)'}},
 'quotient-product/F2x/all closed points except (x), without (0)': {'str': 'F_2[x] -> prod R/p '
                                                                           'over all closed points '
                                                                           'except (x), without '
                                                                           '(0)',
                                                                    'source': 'F_2[x]',
                                                                    'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":false},"type":"canonicalIntoQuotientProduct"}',
                                                                    'injective': 'True',
                                                                    'tame': 'raises '
                                                                            'NonEnumerableError',
                                                                    'over': {'(0)': 'raises '
                                                                                    'NonEnumerableError'}},
 'quotient-product/F2x/{(0), (x + 1)}': {'str': 'F_2[x] -> prod R/p over {(0), (x + 1)}',
                                         'source': 'F_2[x]',
                                         'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"points":[{"type":"fpxGeneric"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                         'injective': 'True',
                                         'tame': 'raises NonEnumerableError',
                                         'over': {'(0)': 'pi_(0)^-1(0)'}},
 'quotient-product/F2x/{(x)}': {'str': 'F_2[x] -> prod R/p over {(x)}',
                                'source': 'F_2[x]',
                                'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"points":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                'injective': 'False',
                                'tame': 'raises NonEnumerableError',
                                'over': {'(0)': 'raises LyingOverNotFoundError'}},
 'quotient-product/F2x/{}': {'str': 'F_2[x] -> prod R/p over {}',
                             'source': 'F_2[x]',
                             'json': '{"ring":{"kind":"FpPoly","p":2},"set":{"type":"empty"},"type":"canonicalIntoQuotientProduct"}',
                             'injective': 'False',
                             'tame': 'raises NonEnumerableError',
                             'over': {'(0)': 'raises LyingOverNotFoundError'}},
 'quotient-product/Supp3/{(x1,x2), (x1,x3), (x2,x3), (x1,x2,x3)}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m '
                                                                           '-> prod R/p over '
                                                                           '{(x1,x2), (x1,x3), '
                                                                           '(x2,x3), (x1,x2,x3)}',
                                                                    'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                                                                    'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"points":[{"cover":[1,2],"type":"monoPrime"},{"cover":[1,3],"type":"monoPrime"},{"cover":[2,3],"type":"monoPrime"},{"cover":[1,2,3],"type":"monoPrime"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                                                    'injective': 'True',
                                                                    'tame': 'pi_0^-1(x1,x2), '
                                                                            'pi_0^-1(x1,x2,x3), '
                                                                            'pi_1^-1(x1,x3), '
                                                                            'pi_1^-1(x1,x2,x3), '
                                                                            'pi_2^-1(x2,x3), '
                                                                            'pi_2^-1(x1,x2,x3), '
                                                                            'pi_3^-1(x1,x2,x3)',
                                                                    'contract': {'pi_0^-1(x1,x2)': '(x1,x2)',
                                                                                 'pi_0^-1(x1,x2,x3)': '(x1,x2,x3)',
                                                                                 'pi_1^-1(x1,x3)': '(x1,x3)',
                                                                                 'pi_1^-1(x1,x2,x3)': '(x1,x2,x3)',
                                                                                 'pi_2^-1(x2,x3)': '(x2,x3)',
                                                                                 'pi_2^-1(x1,x2,x3)': '(x1,x2,x3)',
                                                                                 'pi_3^-1(x1,x2,x3)': '(x1,x2,x3)'},
                                                                    'over': {'(x1,x2)': 'pi_0^-1(x1,x2)',
                                                                             '(x1,x3)': 'pi_1^-1(x1,x3)',
                                                                             '(x2,x3)': 'pi_2^-1(x2,x3)'}},
 'quotient-product/Supp3/{(x1,x2), (x1,x3), (x2,x3)}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m '
                                                               '-> prod R/p over {(x1,x2), '
                                                               '(x1,x3), (x2,x3)}',
                                                        'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                                                        'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"points":[{"cover":[1,2],"type":"monoPrime"},{"cover":[1,3],"type":"monoPrime"},{"cover":[2,3],"type":"monoPrime"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                                        'injective': 'True',
                                                        'tame': 'pi_0^-1(x1,x2), '
                                                                'pi_0^-1(x1,x2,x3), '
                                                                'pi_1^-1(x1,x3), '
                                                                'pi_1^-1(x1,x2,x3), '
                                                                'pi_2^-1(x2,x3), pi_2^-1(x1,x2,x3)',
                                                        'contract': {'pi_0^-1(x1,x2)': '(x1,x2)',
                                                                     'pi_0^-1(x1,x2,x3)': '(x1,x2,x3)',
                                                                     'pi_1^-1(x1,x3)': '(x1,x3)',
                                                                     'pi_1^-1(x1,x2,x3)': '(x1,x2,x3)',
                                                                     'pi_2^-1(x2,x3)': '(x2,x3)',
                                                                     'pi_2^-1(x1,x2,x3)': '(x1,x2,x3)'},
                                                        'over': {'(x1,x2)': 'pi_0^-1(x1,x2)',
                                                                 '(x1,x3)': 'pi_1^-1(x1,x3)',
                                                                 '(x2,x3)': 'pi_2^-1(x2,x3)'}},
 'quotient-product/Supp3/{(x1,x2), (x1,x3)}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> prod '
                                                      'R/p over {(x1,x2), (x1,x3)}',
                                               'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                                               'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"points":[{"cover":[1,2],"type":"monoPrime"},{"cover":[1,3],"type":"monoPrime"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                               'injective': 'False',
                                               'tame': 'pi_0^-1(x1,x2), pi_0^-1(x1,x2,x3), '
                                                       'pi_1^-1(x1,x3), pi_1^-1(x1,x2,x3)',
                                               'contract': {'pi_0^-1(x1,x2)': '(x1,x2)',
                                                            'pi_0^-1(x1,x2,x3)': '(x1,x2,x3)',
                                                            'pi_1^-1(x1,x3)': '(x1,x3)',
                                                            'pi_1^-1(x1,x2,x3)': '(x1,x2,x3)'},
                                               'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                                        '(x1,x3)': 'raises LyingOverNotFoundError',
                                                        '(x2,x3)': 'raises '
                                                                   'LyingOverNotFoundError'}},
 'quotient-product/Supp3/{(x1,x2,x3)}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> prod R/p '
                                                'over {(x1,x2,x3)}',
                                         'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                                         'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"points":[{"cover":[1,2,3],"type":"monoPrime"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                         'injective': 'False',
                                         'tame': 'pi_0^-1(x1,x2,x3)',
                                         'contract': {'pi_0^-1(x1,x2,x3)': '(x1,x2,x3)'},
                                         'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                                  '(x1,x3)': 'raises LyingOverNotFoundError',
                                                  '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'quotient-product/Supp3/{}': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> prod R/p over {}',
                               'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                               'json': '{"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"set":{"type":"empty"},"type":"canonicalIntoQuotientProduct"}',
                               'injective': 'False',
                               'tame': '',
                               'contract': {},
                               'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                        '(x1,x3)': 'raises LyingOverNotFoundError',
                                        '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'quotient-product/Z/Spec(Z)': {'str': 'Z -> prod R/p over Spec(Z)',
                                'source': 'Z',
                                'json': '{"ring":{"kind":"Z"},"set":{"type":"whole"},"type":"canonicalIntoQuotientProduct"}',
                                'injective': 'True',
                                'tame': 'raises NonEnumerableError',
                                'over': {'(0)': 'pi_(0)^-1(0)'}},
 'quotient-product/Z/all closed points except (2), with (0)': {'str': 'Z -> prod R/p over all '
                                                                      'closed points except (2), '
                                                                      'with (0)',
                                                               'source': 'Z',
                                                               'json': '{"ring":{"kind":"Z"},"set":{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true},"type":"canonicalIntoQuotientProduct"}',
                                                               'injective': 'True',
                                                               'tame': 'raises NonEnumerableError',
                                                               'over': {'(0)': 'pi_(0)^-1(0)'}},
 'quotient-product/Z/all closed points except (2), without (0)': {'str': 'Z -> prod R/p over all '
                                                                         'closed points except '
                                                                         '(2), without (0)',
                                                                  'source': 'Z',
                                                                  'json': '{"ring":{"kind":"Z"},"set":{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":false},"type":"canonicalIntoQuotientProduct"}',
                                                                  'injective': 'True',
                                                                  'tame': 'raises '
                                                                          'NonEnumerableError',
                                                                  'over': {'(0)': 'raises '
                                                                                  'NonEnumerableError'}},
 'quotient-product/Z/{(0), (5)}': {'str': 'Z -> prod R/p over {(0), (5)}',
                                   'source': 'Z',
                                   'json': '{"ring":{"kind":"Z"},"set":{"points":[{"type":"zGeneric"},{"p":5,"type":"zMax"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                   'injective': 'True',
                                   'tame': 'raises NonEnumerableError',
                                   'over': {'(0)': 'pi_(0)^-1(0)'}},
 'quotient-product/Z/{(3)}': {'str': 'Z -> prod R/p over {(3)}',
                              'source': 'Z',
                              'json': '{"ring":{"kind":"Z"},"set":{"points":[{"p":3,"type":"zMax"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                              'injective': 'False',
                              'tame': 'raises NonEnumerableError',
                              'over': {'(0)': 'raises LyingOverNotFoundError'}},
 'quotient-product/Z/{}': {'str': 'Z -> prod R/p over {}',
                           'source': 'Z',
                           'json': '{"ring":{"kind":"Z"},"set":{"type":"empty"},"type":"canonicalIntoQuotientProduct"}',
                           'injective': 'False',
                           'tame': 'raises NonEnumerableError',
                           'over': {'(0)': 'raises LyingOverNotFoundError'}},
 'quotient-product/Z30/{(2), (3), (5)}': {'str': 'Z/30 -> prod R/p over {(2), (3), (5)}',
                                          'source': 'Z/30',
                                          'json': '{"ring":{"kind":"Zmod","n":30},"set":{"points":[{"p":2,"type":"zmodPrime"},{"p":3,"type":"zmodPrime"},{"p":5,"type":"zmodPrime"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                          'injective': 'True',
                                          'tame': 'pi_0^-1(2), pi_1^-1(3), pi_2^-1(5)',
                                          'contract': {'pi_0^-1(2)': '(2)',
                                                       'pi_1^-1(3)': '(3)',
                                                       'pi_2^-1(5)': '(5)'},
                                          'over': {'(2)': 'pi_0^-1(2)',
                                                   '(3)': 'pi_1^-1(3)',
                                                   '(5)': 'pi_2^-1(5)'}},
 'quotient-product/Z30/{(3)}': {'str': 'Z/30 -> prod R/p over {(3)}',
                                'source': 'Z/30',
                                'json': '{"ring":{"kind":"Zmod","n":30},"set":{"points":[{"p":3,"type":"zmodPrime"}],"type":"explicit"},"type":"canonicalIntoQuotientProduct"}',
                                'injective': 'False',
                                'tame': 'pi_0^-1(3)',
                                'contract': {'pi_0^-1(3)': '(3)'},
                                'over': {'(2)': 'raises LyingOverNotFoundError',
                                         '(3)': 'raises LyingOverNotFoundError',
                                         '(5)': 'raises LyingOverNotFoundError'}},
 'quotient-product/Z30/{}': {'str': 'Z/30 -> prod R/p over {}',
                             'source': 'Z/30',
                             'json': '{"ring":{"kind":"Zmod","n":30},"set":{"type":"empty"},"type":"canonicalIntoQuotientProduct"}',
                             'injective': 'False',
                             'tame': '',
                             'contract': {},
                             'over': {'(2)': 'raises LyingOverNotFoundError',
                                      '(3)': 'raises LyingOverNotFoundError',
                                      '(5)': 'raises LyingOverNotFoundError'}},
 'quotient/AxesF2/P_1': {'str': 'Axes(F_2) -> Axes(F_2)/P_1',
                         'source': 'Axes(F_2)',
                         'json': '{"prime":{"k":1,"type":"suppMin"},"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"type":"quotientMap"}',
                         'injective': 'False',
                         'tame': 'raises NonEnumerableError',
                         'over': {'P_1': 'raises LyingOverNotFoundError',
                                  'P_2': 'raises LyingOverNotFoundError',
                                  'P_4': 'raises LyingOverNotFoundError'}},
 'quotient/AxesF2/m': {'str': 'Axes(F_2) -> Axes(F_2)/m',
                       'source': 'Axes(F_2)',
                       'json': '{"prime":{"type":"suppTop"},"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"type":"quotientMap"}',
                       'injective': 'False',
                       'tame': 'raises NonEnumerableError',
                       'over': {'P_1': 'raises LyingOverNotFoundError',
                                'P_2': 'raises LyingOverNotFoundError',
                                'P_4': 'raises LyingOverNotFoundError'}},
 'quotient/F2x/(0)': {'str': 'F_2[x] -> F_2[x]/(0)',
                      'source': 'F_2[x]',
                      'json': '{"prime":{"type":"fpxGeneric"},"ring":{"kind":"FpPoly","p":2},"type":"quotientMap"}',
                      'injective': 'True',
                      'tame': 'raises NonEnumerableError',
                      'over': {'(0)': '(0)'}},
 'quotient/Supp3/(x1,x2)': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> '
                                   '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m/(x1,x2)',
                            'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                            'json': '{"prime":{"cover":[1,2],"type":"monoPrime"},"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"type":"quotientMap"}',
                            'injective': 'False',
                            'tame': '(x1,x2), (x1,x2,x3)',
                            'contract': {'(x1,x2)': '(x1,x2)', '(x1,x2,x3)': '(x1,x2,x3)'},
                            'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                     '(x1,x3)': 'raises LyingOverNotFoundError',
                                     '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'quotient/Supp3/(x1,x2,x3)': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> '
                                      '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m/(x1,x2,x3)',
                               'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                               'json': '{"prime":{"cover":[1,2,3],"type":"monoPrime"},"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"type":"quotientMap"}',
                               'injective': 'False',
                               'tame': '(x1,x2,x3)',
                               'contract': {'(x1,x2,x3)': '(x1,x2,x3)'},
                               'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                        '(x1,x3)': 'raises LyingOverNotFoundError',
                                        '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'quotient/Supp3/(x1,x3)': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> '
                                   '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m/(x1,x3)',
                            'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                            'json': '{"prime":{"cover":[1,3],"type":"monoPrime"},"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"type":"quotientMap"}',
                            'injective': 'False',
                            'tame': '(x1,x3), (x1,x2,x3)',
                            'contract': {'(x1,x3)': '(x1,x3)', '(x1,x2,x3)': '(x1,x2,x3)'},
                            'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                     '(x1,x3)': 'raises LyingOverNotFoundError',
                                     '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'quotient/Supp3/(x2,x3)': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> '
                                   '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m/(x2,x3)',
                            'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                            'json': '{"prime":{"cover":[2,3],"type":"monoPrime"},"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"type":"quotientMap"}',
                            'injective': 'False',
                            'tame': '(x2,x3), (x1,x2,x3)',
                            'contract': {'(x2,x3)': '(x2,x3)', '(x1,x2,x3)': '(x1,x2,x3)'},
                            'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                     '(x1,x3)': 'raises LyingOverNotFoundError',
                                     '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'quotient/Z/(0)': {'str': 'Z -> Z/(0)',
                    'source': 'Z',
                    'json': '{"prime":{"type":"zGeneric"},"ring":{"kind":"Z"},"type":"quotientMap"}',
                    'injective': 'True',
                    'tame': 'raises NonEnumerableError',
                    'over': {'(0)': '(0)'}},
 'quotient/Z/(2)': {'str': 'Z -> Z/(2)',
                    'source': 'Z',
                    'json': '{"prime":{"p":2,"type":"zMax"},"ring":{"kind":"Z"},"type":"quotientMap"}',
                    'injective': 'False',
                    'tame': 'raises NonEnumerableError',
                    'over': {'(0)': 'raises LyingOverNotFoundError'}},
 'quotient/Z12/(2)': {'str': 'Z/12 -> Z/12/(2)',
                      'source': 'Z/12',
                      'json': '{"prime":{"p":2,"type":"zmodPrime"},"ring":{"kind":"Zmod","n":12},"type":"quotientMap"}',
                      'injective': 'False',
                      'tame': '(2)',
                      'contract': {'(2)': '(2)'},
                      'over': {'(2)': 'raises LyingOverNotFoundError',
                               '(3)': 'raises LyingOverNotFoundError'}},
 'quotient/Z12/(3)': {'str': 'Z/12 -> Z/12/(3)',
                      'source': 'Z/12',
                      'json': '{"prime":{"p":3,"type":"zmodPrime"},"ring":{"kind":"Zmod","n":12},"type":"quotientMap"}',
                      'injective': 'False',
                      'tame': '(3)',
                      'contract': {'(3)': '(3)'},
                      'over': {'(2)': 'raises LyingOverNotFoundError',
                               '(3)': 'raises LyingOverNotFoundError'}},
 'residue/AxesF2/P_1': {'str': 'Axes(F_2) -> k(P_1)',
                        'source': 'Axes(F_2)',
                        'json': '{"prime":{"k":1,"type":"suppMin"},"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"type":"residueMap"}',
                        'injective': 'False',
                        'tame': '(0)',
                        'contract': {'(0)': 'P_1'},
                        'over': {'P_1': 'raises LyingOverNotFoundError',
                                 'P_2': 'raises LyingOverNotFoundError',
                                 'P_4': 'raises LyingOverNotFoundError'}},
 'residue/AxesF2/m': {'str': 'Axes(F_2) -> k(m)',
                      'source': 'Axes(F_2)',
                      'json': '{"prime":{"type":"suppTop"},"ring":{"field":{"kind":"Fp","p":2},"kind":"SymbolicSupplement"},"type":"residueMap"}',
                      'injective': 'False',
                      'tame': '(0)',
                      'contract': {'(0)': 'm'},
                      'over': {'P_1': 'raises LyingOverNotFoundError',
                               'P_2': 'raises LyingOverNotFoundError',
                               'P_4': 'raises LyingOverNotFoundError'}},
 'residue/F2x/(0)': {'str': 'F_2[x] -> k((0))',
                     'source': 'F_2[x]',
                     'json': '{"prime":{"type":"fpxGeneric"},"ring":{"kind":"FpPoly","p":2},"type":"residueMap"}',
                     'injective': 'True',
                     'tame': '(0)',
                     'contract': {'(0)': '(0)'},
                     'over': {'(0)': '(0)'}},
 'residue/Supp3/(x1,x2)': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> k((x1,x2))',
                           'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                           'json': '{"prime":{"cover":[1,2],"type":"monoPrime"},"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"type":"residueMap"}',
                           'injective': 'False',
                           'tame': '(0)',
                           'contract': {'(0)': '(x1,x2)'},
                           'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                    '(x1,x3)': 'raises LyingOverNotFoundError',
                                    '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'residue/Supp3/(x1,x2,x3)': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> k((x1,x2,x3))',
                              'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                              'json': '{"prime":{"cover":[1,2,3],"type":"monoPrime"},"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"type":"residueMap"}',
                              'injective': 'False',
                              'tame': '(0)',
                              'contract': {'(0)': '(x1,x2,x3)'},
                              'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                       '(x1,x3)': 'raises LyingOverNotFoundError',
                                       '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'residue/Supp3/(x1,x3)': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> k((x1,x3))',
                           'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                           'json': '{"prime":{"cover":[1,3],"type":"monoPrime"},"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"type":"residueMap"}',
                           'injective': 'False',
                           'tame': '(0)',
                           'contract': {'(0)': '(x1,x3)'},
                           'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                    '(x1,x3)': 'raises LyingOverNotFoundError',
                                    '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'residue/Supp3/(x2,x3)': {'str': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m -> k((x2,x3))',
                           'source': '(F_2[x1..x3]/(x2*x3,x1*x3,x1*x2))_m',
                           'json': '{"prime":{"cover":[2,3],"type":"monoPrime"},"ring":{"inner":{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"},"type":"residueMap"}',
                           'injective': 'False',
                           'tame': '(0)',
                           'contract': {'(0)': '(x2,x3)'},
                           'over': {'(x1,x2)': 'raises LyingOverNotFoundError',
                                    '(x1,x3)': 'raises LyingOverNotFoundError',
                                    '(x2,x3)': 'raises LyingOverNotFoundError'}},
 'residue/Z/(0)': {'str': 'Z -> k((0))',
                   'source': 'Z',
                   'json': '{"prime":{"type":"zGeneric"},"ring":{"kind":"Z"},"type":"residueMap"}',
                   'injective': 'True',
                   'tame': '(0)',
                   'contract': {'(0)': '(0)'},
                   'over': {'(0)': '(0)'}},
 'residue/Z/(2)': {'str': 'Z -> k((2))',
                   'source': 'Z',
                   'json': '{"prime":{"p":2,"type":"zMax"},"ring":{"kind":"Z"},"type":"residueMap"}',
                   'injective': 'False',
                   'tame': '(0)',
                   'contract': {'(0)': '(2)'},
                   'over': {'(0)': 'raises LyingOverNotFoundError'}},
 'residue/Z12/(2)': {'str': 'Z/12 -> k((2))',
                     'source': 'Z/12',
                     'json': '{"prime":{"p":2,"type":"zmodPrime"},"ring":{"kind":"Zmod","n":12},"type":"residueMap"}',
                     'injective': 'False',
                     'tame': '(0)',
                     'contract': {'(0)': '(2)'},
                     'over': {'(2)': 'raises LyingOverNotFoundError',
                              '(3)': 'raises LyingOverNotFoundError'}},
 'residue/Z12/(3)': {'str': 'Z/12 -> k((3))',
                     'source': 'Z/12',
                     'json': '{"prime":{"p":3,"type":"zmodPrime"},"ring":{"kind":"Zmod","n":12},"type":"residueMap"}',
                     'injective': 'False',
                     'tame': '(0)',
                     'contract': {'(0)': '(3)'},
                     'over': {'(2)': 'raises LyingOverNotFoundError',
                              '(3)': 'raises LyingOverNotFoundError'}}}


def test_grid_covers_every_map_kind():
    kinds = {type(m) for m in GRID.values() if not isinstance(m, str)}
    assert len(kinds) == 5
    assert set(GRID) == set(EXPECTED)


@pytest.mark.parametrize("key", sorted(GRID))
def test_map_grid(key):
    assert answers(GRID[key]) == EXPECTED[key]
