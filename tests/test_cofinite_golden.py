"""Every operator with a cofinite rule, on a grid of cofinite sets.

The grid: over Z, F_2[x], Axes(F_2) and Axes(Q), the sets with 0, 1 and
2 excluded points, each with and without the limit point (the generic
point, or the top of the axes ring).  Each operator's answer is shown as
its printed form and its JSON; the values were recorded before the two
cofinite representations became one.
"""

import pytest

from conftest import AXES_F2, AXES_Q, F2X
from spectop import construction, jsonio, maps, products, rings
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import SpectopError
from spectop.spectrum import FpxMax, SuppMin, ZMax

# (ring, the two points that get excluded)
RINGS = {
    "Z": (rings.ZZ, (ZMax(2), ZMax(3))),
    "F2x": (F2X, (FpxMax((0, 1)), FpxMax((1, 1)))),
    "AxesF2": (AXES_F2, (SuppMin(1), SuppMin(2))),
    "AxesQ": (AXES_Q, (SuppMin(1), SuppMin(2))),
}


def _show(x) -> str:
    if isinstance(x, bool):
        return repr(x)
    return sp.subset_str(x) + " | " + jsonio.dumps_canonical(jsonio.subset_to_json(x))


def _outcome(fn) -> str:
    try:
        return _show(fn())
    except SpectopError as exc:
        return f"raises {type(exc).__name__}"


def answers(R, pts, n: int, with_limit: bool) -> dict[str, str]:
    E = sp.cofinite(R, pts[:n], with_limit)
    limit = R.limit
    F = sp.explicit(R, {limit, pts[0]})
    ops = {
        "set": lambda: E,
        "zariski": lambda: top.zariski_closure(E),
        "flat": lambda: top.flat_closure(E),
        "patch": lambda: top.patch_closure(E),
        "stable_up": lambda: top.is_stable(E, top.SPECIALIZATION),
        "stable_down": lambda: top.is_stable(E, top.GENERALIZATION),
        "quotient_image": lambda: products.quotient_product_image(E),
        "local_image": lambda: products.local_product_image(E),
        "residue_image": lambda: maps.residue_product_image(E),
        "complement": lambda: sp.subset_complement(E),
        "union": lambda: sp.subset_union(E, F),
        "intersect": lambda: sp.subset_intersect(E, F),
        "quotient_injective": lambda: maps.is_injective(
            maps.CanonicalIntoQuotientProduct(E)
        ),
        "local_injective": lambda: maps.is_injective(maps.CanonicalIntoLocalProduct(E)),
        "up": lambda: top.order_closure(E, up=True),
        "down": lambda: top.order_closure(E, up=False),
        "absorbance": lambda: construction.absorbance_holds(E),
        "avoidance": lambda: construction.avoidance_holds(E),
    }
    return {name: _outcome(fn) for name, fn in ops.items()}


GRID = [
    f"{kind}/{n}/{'with' if with_limit else 'without'}"
    for kind in RINGS
    for n in (0, 1, 2)
    for with_limit in (True, False)
]


def compute(key: str) -> dict[str, str]:
    kind, n, side = key.split("/")
    R, pts = RINGS[kind]
    return answers(R, pts, int(n), side == "with")


# Recorded before the two cofinite representations became one.  The up,
# down, absorbance and avoidance rows came later and were written from the
# rules, not from the code: the limit joins the up (down) closure when it
# lies on that side of the family, else that closure is everything with the
# limit in the set and the set itself without it; absorbance fails exactly
# on the Z and F_2[x] sets without (0), avoidance exactly on the axes sets
# without m.
EXPECTED = {'Z/0/with': {'set': 'Spec(Z) | {"type":"whole"}',
              'zariski': 'Spec(Z) | {"type":"whole"}',
              'flat': 'Spec(Z) | {"type":"whole"}',
              'patch': 'Spec(Z) | {"type":"whole"}',
              'stable_up': 'True',
              'stable_down': 'True',
              'quotient_image': 'Spec(Z) | {"type":"whole"}',
              'local_image': 'Spec(Z) | {"type":"whole"}',
              'residue_image': 'Spec(Z) | {"type":"whole"}',
              'complement': '{} | {"type":"empty"}',
              'union': 'Spec(Z) | {"type":"whole"}',
              'intersect': '{(0), (2)} | '
                           '{"points":[{"type":"zGeneric"},{"p":2,"type":"zMax"}],"type":"explicit"}',
              'quotient_injective': 'True',
              'local_injective': 'True',
              'up': 'Spec(Z) | {"type":"whole"}',
              'down': 'Spec(Z) | {"type":"whole"}',
              'absorbance': 'True',
              'avoidance': 'True'},
 'Z/0/without': {'set': 'all closed points except none, without (0) | '
                        '{"excluded":[],"type":"cofiniteClosed","withGeneric":false}',
                 'zariski': 'Spec(Z) | {"type":"whole"}',
                 'flat': 'Spec(Z) | {"type":"whole"}',
                 'patch': 'Spec(Z) | {"type":"whole"}',
                 'stable_up': 'True',
                 'stable_down': 'False',
                 'quotient_image': 'Spec(Z) | {"type":"whole"}',
                 'local_image': 'Spec(Z) | {"type":"whole"}',
                 'residue_image': 'Spec(Z) | {"type":"whole"}',
                 'complement': '{(0)} | {"points":[{"type":"zGeneric"}],"type":"explicit"}',
                 'union': 'Spec(Z) | {"type":"whole"}',
                 'intersect': '{(2)} | {"points":[{"p":2,"type":"zMax"}],"type":"explicit"}',
                 'quotient_injective': 'True',
                 'local_injective': 'True',
                 'up': 'all closed points except none, without (0) | '
                       '{"excluded":[],"type":"cofiniteClosed","withGeneric":false}',
                 'down': 'Spec(Z) | {"type":"whole"}',
                 'absorbance': 'False',
                 'avoidance': 'True'},
 'Z/1/with': {'set': 'all closed points except (2), with (0) | '
                     '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'zariski': 'Spec(Z) | {"type":"whole"}',
              'flat': 'all closed points except (2), with (0) | '
                      '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'patch': 'all closed points except (2), with (0) | '
                       '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'stable_up': 'False',
              'stable_down': 'True',
              'quotient_image': 'Spec(Z) | {"type":"whole"}',
              'local_image': 'all closed points except (2), with (0) | '
                             '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'residue_image': 'all closed points except (2), with (0) | '
                               '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'complement': '{(2)} | {"points":[{"p":2,"type":"zMax"}],"type":"explicit"}',
              'union': 'Spec(Z) | {"type":"whole"}',
              'intersect': '{(0)} | {"points":[{"type":"zGeneric"}],"type":"explicit"}',
              'quotient_injective': 'True',
              'local_injective': 'True',
              'up': 'Spec(Z) | {"type":"whole"}',
              'down': 'all closed points except (2), with (0) | '
                      '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'absorbance': 'True',
              'avoidance': 'True'},
 'Z/1/without': {'set': 'all closed points except (2), without (0) | '
                        '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":false}',
                 'zariski': 'Spec(Z) | {"type":"whole"}',
                 'flat': 'all closed points except (2), with (0) | '
                         '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'patch': 'all closed points except (2), with (0) | '
                          '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'stable_up': 'True',
                 'stable_down': 'False',
                 'quotient_image': 'all closed points except (2), with (0) | '
                                   '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'local_image': 'all closed points except (2), with (0) | '
                                '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'residue_image': 'all closed points except (2), with (0) | '
                                  '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'complement': '{(0), (2)} | '
                               '{"points":[{"type":"zGeneric"},{"p":2,"type":"zMax"}],"type":"explicit"}',
                 'union': 'Spec(Z) | {"type":"whole"}',
                 'intersect': '{} | {"type":"empty"}',
                 'quotient_injective': 'True',
                 'local_injective': 'True',
                 'up': 'all closed points except (2), without (0) | '
                       '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":false}',
                 'down': 'all closed points except (2), with (0) | '
                         '{"excluded":[{"p":2,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'absorbance': 'False',
                 'avoidance': 'True'},
 'Z/2/with': {'set': 'all closed points except (2), (3), with (0) | '
                     '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'zariski': 'Spec(Z) | {"type":"whole"}',
              'flat': 'all closed points except (2), (3), with (0) | '
                      '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'patch': 'all closed points except (2), (3), with (0) | '
                       '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'stable_up': 'False',
              'stable_down': 'True',
              'quotient_image': 'Spec(Z) | {"type":"whole"}',
              'local_image': 'all closed points except (2), (3), with (0) | '
                             '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'residue_image': 'all closed points except (2), (3), with (0) | '
                               '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'complement': '{(2), (3)} | '
                            '{"points":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"explicit"}',
              'union': 'all closed points except (3), with (0) | '
                       '{"excluded":[{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'intersect': '{(0)} | {"points":[{"type":"zGeneric"}],"type":"explicit"}',
              'quotient_injective': 'True',
              'local_injective': 'True',
              'up': 'Spec(Z) | {"type":"whole"}',
              'down': 'all closed points except (2), (3), with (0) | '
                      '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
              'absorbance': 'True',
              'avoidance': 'True'},
 'Z/2/without': {'set': 'all closed points except (2), (3), without (0) | '
                        '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":false}',
                 'zariski': 'Spec(Z) | {"type":"whole"}',
                 'flat': 'all closed points except (2), (3), with (0) | '
                         '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'patch': 'all closed points except (2), (3), with (0) | '
                          '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'stable_up': 'True',
                 'stable_down': 'False',
                 'quotient_image': 'all closed points except (2), (3), with (0) | '
                                   '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'local_image': 'all closed points except (2), (3), with (0) | '
                                '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'residue_image': 'all closed points except (2), (3), with (0) | '
                                  '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'complement': '{(0), (2), (3)} | '
                               '{"points":[{"type":"zGeneric"},{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"explicit"}',
                 'union': 'all closed points except (3), with (0) | '
                          '{"excluded":[{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'intersect': '{} | {"type":"empty"}',
                 'quotient_injective': 'True',
                 'local_injective': 'True',
                 'up': 'all closed points except (2), (3), without (0) | '
                       '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":false}',
                 'down': 'all closed points except (2), (3), with (0) | '
                         '{"excluded":[{"p":2,"type":"zMax"},{"p":3,"type":"zMax"}],"type":"cofiniteClosed","withGeneric":true}',
                 'absorbance': 'False',
                 'avoidance': 'True'},
 'F2x/0/with': {'set': 'Spec(F_2[x]) | {"type":"whole"}',
                'zariski': 'Spec(F_2[x]) | {"type":"whole"}',
                'flat': 'Spec(F_2[x]) | {"type":"whole"}',
                'patch': 'Spec(F_2[x]) | {"type":"whole"}',
                'stable_up': 'True',
                'stable_down': 'True',
                'quotient_image': 'Spec(F_2[x]) | {"type":"whole"}',
                'local_image': 'Spec(F_2[x]) | {"type":"whole"}',
                'residue_image': 'Spec(F_2[x]) | {"type":"whole"}',
                'complement': '{} | {"type":"empty"}',
                'union': 'Spec(F_2[x]) | {"type":"whole"}',
                'intersect': '{(0), (x)} | '
                             '{"points":[{"type":"fpxGeneric"},{"coeffs":[0,1],"type":"fpxMax"}],"type":"explicit"}',
                'quotient_injective': 'True',
                'local_injective': 'True',
                'up': 'Spec(F_2[x]) | {"type":"whole"}',
                'down': 'Spec(F_2[x]) | {"type":"whole"}',
                'absorbance': 'True',
                'avoidance': 'True'},
 'F2x/0/without': {'set': 'all closed points except none, without (0) | '
                          '{"excluded":[],"type":"cofiniteClosed","withGeneric":false}',
                   'zariski': 'Spec(F_2[x]) | {"type":"whole"}',
                   'flat': 'Spec(F_2[x]) | {"type":"whole"}',
                   'patch': 'Spec(F_2[x]) | {"type":"whole"}',
                   'stable_up': 'True',
                   'stable_down': 'False',
                   'quotient_image': 'Spec(F_2[x]) | {"type":"whole"}',
                   'local_image': 'Spec(F_2[x]) | {"type":"whole"}',
                   'residue_image': 'Spec(F_2[x]) | {"type":"whole"}',
                   'complement': '{(0)} | {"points":[{"type":"fpxGeneric"}],"type":"explicit"}',
                   'union': 'Spec(F_2[x]) | {"type":"whole"}',
                   'intersect': '{(x)} | '
                                '{"points":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"explicit"}',
                   'quotient_injective': 'True',
                   'local_injective': 'True',
                   'up': 'all closed points except none, without (0) | '
                         '{"excluded":[],"type":"cofiniteClosed","withGeneric":false}',
                   'down': 'Spec(F_2[x]) | {"type":"whole"}',
                   'absorbance': 'False',
                   'avoidance': 'True'},
 'F2x/1/with': {'set': 'all closed points except (x), with (0) | '
                       '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'zariski': 'Spec(F_2[x]) | {"type":"whole"}',
                'flat': 'all closed points except (x), with (0) | '
                        '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'patch': 'all closed points except (x), with (0) | '
                         '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'stable_up': 'False',
                'stable_down': 'True',
                'quotient_image': 'Spec(F_2[x]) | {"type":"whole"}',
                'local_image': 'all closed points except (x), with (0) | '
                               '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'residue_image': 'all closed points except (x), with (0) | '
                                 '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'complement': '{(x)} | '
                              '{"points":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"explicit"}',
                'union': 'Spec(F_2[x]) | {"type":"whole"}',
                'intersect': '{(0)} | {"points":[{"type":"fpxGeneric"}],"type":"explicit"}',
                'quotient_injective': 'True',
                'local_injective': 'True',
                'up': 'Spec(F_2[x]) | {"type":"whole"}',
                'down': 'all closed points except (x), with (0) | '
                        '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'absorbance': 'True',
                'avoidance': 'True'},
 'F2x/1/without': {'set': 'all closed points except (x), without (0) | '
                          '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":false}',
                   'zariski': 'Spec(F_2[x]) | {"type":"whole"}',
                   'flat': 'all closed points except (x), with (0) | '
                           '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'patch': 'all closed points except (x), with (0) | '
                            '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'stable_up': 'True',
                   'stable_down': 'False',
                   'quotient_image': 'all closed points except (x), with (0) | '
                                     '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'local_image': 'all closed points except (x), with (0) | '
                                  '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'residue_image': 'all closed points except (x), with (0) | '
                                    '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'complement': '{(0), (x)} | '
                                 '{"points":[{"type":"fpxGeneric"},{"coeffs":[0,1],"type":"fpxMax"}],"type":"explicit"}',
                   'union': 'Spec(F_2[x]) | {"type":"whole"}',
                   'intersect': '{} | {"type":"empty"}',
                   'quotient_injective': 'True',
                   'local_injective': 'True',
                   'up': 'all closed points except (x), without (0) | '
                         '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":false}',
                   'down': 'all closed points except (x), with (0) | '
                           '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'absorbance': 'False',
                   'avoidance': 'True'},
 'F2x/2/with': {'set': 'all closed points except (x), (x + 1), with (0) | '
                       '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'zariski': 'Spec(F_2[x]) | {"type":"whole"}',
                'flat': 'all closed points except (x), (x + 1), with (0) | '
                        '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'patch': 'all closed points except (x), (x + 1), with (0) | '
                         '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'stable_up': 'False',
                'stable_down': 'True',
                'quotient_image': 'Spec(F_2[x]) | {"type":"whole"}',
                'local_image': 'all closed points except (x), (x + 1), with (0) | '
                               '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'residue_image': 'all closed points except (x), (x + 1), with (0) | '
                                 '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'complement': '{(x), (x + 1)} | '
                              '{"points":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"explicit"}',
                'union': 'all closed points except (x + 1), with (0) | '
                         '{"excluded":[{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'intersect': '{(0)} | {"points":[{"type":"fpxGeneric"}],"type":"explicit"}',
                'quotient_injective': 'True',
                'local_injective': 'True',
                'up': 'Spec(F_2[x]) | {"type":"whole"}',
                'down': 'all closed points except (x), (x + 1), with (0) | '
                        '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                'absorbance': 'True',
                'avoidance': 'True'},
 'F2x/2/without': {'set': 'all closed points except (x), (x + 1), without (0) | '
                          '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":false}',
                   'zariski': 'Spec(F_2[x]) | {"type":"whole"}',
                   'flat': 'all closed points except (x), (x + 1), with (0) | '
                           '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'patch': 'all closed points except (x), (x + 1), with (0) | '
                            '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'stable_up': 'True',
                   'stable_down': 'False',
                   'quotient_image': 'all closed points except (x), (x + 1), with (0) | '
                                     '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'local_image': 'all closed points except (x), (x + 1), with (0) | '
                                  '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'residue_image': 'all closed points except (x), (x + 1), with (0) | '
                                    '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'complement': '{(0), (x), (x + 1)} | '
                                 '{"points":[{"type":"fpxGeneric"},{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"explicit"}',
                   'union': 'all closed points except (x + 1), with (0) | '
                            '{"excluded":[{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'intersect': '{} | {"type":"empty"}',
                   'quotient_injective': 'True',
                   'local_injective': 'True',
                   'up': 'all closed points except (x), (x + 1), without (0) | '
                         '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":false}',
                   'down': 'all closed points except (x), (x + 1), with (0) | '
                           '{"excluded":[{"coeffs":[0,1],"type":"fpxMax"},{"coeffs":[1,1],"type":"fpxMax"}],"type":"cofiniteClosed","withGeneric":true}',
                   'absorbance': 'False',
                   'avoidance': 'True'},
 'AxesF2/0/with': {'set': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'zariski': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'flat': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'patch': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'stable_up': 'True',
                   'stable_down': 'True',
                   'quotient_image': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'local_image': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'residue_image': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'complement': '{} | {"type":"empty"}',
                   'union': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'intersect': '{P_1, m} | '
                                '{"points":[{"k":1,"type":"suppMin"},{"type":"suppTop"}],"type":"explicit"}',
                   'quotient_injective': 'True',
                   'local_injective': 'True',
                   'up': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'down': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'absorbance': 'True',
                   'avoidance': 'True'},
 'AxesF2/0/without': {'set': 'all minimal primes except none, without m | '
                             '{"excluded":[],"type":"cofiniteMin","withTop":false}',
                      'zariski': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'flat': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'patch': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'stable_up': 'False',
                      'stable_down': 'True',
                      'quotient_image': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'local_image': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'residue_image': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'complement': '{m} | {"points":[{"type":"suppTop"}],"type":"explicit"}',
                      'union': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'intersect': '{P_1} | '
                                   '{"points":[{"k":1,"type":"suppMin"}],"type":"explicit"}',
                      'quotient_injective': 'True',
                      'local_injective': 'True',
                      'up': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'down': 'all minimal primes except none, without m | '
                              '{"excluded":[],"type":"cofiniteMin","withTop":false}',
                      'absorbance': 'True',
                      'avoidance': 'False'},
 'AxesF2/1/with': {'set': 'all minimal primes except P_1, with m | '
                          '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                   'zariski': 'all minimal primes except P_1, with m | '
                              '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                   'flat': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'patch': 'all minimal primes except P_1, with m | '
                            '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                   'stable_up': 'True',
                   'stable_down': 'False',
                   'quotient_image': 'all minimal primes except P_1, with m | '
                                     '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                   'local_image': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'residue_image': 'all minimal primes except P_1, with m | '
                                    '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                   'complement': '{P_1} | {"points":[{"k":1,"type":"suppMin"}],"type":"explicit"}',
                   'union': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'intersect': '{m} | {"points":[{"type":"suppTop"}],"type":"explicit"}',
                   'quotient_injective': 'False',
                   'local_injective': 'True',
                   'up': 'all minimal primes except P_1, with m | '
                         '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                   'down': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'absorbance': 'True',
                   'avoidance': 'True'},
 'AxesF2/1/without': {'set': 'all minimal primes except P_1, without m | '
                             '{"excluded":[1],"type":"cofiniteMin","withTop":false}',
                      'zariski': 'all minimal primes except P_1, with m | '
                                 '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                      'flat': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'patch': 'all minimal primes except P_1, with m | '
                               '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                      'stable_up': 'False',
                      'stable_down': 'True',
                      'quotient_image': 'all minimal primes except P_1, with m | '
                                        '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                      'local_image': 'all minimal primes except P_1, with m | '
                                     '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                      'residue_image': 'all minimal primes except P_1, with m | '
                                       '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                      'complement': '{P_1, m} | '
                                    '{"points":[{"k":1,"type":"suppMin"},{"type":"suppTop"}],"type":"explicit"}',
                      'union': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'intersect': '{} | {"type":"empty"}',
                      'quotient_injective': 'False',
                      'local_injective': 'False',
                      'up': 'all minimal primes except P_1, with m | '
                            '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                      'down': 'all minimal primes except P_1, without m | '
                              '{"excluded":[1],"type":"cofiniteMin","withTop":false}',
                      'absorbance': 'True',
                      'avoidance': 'False'},
 'AxesF2/2/with': {'set': 'all minimal primes except P_1, P_2, with m | '
                          '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                   'zariski': 'all minimal primes except P_1, P_2, with m | '
                              '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                   'flat': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'patch': 'all minimal primes except P_1, P_2, with m | '
                            '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                   'stable_up': 'True',
                   'stable_down': 'False',
                   'quotient_image': 'all minimal primes except P_1, P_2, with m | '
                                     '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                   'local_image': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'residue_image': 'all minimal primes except P_1, P_2, with m | '
                                    '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                   'complement': '{P_1, P_2} | '
                                 '{"points":[{"k":1,"type":"suppMin"},{"k":2,"type":"suppMin"}],"type":"explicit"}',
                   'union': 'all minimal primes except P_2, with m | '
                            '{"excluded":[2],"type":"cofiniteMin","withTop":true}',
                   'intersect': '{m} | {"points":[{"type":"suppTop"}],"type":"explicit"}',
                   'quotient_injective': 'False',
                   'local_injective': 'True',
                   'up': 'all minimal primes except P_1, P_2, with m | '
                         '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                   'down': 'Spec(Axes(F_2)) | {"type":"whole"}',
                   'absorbance': 'True',
                   'avoidance': 'True'},
 'AxesF2/2/without': {'set': 'all minimal primes except P_1, P_2, without m | '
                             '{"excluded":[1,2],"type":"cofiniteMin","withTop":false}',
                      'zariski': 'all minimal primes except P_1, P_2, with m | '
                                 '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                      'flat': 'Spec(Axes(F_2)) | {"type":"whole"}',
                      'patch': 'all minimal primes except P_1, P_2, with m | '
                               '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                      'stable_up': 'False',
                      'stable_down': 'True',
                      'quotient_image': 'all minimal primes except P_1, P_2, with m | '
                                        '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                      'local_image': 'all minimal primes except P_1, P_2, with m | '
                                     '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                      'residue_image': 'all minimal primes except P_1, P_2, with m | '
                                       '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                      'complement': '{P_1, P_2, m} | '
                                    '{"points":[{"k":1,"type":"suppMin"},{"k":2,"type":"suppMin"},{"type":"suppTop"}],"type":"explicit"}',
                      'union': 'all minimal primes except P_2, with m | '
                               '{"excluded":[2],"type":"cofiniteMin","withTop":true}',
                      'intersect': '{} | {"type":"empty"}',
                      'quotient_injective': 'False',
                      'local_injective': 'False',
                      'up': 'all minimal primes except P_1, P_2, with m | '
                            '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                      'down': 'all minimal primes except P_1, P_2, without m | '
                              '{"excluded":[1,2],"type":"cofiniteMin","withTop":false}',
                      'absorbance': 'True',
                      'avoidance': 'False'},
 'AxesQ/0/with': {'set': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'zariski': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'flat': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'patch': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'stable_up': 'True',
                  'stable_down': 'True',
                  'quotient_image': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'local_image': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'residue_image': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'complement': '{} | {"type":"empty"}',
                  'union': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'intersect': '{P_1, m} | '
                               '{"points":[{"k":1,"type":"suppMin"},{"type":"suppTop"}],"type":"explicit"}',
                  'quotient_injective': 'True',
                  'local_injective': 'True',
                  'up': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'down': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'absorbance': 'True',
                  'avoidance': 'True'},
 'AxesQ/0/without': {'set': 'all minimal primes except none, without m | '
                            '{"excluded":[],"type":"cofiniteMin","withTop":false}',
                     'zariski': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'flat': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'patch': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'stable_up': 'False',
                     'stable_down': 'True',
                     'quotient_image': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'local_image': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'residue_image': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'complement': '{m} | {"points":[{"type":"suppTop"}],"type":"explicit"}',
                     'union': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'intersect': '{P_1} | {"points":[{"k":1,"type":"suppMin"}],"type":"explicit"}',
                     'quotient_injective': 'True',
                     'local_injective': 'True',
                     'up': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'down': 'all minimal primes except none, without m | '
                             '{"excluded":[],"type":"cofiniteMin","withTop":false}',
                     'absorbance': 'True',
                     'avoidance': 'False'},
 'AxesQ/1/with': {'set': 'all minimal primes except P_1, with m | '
                         '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                  'zariski': 'all minimal primes except P_1, with m | '
                             '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                  'flat': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'patch': 'all minimal primes except P_1, with m | '
                           '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                  'stable_up': 'True',
                  'stable_down': 'False',
                  'quotient_image': 'all minimal primes except P_1, with m | '
                                    '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                  'local_image': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'residue_image': 'all minimal primes except P_1, with m | '
                                   '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                  'complement': '{P_1} | {"points":[{"k":1,"type":"suppMin"}],"type":"explicit"}',
                  'union': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'intersect': '{m} | {"points":[{"type":"suppTop"}],"type":"explicit"}',
                  'quotient_injective': 'False',
                  'local_injective': 'True',
                  'up': 'all minimal primes except P_1, with m | '
                        '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                  'down': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'absorbance': 'True',
                  'avoidance': 'True'},
 'AxesQ/1/without': {'set': 'all minimal primes except P_1, without m | '
                            '{"excluded":[1],"type":"cofiniteMin","withTop":false}',
                     'zariski': 'all minimal primes except P_1, with m | '
                                '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                     'flat': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'patch': 'all minimal primes except P_1, with m | '
                              '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                     'stable_up': 'False',
                     'stable_down': 'True',
                     'quotient_image': 'all minimal primes except P_1, with m | '
                                       '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                     'local_image': 'all minimal primes except P_1, with m | '
                                    '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                     'residue_image': 'all minimal primes except P_1, with m | '
                                      '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                     'complement': '{P_1, m} | '
                                   '{"points":[{"k":1,"type":"suppMin"},{"type":"suppTop"}],"type":"explicit"}',
                     'union': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'intersect': '{} | {"type":"empty"}',
                     'quotient_injective': 'False',
                     'local_injective': 'False',
                     'up': 'all minimal primes except P_1, with m | '
                           '{"excluded":[1],"type":"cofiniteMin","withTop":true}',
                     'down': 'all minimal primes except P_1, without m | '
                             '{"excluded":[1],"type":"cofiniteMin","withTop":false}',
                     'absorbance': 'True',
                     'avoidance': 'False'},
 'AxesQ/2/with': {'set': 'all minimal primes except P_1, P_2, with m | '
                         '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                  'zariski': 'all minimal primes except P_1, P_2, with m | '
                             '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                  'flat': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'patch': 'all minimal primes except P_1, P_2, with m | '
                           '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                  'stable_up': 'True',
                  'stable_down': 'False',
                  'quotient_image': 'all minimal primes except P_1, P_2, with m | '
                                    '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                  'local_image': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'residue_image': 'all minimal primes except P_1, P_2, with m | '
                                   '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                  'complement': '{P_1, P_2} | '
                                '{"points":[{"k":1,"type":"suppMin"},{"k":2,"type":"suppMin"}],"type":"explicit"}',
                  'union': 'all minimal primes except P_2, with m | '
                           '{"excluded":[2],"type":"cofiniteMin","withTop":true}',
                  'intersect': '{m} | {"points":[{"type":"suppTop"}],"type":"explicit"}',
                  'quotient_injective': 'False',
                  'local_injective': 'True',
                  'up': 'all minimal primes except P_1, P_2, with m | '
                        '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                  'down': 'Spec(Axes(Q)) | {"type":"whole"}',
                  'absorbance': 'True',
                  'avoidance': 'True'},
 'AxesQ/2/without': {'set': 'all minimal primes except P_1, P_2, without m | '
                            '{"excluded":[1,2],"type":"cofiniteMin","withTop":false}',
                     'zariski': 'all minimal primes except P_1, P_2, with m | '
                                '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                     'flat': 'Spec(Axes(Q)) | {"type":"whole"}',
                     'patch': 'all minimal primes except P_1, P_2, with m | '
                              '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                     'stable_up': 'False',
                     'stable_down': 'True',
                     'quotient_image': 'all minimal primes except P_1, P_2, with m | '
                                       '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                     'local_image': 'all minimal primes except P_1, P_2, with m | '
                                    '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                     'residue_image': 'all minimal primes except P_1, P_2, with m | '
                                      '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                     'complement': '{P_1, P_2, m} | '
                                   '{"points":[{"k":1,"type":"suppMin"},{"k":2,"type":"suppMin"},{"type":"suppTop"}],"type":"explicit"}',
                     'union': 'all minimal primes except P_2, with m | '
                              '{"excluded":[2],"type":"cofiniteMin","withTop":true}',
                     'intersect': '{} | {"type":"empty"}',
                     'quotient_injective': 'False',
                     'local_injective': 'False',
                     'up': 'all minimal primes except P_1, P_2, with m | '
                           '{"excluded":[1,2],"type":"cofiniteMin","withTop":true}',
                     'down': 'all minimal primes except P_1, P_2, without m | '
                             '{"excluded":[1,2],"type":"cofiniteMin","withTop":false}',
                     'absorbance': 'True',
                     'avoidance': 'False'}}


@pytest.mark.parametrize("key", GRID)
def test_cofinite_grid(key):
    assert compute(key) == EXPECTED[key]
