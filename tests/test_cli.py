import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROPERTY
from spectop import cli, gfpoly, primes, suites
from spectop import spectrum as sp
from spectop.cli import run_command
from spectop.errors import FactorizationLimitError

Z = '{"kind":"Z"}'
AXES = '{"kind":"SymbolicSupplement","field":{"kind":"Fp","p":2}}'
E_NO_11 = '{"type":"cofiniteClosed","excluded":[{"type":"zMax","p":11}],"withGeneric":false}'
FIVE = '{"type":"explicit","points":[{"type":"zMax","p":5}]}'
Z_MOD_6 = '{"kind":"Zmod","n":6}'


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spec_command(capsys):
    code, out, _ = run(capsys, "spec", "--ring", '{"kind":"Zmod","n":12}')
    assert code == 0
    assert "(2)" in out and "(3)" in out


def test_closure_flat_singleton(capsys):
    code, out, _ = run(capsys, "closure", "--topology", "flat", "--ring", Z, "--set", FIVE)
    assert code == 0
    assert "{(0), (5)}" in out


def test_closure_json_output(capsys):
    code, out, _ = run(
        capsys, "closure", "--topology", "zariski", "--ring", Z, "--set", E_NO_11, "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closure"] == {"type": "whole"}


def test_dense_and_stable(capsys):
    code, out, _ = run(capsys, "dense", "--topology", "zariski", "--ring", Z, "--set", E_NO_11)
    assert code == 0 and "is dense" in out
    code, out, _ = run(
        capsys, "stable", "--mode", "generalization", "--ring", Z, "--set", E_NO_11
    )
    assert code == 0 and "not stable" in out


def test_criterion(capsys):
    code, out, _ = run(capsys, "criterion", "--mode", "flat", "--ring", Z, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["witness"] == {"kind": "int", "v": "2"}


def test_image_with_oracle_finite(capsys):
    zmod12 = '{"kind":"Zmod","n":12}'
    both = '{"type":"explicit","points":[{"type":"zmodPrime","p":2},{"type":"zmodPrime","p":3}]}'
    code, out, _ = run(
        capsys, "image", "--kind", "local", "--ring", zmod12, "--set", both, "--oracle", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["oracleAgrees"] is True
    assert doc["strict"] is False


def test_image_oracle_refuses_symbolic_spectrum(capsys):
    # The tame-enumeration oracle needs an enumerable spectrum.
    two_three = '{"type":"explicit","points":[{"type":"zMax","p":2},{"type":"zMax","p":3}]}'
    code, _, err = run(
        capsys, "image", "--kind", "local", "--ring", Z, "--set", two_three, "--oracle"
    )
    assert code == 2 and "enumerable" in err


def test_image_symbolic_strict(capsys):
    code, out, _ = run(capsys, "image", "--kind", "quotient", "--ring", Z, "--set", E_NO_11, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strict"] is True
    assert doc["witness"] == {"type": "zMax", "p": 11}


def test_construct_supplement(capsys):
    code, out, _ = run(capsys, "construct", "supplement", "--n", "3", "--field", "F2")
    assert code == 0
    assert "all statements hold: True" in out
    assert "2^n cover oracle: ran and agrees" in out
    code, out, _ = run(capsys, "construct", "supplement", "--n", "3", "--field", "F2", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["allOk"] is True and doc["dim"] == 1


def test_construct_supplement_says_when_the_oracle_is_skipped(capsys):
    # The cover oracle runs exactly for n <= covers.ORACLE_VAR_BOUND (20).
    code, out, _ = run(capsys, "construct", "supplement", "--n", "21")
    assert code == 0 and "all statements hold: True" in out
    assert "\n  2^n cover oracle: skipped (n > 20)\n" in out
    code, out, _ = run(capsys, "construct", "supplement", "--n", "20")
    assert code == 0 and "\n  2^n cover oracle: ran and agrees\n" in out


def test_no_oracle_is_an_unrecognized_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["construct", "supplement", "--n", "3", "--no-oracle"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --no-oracle\n")


def test_lyover(capsys):
    m = '{"type":"diagonalIntoModProduct","n":6,"divisors":[2,3]}'
    p = '{"type":"zmodPrime","p":3}'
    code, out, _ = run(capsys, "lyover", "--map", m, "--prime", p, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["contracts-back"] == {"type": "zmodPrime", "p": 3}


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "remark-v5")
    assert code == 0 and "pass" in out


def test_human_verify_prints_the_suite_note(capsys):
    code, out, _ = run(capsys, "verify", "oracle-agreement")
    assert code == 0
    assert out.splitlines()[:2] == [
        "oracle-agreement: pass (1 cases, seed 0)", f"  note: {suites.WILD_PRIME_NOTE}",
    ]


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "density", "--seed", "5", "--json")
    code2, out2, _ = run(capsys, "verify", "density", "--seed", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "flags,digest",
    [
        pytest.param(["--seed", "0"], "b3071f872a0016d1", id="0-b3071f872a0016d1"),
        pytest.param(["--seed", "7"], "f3cad6a4b2187fb9", id="7-f3cad6a4b2187fb9"),
    ],
)
def test_verify_all_json_bytes(capsys, flags, digest):
    # The report bytes recorded before the ring rules moved into the ring
    # classes; any change of answer changes them.
    code, out, _ = run(capsys, "verify", "all", "--json", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


# The size each suite runs at, as its report states it.
SUITE_SIZES = {
    "closure-axioms": {"cases": 500},
    "density": {"cases": 50},
    "finite-closure": {"cases": 100, "max_n": 10**6},
    "lying-over": {"cases": 50},
    "nilradical-product": {"cases": 20},
    "oracle-agreement": {},
    "pz": {"max_n": 5},
    "remark-flat": {},
    "remark-v5": {},
    "supplement": {"max_n": 8},
}


def test_every_suite_checks_at_least_one_case_at_its_own_size(capsys):
    # No argv asks a suite for zero cases: a pass always checked something.
    for seed in range(10):
        code, out, _ = run(capsys, "verify", "all", "--seed", str(seed), "--json")
        results = json.loads(out)["results"]
        assert code == 0
        assert {r["suite"]: r["params"] for r in results} == SUITE_SIZES
        assert min(r["summary"]["total"] for r in results) >= 1, seed


SUITES_SYMBOLIC = Path(__file__).resolve().parents[1] / "bench" / "expected" / "suites-symbolic.json"


@pytest.mark.parametrize("seed", range(0, 100, 11))
def test_verify_suite_json_bytes_match_the_benchmark_record(capsys, seed):
    # The benchmark's answer check holds "total:digest" per (suite, seed),
    # so a change to any reported byte (a case, an input drawn from the
    # seed) fails here too, not only in the benchmark.
    recorded = json.loads(SUITES_SYMBOLIC.read_text())
    suites = sorted({key.split("/")[0] for key in recorded})
    for suite in suites:
        code, out, _ = run(capsys, "verify", suite, "--seed", str(seed), "--json")
        assert code == 0
        total = json.loads(out)["results"][0]["summary"]["total"]
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert f"{total}:{digest}" == recorded[f"{suite}/{seed}"], suite


ZMOD_12 = '{"kind":"Zmod","n":12}'
TWO_THREE = '{"type":"explicit","points":[{"type":"zmodPrime","p":2},{"type":"zmodPrime","p":3}]}'
F3X = '{"kind":"FpPoly","p":3}'
NO_X2_PLUS_1 = (
    '{"type":"cofiniteClosed","excluded":[{"type":"fpxMax","coeffs":[1,0,1]}],"withGeneric":true}'
)
AXES_NO_2_5 = '{"type":"cofiniteMin","excluded":[2,5],"withTop":false}'
DIAGONAL_6 = '{"type":"diagonalIntoModProduct","n":6,"divisors":[2,3]}'
LOCAL_Z_NO_3 = (
    '{"type":"canonicalIntoLocalProduct","ring":{"kind":"Z"},"set":{"type":"cofiniteClosed",'
    '"excluded":[{"type":"zMax","p":3}],"withGeneric":false}}'
)
AXES_F2_EXCEPT = "all minimal primes except P_2, P_5"

# (argv, human output, sha256[:16] of the --json output), each recorded
# before the handlers built only the form they print.
OUTPUT_GOLDENS = [
    (("spec", "--ring", ZMOD_12), "Spec(Z/12) = {(2), (3)}\n", "48490d2df553fa6a"),
    (("spec", "--ring", Z), "Spec(Z) = Spec(Z)\n", "3e154ebb2c956c61"),
    (("spec", "--ring", AXES), "Spec(Axes(F_2)) = Spec(Axes(F_2))\n", "3539e0142c024028"),
    (("closure", "--topology", "zariski", "--ring", Z, "--set", FIVE),
     "zariski closure of {(5)} over Z = {(5)}\n", "96c4e6ff8ef1d44f"),
    (("closure", "--topology", "flat", "--ring", Z, "--set", FIVE),
     "flat closure of {(5)} over Z = {(0), (5)}\n", "af40b4037c38e0ef"),
    (("closure", "--topology", "patch", "--ring", Z, "--set", FIVE),
     "patch closure of {(5)} over Z = {(5)}\n", "b9d3cbe8ebd728a5"),
    (("closure", "--topology", "zariski", "--ring", Z, "--set", E_NO_11),
     "zariski closure of all closed points except (11), without (0) over Z = Spec(Z)\n",
     "9aab561657daea68"),
    (("closure", "--topology", "flat", "--ring", Z, "--set", E_NO_11),
     "flat closure of all closed points except (11), without (0) over Z"
     " = all closed points except (11), with (0)\n", "0287cfc8dc826258"),
    (("closure", "--topology", "patch", "--ring", Z, "--set", E_NO_11),
     "patch closure of all closed points except (11), without (0) over Z"
     " = all closed points except (11), with (0)\n", "ca60b624884c524e"),
    (("closure", "--topology", "zariski", "--ring", AXES, "--set", AXES_NO_2_5),
     f"zariski closure of {AXES_F2_EXCEPT}, without m over Axes(F_2) = {AXES_F2_EXCEPT}, with m\n",
     "2e76cf30b7decc7f"),
    (("closure", "--topology", "flat", "--ring", AXES, "--set", AXES_NO_2_5),
     f"flat closure of {AXES_F2_EXCEPT}, without m over Axes(F_2) = Spec(Axes(F_2))\n",
     "b7c951f60ca16ae3"),
    (("closure", "--topology", "patch", "--ring", AXES, "--set", AXES_NO_2_5),
     f"patch closure of {AXES_F2_EXCEPT}, without m over Axes(F_2) = {AXES_F2_EXCEPT}, with m\n",
     "0814d95ba2a3f052"),
    (("dense", "--topology", "zariski", "--ring", Z, "--set", E_NO_11),
     "all closed points except (11), without (0) is dense in the zariski topology\n",
     "29c990d5bc95df5f"),
    (("dense", "--topology", "flat", "--ring", F3X, "--set", NO_X2_PLUS_1),
     "all closed points except (x^2 + 1), with (0) is not dense in the flat topology\n",
     "c771f8e7af1b468d"),
    (("stable", "--mode", "generalization", "--ring", Z, "--set", E_NO_11),
     "all closed points except (11), without (0) is not stable under generalization\n",
     "5d7ea5588827a0eb"),
    (("stable", "--mode", "specialization", "--ring", Z, "--set", FIVE),
     "{(5)} is stable under specialization\n", "a2d710d082db44a1"),
    (("criterion", "--mode", "flat", "--ring", Z),
     "every infinite subset of Spec(Z) flat-dense: False (CounterexampleElement; witness 2)\n",
     "ceba3b519e7e0cec"),
    (("criterion", "--mode", "zariski", "--ring", Z),
     "every infinite subset of Spec(Z) zariski-dense: True (FactorizationFinite)\n",
     "bc545df606697fed"),
    (("criterion", "--mode", "zariski", "--ring", AXES),
     "every infinite subset of Spec(Axes(F_2)) zariski-dense: False"
     " (CounterexampleElement; witness x1)\n", "7bf37982e68d4507"),
    (("image", "--kind", "local", "--oracle", "--ring", ZMOD_12, "--set", TWO_THREE),
     "Im pi* for the local product over {(2), (3)}:\n  image   = {(2), (3)}\n"
     "  closure = {(2), (3)} (flat)\n  strict  = False\n  oracle  = agrees\n",
     "6ef944fac174cc12"),
    (("image", "--kind", "quotient", "--oracle", "--ring", ZMOD_12, "--set", TWO_THREE),
     "Im pi* for the quotient product over {(2), (3)}:\n  image   = {(2), (3)}\n"
     "  closure = {(2), (3)} (zariski)\n  strict  = False\n  oracle  = agrees\n",
     "d885ead3ec48f6fc"),
    (("image", "--kind", "quotient", "--ring", Z, "--set", E_NO_11),
     "Im pi* for the quotient product over all closed points except (11), without (0):\n"
     "  image   = all closed points except (11), with (0)\n"
     "  closure = Spec(Z) (zariski)\n  strict  = True, witness (11)\n", "1e32729212a81c76"),
    (("construct", "supplement", "--n", "3"),
     "axes ring over F_2 with n = 3\n"
     "  defining ideal = intersection of the axis primes: True\n"
     "  minimal primes: (x1,x2), (x1,x3), (x2,x3)\n  2^n cover oracle: ran and agrees\n"
     "  dim = 1, reduced = True, absorbance = True\n  all statements hold: True\n",
     "5ee6259dadabb295"),
    (("construct", "supplement", "--n", "3", "--field", "Q"),
     "axes ring over Q with n = 3\n"
     "  defining ideal = intersection of the axis primes: True\n"
     "  minimal primes: (x1,x2), (x1,x3), (x2,x3)\n  2^n cover oracle: ran and agrees\n"
     "  dim = 1, reduced = True, absorbance = True\n  all statements hold: True\n",
     "cd73d9804a51ee6a"),
    (("lyover", "--map", DIAGONAL_6, "--prime", '{"type":"zmodPrime","p":3}'),
     "pi_1^-1(3) lies over (3) along Z/6 -> Z/2 x Z/3\n", "952f72c3749ac9de"),
    (("lyover", "--map", LOCAL_Z_NO_3, "--prime", '{"type":"zGeneric"}'),
     "pi_(2)^-1(0) lies over (0) along Z -> prod R_p over all closed points except (3),"
     " without (0)\n", "e628b81394aa4a6a"),
]
GOLDEN_IDS = [f"{i:02d}-{argv[0]}" for i, (argv, _, _) in enumerate(OUTPUT_GOLDENS)]


@pytest.mark.parametrize("argv, human, _", OUTPUT_GOLDENS, ids=GOLDEN_IDS)
def test_human_output_is_unchanged(capsys, argv, human, _):
    assert run(capsys, *argv) == (0, human, "")


@pytest.mark.parametrize("argv, _, digest", OUTPUT_GOLDENS, ids=GOLDEN_IDS)
def test_json_output_builds_no_human_text(monkeypatch, capsys, argv, _, digest):
    # A --json run formats no point or subset for people to read.
    def refuse(*args):
        raise AssertionError("human text built for a --json run")

    monkeypatch.setattr(sp, "subset_str", refuse)
    monkeypatch.setattr(sp, "point_str", refuse)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_suite_type_error_is_an_internal_error(monkeypatch, capsys):
    # A TypeError is not an input error: it must not become exit 2, nor
    # exit 1, which reads as a failed verification.
    from spectop import suites

    def broken_pz(seed=0):
        raise TypeError("bug inside the suite")

    monkeypatch.setitem(suites.SUITES, "pz", broken_pz)
    code, out, err = run(capsys, "verify", "pz")
    assert (code, out) == (3, "")
    assert err == "internal error: TypeError: bug inside the suite\n"


def test_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    from spectop import construction

    def crash(*_, **__):
        raise RuntimeError("engine bug\n  on two lines")

    monkeypatch.setattr(construction, "supplement_report", crash)
    argv = ["construct", "supplement", "--n", "3"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: engine bug on two lines\n"
    code, out, err = run(capsys, *argv, "--traceback")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):")
    assert 'raise RuntimeError("engine bug' in err
    assert err.endswith("\ninternal error: RuntimeError: engine bug on two lines\n")
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "closure", "--topology", "zariski", "--ring", Z, "--set", '{"type":"nope"}')
    assert code == 2
    assert "error" in err


def test_bad_json_exit_code(capsys):
    code, _, err = run(capsys, "spec", "--ring", "{not json")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spec", "--ring", '{"kind":"Zmod","n":[1]}'],
        ["spec", "--ring", '{"kind":"Zmod","n":1e400}'],
        ["spec", "--ring", '{"kind":"Product","factors":7}'],
        ["closure", "--topology", "zariski", "--ring", Z,
         "--set", '{"type":"explicit","points":[{"type":"zMax","p":null}]}'],
        # JSON booleans only where a boolean belongs, and there only.
        ["closure", "--topology", "flat", "--ring", Z,
         "--set", '{"type":"cofiniteClosed","excluded":[],"withGeneric":"no"}'],
        ["closure", "--topology", "zariski", "--ring", AXES,
         "--set", '{"type":"cofiniteMin","excluded":[2],"withTop":1}'],
        ["closure", "--topology", "zariski", "--ring", AXES,
         "--set", '{"type":"explicit","points":[{"type":"suppMin","k":true}]}'],
        ["closure", "--topology", "zariski", "--ring", AXES,
         "--set", '{"type":"cofiniteMin","excluded":[true]}'],
        ["spec", "--ring", '{"kind":"LocalizedAtIrrelevant","inner":{"kind":"MonomialQuotient",'
                           '"field":{"kind":"Fp","p":2},"nvars":true,"gens":[]}}'],
        ["closure", "--topology", "zariski", "--ring", '{"kind":"Product","factors":[' + Z_MOD_6 + "," + Z_MOD_6 + "]}",
         "--set", '{"type":"explicit","points":[{"type":"tamePrime","slot":true,"inner":{"type":"zmodPrime","p":2}}]}'],
        # Only a monomial quotient can be localized.
        ["spec", "--ring", '{"kind":"LocalizedAtIrrelevant","inner":{"kind":"Z"}}'],
        ["spec", "--ring", '{"kind":"LocalizedAtIrrelevant","inner":{"kind":"LocalizedAtIrrelevant",'
                           '"inner":{"kind":"MonomialQuotient","field":{"kind":"Fp","p":2},'
                           '"nvars":2,"gens":[[1,1]]}}}'],
        # Diagonal divisors must be positive.
        *(["lyover", "--map", '{"type":"diagonalIntoModProduct","n":6,"divisors":' + divisors + "}",
           "--prime", '{"type":"zmodPrime","p":2}'] for divisors in ("[0]", "[-2,3]", "[-6]")),
        # Axes out of range, and each cofinite row on the other side of its
        # ring's limit or with the limit among its excluded points.
        *(["closure", "--topology", "zariski", "--ring", AXES,
           "--set", '{"type":"cofiniteMin","excluded":[' + axis + "]}"] for axis in ("0", "1.5")),
        ["closure", "--topology", "zariski", "--ring", Z,
         "--set", '{"type":"cofiniteMin","excluded":[1]}'],
        ["closure", "--topology", "zariski", "--ring", AXES,
         "--set", '{"type":"cofiniteClosed","excluded":[]}'],
        ["closure", "--topology", "zariski", "--ring", Z,
         "--set", '{"type":"cofiniteClosed","excluded":[{"type":"zGeneric"}]}'],
    ],
)
def test_malformed_json_shapes_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


def test_deeply_nested_json_exits_2(capsys):
    prime = '{"type":"fieldZero"}'
    for _ in range(2000):
        prime = '{"type":"tamePrime","slot":0,"inner":' + prime + "}"
    quotient = '{"type":"quotientMap","ring":' + Z + ',"prime":{"type":"zGeneric"}}'
    code, _, err = run(capsys, "lyover", "--map", quotient, "--prime", prime)
    assert code == 2
    assert "nested too deeply" in err


def test_nested_value_past_the_recursion_limit_exits_2(capsys):
    # Shallow enough for json.loads, too deep for the decoder's recursion.
    prime = '{"type":"fieldZero"}'
    for _ in range(600):
        prime = '{"type":"tamePrime","slot":0,"inner":' + prime + "}"
    json.loads(prime)
    quotient = '{"type":"quotientMap","ring":' + Z + ',"prime":{"type":"zGeneric"}}'
    code, out, err = run(capsys, "lyover", "--map", quotient, "--prime", prime)
    assert (code, out) == (2, "")
    assert err == "error: JSON value nested too deeply\n"


FOREIGN_POINT = '{"type":"explicit","points":[{"type":"zMax","p":4}]}'
X_SQUARED = '{"type":"fpxMax","coeffs":[0,0,1]}'
F2X = '{"kind":"FpPoly","p":2}'


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "--topology", "flat", "--ring", Z, "--set", FOREIGN_POINT],
        ["dense", "--topology", "zariski", "--ring", Z, "--set", FOREIGN_POINT],
        ["stable", "--mode", "specialization", "--ring", Z, "--set", FOREIGN_POINT],
        ["image", "--kind", "quotient", "--ring", Z, "--set", FOREIGN_POINT],
        ["closure", "--topology", "zariski", "--ring", F2X,
         "--set", '{"type":"cofiniteClosed","excluded":[' + X_SQUARED + "]}"],
        ["lyover", "--map", '{"type":"quotientMap","ring":' + F2X + ',"prime":' + X_SQUARED + "}",
         "--prime", '{"type":"fpxGeneric"}'],
        ["lyover", "--map", '{"type":"residueMap","ring":' + Z + ',"prime":{"type":"zMax","p":4}}',
         "--prime", '{"type":"zGeneric"}'],
        ["lyover", "--map", '{"type":"canonicalIntoLocalProduct","ring":' + Z + ',"set":{"type":"whole"}}',
         "--prime", '{"type":"zMax","p":4}'],
        # (0) once reached n % 0 and exited 3.
        ["closure", "--topology", "zariski", "--ring", Z_MOD_6,
         "--set", '{"type":"explicit","points":[{"type":"zmodPrime","p":0}]}'],
    ],
)
def test_non_prime_points_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "is not a point of" in err


F2X_CLOSURE = ["closure", "--topology", "zariski", "--ring", F2X, "--set"]


def test_unreduced_fpx_points_exit_2(capsys):
    # Over F_2, [3,1] would name the prime (x + 1) a second time.
    two = '{"type":"explicit","points":[{"type":"fpxMax","coeffs":[1,1]},{"type":"fpxMax","coeffs":[3,1]}]}'
    code, _, err = run(capsys, *F2X_CLOSURE, two)
    assert code == 2
    assert "is not a point of" in err
    code, out, _ = run(capsys, *F2X_CLOSURE, '{"type":"explicit","points":[{"type":"fpxMax","coeffs":[1,1]}]}')
    assert code == 0 and "(x + 1)" in out


def test_non_monic_fpx_point_is_refused_before_the_irreducibility_test(monkeypatch, capsys):
    # The canonical form is checked first: a non-monic point of degree 17
    # names no point, and only a monic one reaches Ben-Or's degree cap.
    def point(coeffs):
        return json.dumps({"type": "explicit", "points": [{"type": "fpxMax", "coeffs": coeffs}]})

    closure = ["closure", "--topology", "zariski", "--ring", F3X, "--set"]
    code, out, err = run(capsys, *closure, point([1] + [0] * 16 + [2]))
    assert (code, out, err) == (2, "", "error: (2*x^17 + 1) is not a point of F_3[x]\n")
    code, out, err = run(capsys, *closure, point([1] + [0] * 16 + [1]))
    assert (code, out, err) == (2, "", "error: degree 17 exceeds cap 16\n")
    monkeypatch.setattr(gfpoly, "is_irreducible", lambda *a: pytest.fail("tested a non-monic point"))
    code, out, err = run(capsys, *closure, point([1, 1, 2]))
    assert (code, out, err) == (2, "", "error: (2*x^2 + x + 1) is not a point of F_3[x]\n")


def test_untrimmed_fpx_point_exits_2_promptly():
    # A trailing zero coefficient once sent the irreducibility test into an
    # endless polynomial division.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spectop", *F2X_CLOSURE,
         '{"type":"explicit","points":[{"type":"fpxMax","coeffs":[1,1,0]}]}'],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2
    assert "is not a point of" in proc.stderr


@pytest.mark.parametrize("exc", [KeyError("internal"), ValueError("internal")])
def test_engine_key_and_value_errors_are_internal(monkeypatch, capsys, exc):
    # Only a SpectopError is a refused input; a KeyError or ValueError from
    # inside the engine is a bug.
    from spectop import construction

    def crash(*_, **__):
        raise exc

    monkeypatch.setattr(construction, "supplement_report", crash)
    code, out, err = run(capsys, "construct", "supplement", "--n", "3")
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: {type(exc).__name__}:")


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "supplement", "--n", "3", "--field", "Fx"],
        ["construct", "supplement", "--n", "2", "--field", "F" + "7" * 5000],
        ["construct", "supplement", "--n", "2", "--field", "F\u0667"],  # Arabic-Indic seven
        ["spec", "--ring", "/nonexistent.json"],
        # A value that looks like an option is a value: here, a path.
        *(["spec", "--ring", value] for value in ("--json", "-x", "--")),
        ["spec", "--ring", '{"kind":"FpPoly","p":4}'],
        ["spec", "--ring", '{"kind":"MonomialQuotient","field":{"kind":"Fp","p":2},'
                           '"nvars":2,"gens":[[0,0]]}'],
        ["spec", "--ring", '{"kind":"MonomialQuotient","field":' + Z + ',"nvars":2,"gens":[[1,1]]}'],
        ["spec", "--ring", '{"kind":"SymbolicSupplement","field":' + Z + "}"],
        ["spec", "--ring", '{"kind":"Product","factors":[]}'],
    ],
    ids=["field-Fx", "field-5000-digits", "field-non-ascii-digit", "ring-path", "ring-path-json-flag",
         "ring-path-dash-x", "ring-path-dash-dash", "fppoly-composite-p", "constant-generator",
         "monomial-over-Z", "supplement-over-Z", "empty-product"],
)
def test_refused_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "\n" not in err.rstrip("\n")


def test_ring_and_set_files_print_what_the_inline_json_prints(capsys, tmp_path):
    ring, subset = tmp_path / "ring.json", tmp_path / "set.json"
    ring.write_text(Z, encoding="utf-8")
    subset.write_text(FIVE, encoding="utf-8")
    inline = run(capsys, "closure", "--topology", "zariski", "--ring", Z, "--set", FIVE, "--json")
    files = run(capsys, "closure", "--topology", "zariski", "--ring", str(ring), "--set", str(subset),
                "--json")
    assert inline[0] == 0 and files == inline


@pytest.mark.parametrize("kind", ["not-utf-8", "directory"])
def test_unreadable_ring_file_exits_2(capsys, tmp_path, kind):
    path = tmp_path / "ring.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"kind":"Z\xff"}')
    code, out, err = run(capsys, "spec", "--ring", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "\n" not in err.rstrip("\n")


def test_closed_stdout_exits_2_without_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spectop", "spec", "--ring", Z_MOD_6],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=30,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: standard output was closed\n"


def test_supplement_bound_exits_2_before_building():
    # n <= construction.AXES_N_BOUND (128) is checked before the ring is
    # built.  Past n = 20 the oracle does not run, so nothing else refuses
    # this n, and the report at n = 512 would take over 10 s: the
    # intersection fold alone takes about 12 s there on a 2-vCPU host.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spectop", "construct", "supplement", "--n", "512"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 2
    assert "exceeds the axes-ring bound" in proc.stderr


def test_python_dash_m_spectop():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spectop", "verify", "pz", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"][0]["suite"] == "pz"


def test_unknown_topology_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["closure", "--topology", "euclidean", "--ring", Z, "--set", FIVE])
    assert exc.value.code == 2


def test_fp_refuses_psi12(capsys):
    code, _, err = run(capsys, "spec", "--ring", '{"kind":"Fp","p":318665857834031151167461}')
    assert code == 2
    assert "not prime" in err


def test_fp_refuses_a_prime_it_cannot_prove(capsys):
    # A prime of about 100 bits that is not a Mersenne number is unproven.
    p = primes.next_prime(2**100)
    for kind in ("Fp", "FpPoly"):
        code, out, err = run(capsys, "spec", "--ring", json.dumps({"kind": kind, "p": p}))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "not proven prime" in err


def test_allow_big_flag(capsys):
    big = 2**70 + 1
    code, _, err = run(capsys, "spec", "--ring", json.dumps({"kind": "Zmod", "n": big}))
    assert code == 2
    code, out, _ = run(
        capsys, "spec", "--ring", json.dumps({"kind": "Zmod", "n": big}), "--allow-big"
    )
    assert code == 0


BIG_N = 6 * (2**61 - 1) * (2**31 - 1)  # 95 bits: above the default bound
BIG_PRODUCT = json.dumps(
    {"kind": "Product", "factors": [{"kind": "Fp", "p": 5}, {"kind": "Zmod", "n": BIG_N}]}
)
BIG_DIAGONAL = json.dumps(
    {"type": "diagonalIntoModProduct", "n": BIG_N, "divisors": [6, 2**61 - 1, 2**31 - 1]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["spec", "--ring", BIG_PRODUCT],
        ["lyover", "--map", BIG_DIAGONAL, "--prime", '{"type":"zmodPrime","p":2}'],
    ],
    ids=["product-factor", "diagonal-source"],
)
def test_allow_big_reaches_nested_moduli(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "exceeds factorization bound" in err
    code, out, _ = run(capsys, *argv, "--allow-big")
    assert code == 0 and str(2**61 - 1) in out


def test_shared_parser_keeps_calls_independent(capsys):
    big = json.dumps({"kind": "Zmod", "n": 2**70 + 1})
    code, _, _ = run(capsys, "spec", "--ring", big, "--allow-big")
    assert code == 0
    code, _, err = run(capsys, "spec", "--ring", big)
    assert code == 2 and "exceeds factorization bound" in err

    with pytest.raises(SystemExit) as exc:
        run_command(["spec", "--ring"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "spec", "--ring", '{"kind":"Zmod","n":12}', "--json")
    assert code == 0
    assert json.loads(out)["spectrum"] == {
        "type": "explicit", "points": [{"type": "zmodPrime", "p": 2}, {"type": "zmodPrime", "p": 3}]
    }

    argv = ["closure", "--topology", "flat", "--ring", Z, "--set", FIVE, "--json"]
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


def test_failing_suite_case_carries_repro():
    from spectop.suites import SuiteResult, _case

    res = SuiteResult("demo", 7, {})
    _case(res, "001", "input", True, False)
    assert not res.passed
    assert res.cases[0].repro == "spectop verify demo --seed 7"
    doc = res.to_json()
    assert doc["cases"][0]["repro"] == "spectop verify demo --seed 7"


MAP = '{"type":"diagonalIntoModProduct","n":6,"divisors":[2,3]}'
PRIME = '{"type":"zmodPrime","p":2}'
COMMON = ["--json", "--allow-big", "--traceback"]
# What the common switches store when given, and when not.
GIVEN = {"json": True, "limit": None, "traceback": True}
PLAIN = {"json": False, "limit": primes.DEFAULT_LIMIT, "traceback": False}
# Each command with every option: the command and its positionals, one
# group per option, and the attributes the handler reads.
FULL = [
    (["spec"], [["--ring", Z]], {"ring": Z}),
    (["closure"], [["--topology", "flat"], ["--ring", Z], ["--set", FIVE]],
     {"topology": "flat", "ring": Z, "set": FIVE}),
    (["dense"], [["--topology", "patch"], ["--ring", Z], ["--set", FIVE]],
     {"topology": "patch", "ring": Z, "set": FIVE}),
    (["stable"], [["--mode", "generalization"], ["--ring", Z], ["--set", FIVE]],
     {"mode": "generalization", "ring": Z, "set": FIVE}),
    (["criterion"], [["--mode", "zariski"], ["--ring", Z]], {"mode": "zariski", "ring": Z}),
    (["image"], [["--kind", "local"], ["--ring", Z], ["--set", FIVE], ["--oracle"]],
     {"kind": "local", "ring": Z, "set": FIVE, "oracle": True}),
    (["construct", "supplement"], [["--n", "3"], ["--field", "F3"]],
     {"what": "supplement", "n": 3, "field": "F3"}),
    (["lyover"], [["--map", MAP], ["--prime", PRIME]], {"map": MAP, "prime": PRIME}),
    (["verify", "pz"], [["--seed", "3"]], {"suite": "pz", "seed": 3}),
]


def _accepted_table():
    """(argv, the attributes parse_args returns besides command and fn)."""
    rng = Random(0)
    table = []
    for head, groups, attrs in FULL:
        groups = groups + [[flag] for flag in COMMON]
        orders = [groups, rng.sample(groups, len(groups)), groups[::-1],
                  groups + groups[::-1]]  # repeated options: the last one wins
        table += [(head + [tok for g in order for tok in g], attrs | GIVEN) for order in orders]
        # Positionals after the options.
        table.append(([head[0]] + [tok for g in groups for tok in g] + head[1:], attrs | GIVEN))
    table += [
        (["spec", "--ring", Z], {"ring": Z} | PLAIN),
        (["construct", "supplement", "--n", "3"], {"what": "supplement", "n": 3, "field": "F2"} | PLAIN),
        (["verify", "all"], {"suite": "all", "seed": 0} | PLAIN),
        (["construct", "--n", "2", "supplement", "--field", "Q"],
         {"what": "supplement", "n": 2, "field": "Q"} | PLAIN),
        (["verify", "--seed", "2", "lying-over"], {"suite": "lying-over", "seed": 2} | PLAIN),
        (["closure", "--topology", "zariski", "--topology", "patch", "--ring", Z, "--set", FIVE],
         {"topology": "patch", "ring": Z, "set": FIVE} | PLAIN),
        *((["verify", "pz", "--seed", "1", "--seed", text], {"suite": "pz", "seed": seed} | PLAIN)
          for text, seed in (("-2", -2), (" 7", 7), ("1_000", 1000), ("+3", 3))),
        (["construct", "supplement", "--n", "-4", "--field", "-3"],
         {"what": "supplement", "n": -4, "field": "-3"} | PLAIN),
        (["spec", "--json", "--json", "--ring", Z, "--allow-big", "--allow-big"],
         {"ring": Z} | PLAIN | {"json": True, "limit": None}),
        # A value option takes the next token, whatever it is.
        *((["spec", "--ring", value], {"ring": value} | PLAIN)
          for value in ('{"kind": "Z"}', "-", "-1.5", "-x y", "--json", "-x", "--", "-h", "--json=x y")),
    ]
    return table


# Refused argvs and the error each gets: options the suites' fixed sizes
# and --json made redundant, then argparse's prefixes, "--flag=value",
# "--" and "-hx", which the grammar does not take.
NAMED_ERRORS = [
    (["verify", "pz", "--cases", "3"], "unrecognized arguments: --cases 3"),
    (["verify", "all", "--max-n", "4"], "unrecognized arguments: --max-n 4"),
    (["construct", "supplement", "--n", "3", "--report", "r.json"],
     "unrecognized arguments: --report r.json"),
    (["closure", "--top", "zariski", "--ri", Z, "--se", FIVE], "required: --topology, --ring, --set"),
    (["closure", "--topology=flat", "--r", Z, "--s", FIVE, "--j", "--a", "--tr"],
     "required: --topology, --ring, --set"),
    (["construct", "supplement", "--n", "2", "--f", "F5"], "unrecognized arguments: --f F5"),
    (["verify", "pz", "--s", "1", "--se", "4"], "unrecognized arguments: --s 1 --se 4"),
    (["verify", "pz", "--seed=7"], "unrecognized arguments: --seed=7"),
    (["spec", '--ring={"kind": "Z"}'], "required: --ring"),
    (["spec", "--ring="], "required: --ring"),
    (["verify", "--", "pz"], "unrecognized arguments: --"),
    (["verify", "pz", "--"], "unrecognized arguments: --"),
    (["verify", "--seed", "1", "--", "all"], "unrecognized arguments: --"),
    (["--he"], "invalid choice: '--he'"),
    (["construct", "--h"], "required: what, --n"),
    (["-x", "spec", "--help"], "invalid choice: '-x'"),
    (["verify", "pz", "-hx"], "unrecognized arguments: -hx"),
]
REFUSED = [
    [],
    ["bogus"],
    ["--json", "spec", "--ring", Z],
    ["-x", "spec", "--ring", Z],
    ["spec", "--ring", Z, "--bogus"],
    ["spec", "--bogus", "x", "--ring", Z],
    ["spec", "--bogus=x", "--ring", Z],
    ["spec", "-j", "--ring", Z],
    ["closure", "--ring", Z, "--set", FIVE],  # missing required option
    ["construct", "--n", "3"],
    ["construct"],
    ["verify"],
    ["verify", "--seed", "1"],
    ["spec", "--ring"],  # missing value
    ["verify", "pz", "--seed"],
    ["closure", "--topology", "euclidean", "--ring", Z, "--set", FIVE],  # bad choice
    ["stable", "--mode", "zariski", "--ring", Z, "--set", FIVE],
    ["criterion", "--mode", "patch", "--ring", Z],
    ["image", "--kind", "global", "--ring", Z, "--set", FIVE],
    ["construct", "other", "--n", "3"],
    ["verify", "nope"],
    ["verify", "-1"],
    ["verify", "--", "--seed"],
    ["construct", "supplement", "--n", "x"],  # not an int
    ["construct", "supplement", "--n", "3.0"],
    ["verify", "pz", "--seed", "1.5"],
    ["verify", "pz", "--seed", "ten"],
    ["verify", "pz", "--seed", ""],
    ["verify", "pz", "extra"],  # extra positional
    ["spec", "--ring", Z, "extra"],
    ["construct", "supplement", "supplement", "--n", "3"],
    ["verify", "pz", "--", "--seed", "1"],
    ["closure", "--t", "flat", "--ring", Z, "--set", FIVE],
    ["verify", "pz", "--", "all"],
    ["verify", "pz", "--seed", "0", "--"],
    ["spec", "--ring", Z, "--"],
    ["--", "verify", "pz"],
    ["spec", "--json=1", "--ring", Z],
    ["spec", "--allow-big=", "--ring", Z],
    ["spec", "--=x", "--ring", Z],
    ["spec", "--ring", Z, "--traceback=yes"],
    *(argv for argv, _ in NAMED_ERRORS),
]

HELP = [
    ["-h"], ["--help"], ["spec", "-h"], ["verify", "--help"], ["closure", "--bogus", "-h"],
    ["verify", "pz", "extra", "-h"], ["spec", "--ring", Z, "--json", "-h"],
]


def _outcome(argv):
    try:
        return vars(cli.parse_args(list(argv)))
    except SystemExit as exc:
        return exc.code


def test_table_parser_accepts_the_grammar(capsys):
    for argv, attrs in _accepted_table():
        expected = {"command": argv[0], "fn": cli.COMMANDS[argv[0]].fn} | attrs
        assert _outcome(argv) == expected, argv
    assert capsys.readouterr() == ("", "")


def test_table_parser_refuses_with_a_usage_line(capsys):
    errors = {tuple(argv): error for argv, error in NAMED_ERRORS}
    for argv in REFUSED:
        assert _outcome(argv) == 2, argv
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == "" and len(err) == 2, argv
        assert err[0].startswith("usage: spectop") and ": error: " in err[1]
        assert errors.get(tuple(argv), "") in err[1], argv


def test_help_exits_0_with_help_on_stdout(capsys):
    for argv in HELP:
        assert _outcome(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out.startswith("usage: spectop") and err == ""


def _canonical(attrs: dict) -> list[str]:
    """The argv that spells attrs out: the command, its positionals, each
    value option as "--flag value" in table order, then the switches set."""
    cmd = cli.COMMANDS[attrs["command"]]
    argv = [attrs["command"], *(attrs[o.dest] for o in cmd.positionals)]
    options = (*cmd.options, *cli._COMMON)
    argv += [tok for o in options if o.kind != cli._SWITCH for tok in (o.flag, str(attrs[o.dest]))]
    return argv + [o.flag for o in options if o.kind == cli._SWITCH and attrs[o.dest] == o.const]


# Tokens that reach every branch of the parser: commands, positionals,
# flags, near-flags ("--flag=value", prefixes, "-hx"), values that look
# like options or like negative numbers, "--" and help.
TOKENS = [
    "spec", "closure", "stable", "criterion", "image", "construct", "lyover", "verify",
    "supplement", "pz", "all", "flat", "zariski", "local", "generalization", "F3", "3", "x",
    Z, "{}", "a b", "-", "-1", "-2.5", "-x", "-j", "-h", "-hx", "-h=x", "--", "--=",
    "--help", "--he", "--help=", "--ring", "--r", "--ring=x", "--set", "--s", "--se", "--seed",
    "--seed=3", "--topology", "--top", "--t", "--tr", "--mode=flat", "--kind=local", "--n",
    "--n=1", "--no", "--no-oracle=", "--field", "--f", "--map", "--ma", "--prime",
    "--p", "--seed=x", "--m", "--json", "--j", "--json=1",
    "--allow-big", "--a", "--traceback", "--oracle", "--bogus",
]


@st.composite
def _argvs(draw):
    """Any tokens; or one command's groups and some common switches in any
    order, each value kept or drawn from TOKENS, with up to two tokens put in."""
    tokens = st.sampled_from(TOKENS)
    if draw(st.booleans()):
        return draw(st.lists(tokens, max_size=9))
    head, groups, _ = draw(st.sampled_from(FULL))
    groups = groups + [[flag] for flag in COMMON if draw(st.booleans())]
    argv = list(head)
    for flag, *value in draw(st.permutations(groups)):
        argv += [flag, *(draw(st.one_of(st.just(v), tokens)) for v in value)]
    for tok in draw(st.lists(tokens, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), tok)
    return argv


@settings(PROPERTY, max_examples=600)
@given(_argvs())
def test_any_argv_is_help_a_usage_error_or_its_canonical_form(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        outcome = _outcome(argv)
    out, err = out.getvalue(), err.getvalue().splitlines()
    if outcome == 0:
        assert out.startswith("usage: spectop") and err == []
    elif outcome == 2:
        assert out == "" and len(err) == 2
        assert err[0].startswith("usage: spectop") and ": error: " in err[1]
    else:
        assert (out, err) == ("", [])
        assert _outcome(_canonical(outcome)) == outcome


def test_help_names_every_command(capsys):
    assert _outcome(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: spectop")
    assert all(name in out for name in ("spec", "closure", "dense", "stable", "criterion",
                                        "image", "construct", "lyover", "verify"))


# The output and exit code of --help, of each command's --help and of
# three refusals, pinned while the parser still took argparse's prefixes,
# "=" and "--" rules: the grammar changed, the help and usage text did not.
HELP_AND_USAGE = [["--help"], *([name, "--help"] for name in cli.COMMANDS),
                  ["closure"], ["verify", "nope"], ["spec"]]


def test_help_and_usage_bytes_are_unchanged(capsys):
    digest = hashlib.sha256()
    for argv in HELP_AND_USAGE:
        code = _outcome(argv)
        out, err = capsys.readouterr()
        digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest()[:16] == "45a206b609f028f3"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_names_every_option_and_choice(capsys, command):
    assert _outcome([command, "--help"]) == 0
    out = capsys.readouterr().out
    cmd = cli.COMMANDS[command]
    assert "-h, --help" in out
    for o in (*cmd.positionals, *cmd.options, *cli._COMMON):
        assert o in cmd.positionals or o.flag in out
        assert all(choice in out for choice in o.choices)


def test_python_dash_m_spectop_help():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spectop", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: spectop") and "lyover" in proc.stdout


def _past_the_cap(signum, frame):
    raise TimeoutError("the query ran past its cap")


@pytest.mark.parametrize("gens", ["[]", "[[1,1]]", "[[1]]", "[[1],[0,1]]"])
@pytest.mark.parametrize("nvars", [0, 1, 2, 2**63, 2**64, 10**12, 10**30])
def test_localized_ring_of_any_nvars_answers_or_refuses_promptly(capsys, nvars, gens):
    # nvars = 2^64 once exited 3 with OverflowError: the dimension guard
    # built every pair of variables before it looked at one.
    ring = (
        '{"kind":"LocalizedAtIrrelevant","inner":{"kind":"MonomialQuotient",'
        f'"field":{{"kind":"Fp","p":2}},"nvars":{nvars},"gens":{gens}}}}}'
    )
    previous = signal.signal(signal.SIGALRM, _past_the_cap)
    signal.alarm(5)
    try:
        code, _, err = run(capsys, "spec", "--ring", ring)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2), err


def test_allow_big_refuses_what_ecm_leaves_whole_promptly(capsys):
    # ECM's schedule is the work budget: no curve splits a product of two
    # 100-bit primes, so it is refused, with the bit length of the cofactor.
    rng = Random(100)
    n = math.prod(primes.next_prime(rng.getrandbits(100) | 1 << 99) for _ in range(2))
    ring = json.dumps({"kind": "Zmod", "n": n})
    previous = signal.signal(signal.SIGALRM, _past_the_cap)
    signal.alarm(10)
    try:
        code, out, err = run(capsys, "spec", "--ring", ring, "--allow-big")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    bits = f"{n.bit_length()}-bit cofactor"
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and bits in err
    with pytest.raises(FactorizationLimitError, match=bits):
        primes.factorint(n, limit=None)
