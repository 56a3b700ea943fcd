import argparse
import functools
import hashlib
import io
import json
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

from conftest import PROPERTY, bench_queries
from spectop import cli, gfpoly, primes, products, suites
from spectop import spectrum as sp
from spectop import topology as top
from spectop.cli import (
    _cmd_closure, _cmd_construct, _cmd_criterion, _cmd_dense, _cmd_image, _cmd_lyover,
    _cmd_spec, _cmd_stable, _cmd_verify, run_command,
)

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


def test_construct_supplement(capsys, tmp_path):
    report = tmp_path / "rep.json"
    code, out, _ = run(
        capsys, "construct", "supplement", "--n", "3", "--field", "F2",
        "--report", str(report),
    )
    assert code == 0
    assert "all statements hold: True" in out
    assert "2^n cover oracle: ran and agrees" in out
    doc = json.loads(report.read_text())
    assert doc["allOk"] is True and doc["dim"] == 1


def test_construct_supplement_says_when_the_oracle_is_skipped(capsys):
    code, out, _ = run(capsys, "construct", "supplement", "--n", "3", "--no-oracle")
    assert code == 0
    assert "2^n cover oracle: skipped (--no-oracle)" in out
    # The JSON report does not depend on whether the oracle ran.
    with_oracle = run(capsys, "construct", "supplement", "--n", "3", "--json")
    without = run(capsys, "construct", "supplement", "--n", "3", "--json", "--no-oracle")
    assert with_oracle == without


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
    code1, out1, _ = run(capsys, "verify", "density", "--seed", "5", "--cases", "10", "--json")
    code2, out2, _ = run(capsys, "verify", "density", "--seed", "5", "--cases", "10", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "flags,digest",
    [
        pytest.param(["--seed", "0"], "b3071f872a0016d1", id="0-b3071f872a0016d1"),
        pytest.param(["--seed", "7"], "f3cad6a4b2187fb9", id="7-f3cad6a4b2187fb9"),
        pytest.param(
            ["--cases", "5", "--max-n", "4"], "6ae3375edb22a4ed", id="cases5-maxn4-6ae3375edb22a4ed"
        ),
    ],
)
def test_verify_all_json_bytes(capsys, flags, digest):
    # The report bytes recorded before the ring rules moved into the ring
    # classes; any change of answer changes them.
    code, out, _ = run(capsys, "verify", "all", "--json", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


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
    (("construct", "supplement", "--n", "3", "--field", "Q", "--no-oracle"),
     "axes ring over Q with n = 3\n"
     "  defining ideal = intersection of the axis primes: True\n"
     "  minimal primes: (x1,x2), (x1,x3), (x2,x3)\n  2^n cover oracle: skipped (--no-oracle)\n"
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


def test_construct_report_and_json_print_the_same_document(capsys, tmp_path):
    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "construct", "supplement", "--n", "3", "--report", str(report),
                       "--json")
    assert code == 0 and out == report.read_text() + "\n"


QUERY_MIX = Path(__file__).resolve().parents[1] / "bench" / "expected" / "query-mix.json"


def test_query_catalog_outcomes_match_the_benchmark_record(capsys):
    # The bytes the query-mix benchmark checks, for the first entries of
    # each query class: "code:digest" as bench/workloads.outcome_key.
    queries = bench_queries()
    recorded = json.loads(QUERY_MIX.read_text())
    skipped = set(recorded["known_failures"])
    checked = 0
    for cls, _, _ in queries.CLASSES:
        for i in range(15):
            q = queries.entry(cls, i)
            if q.id in skipped:
                continue
            code, out, _ = run(capsys, *q.argv)
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            assert f"{code}:{digest}" == recorded["outcomes"][q.id], q.id
            checked += 1
    assert checked == 15 * len(queries.CLASSES) - len(skipped)


@pytest.mark.parametrize("cls", ["fppoly-closure", "cofinite", "criterion"])
def test_every_irreducibility_query_matches_the_benchmark_record(capsys, cls):
    # Every catalog entry of the classes that run Ben-Or's test on points
    # of F_p[x] (or, for criterion, may): the bytes that query-mix checks.
    queries = bench_queries()
    recorded = json.loads(QUERY_MIX.read_text())
    size = next(size for name, _, size in queries.CLASSES if name == cls)
    for i in range(size):
        q = queries.entry(cls, i)
        code, out, _ = run(capsys, *q.argv)
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert f"{code}:{digest}" == recorded["outcomes"][q.id], q.id


def test_suite_type_error_is_an_internal_error(monkeypatch, capsys):
    # A TypeError is not an input error: it must not become exit 2, nor
    # exit 1, which reads as a failed verification.
    from spectop import suites

    def broken_pz(seed=0, cases=None, **_):
        if cases is not None:
            raise TypeError("bug inside the suite")
        return suites.suite_pz(seed=seed)

    monkeypatch.setitem(suites.SUITES, "pz", broken_pz)
    code, out, err = run(capsys, "verify", "pz", "--cases", "3")
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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "pz", "--cases", "-3"],
        ["verify", "density", "--cases", "0"],
        ["verify", "oracle-agreement", "--max-n", "-3"],
        ["verify", "all", "--max-n", "0"],
    ],
    ids=["pz-cases-3", "density-cases0", "oracle-max-n-3", "all-max-n0"],
)
def test_suite_sizes_below_one_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be at least 1" in err
    assert "\n" not in err.rstrip("\n")


@pytest.mark.parametrize(
    "suite,flag,value",
    [
        ("closure-axioms", "--max-n", "2"),
        ("pz", "--cases", "5"),
        ("remark-v5", "--cases", "3"),
    ],
)
def test_size_flag_the_suite_does_not_take_exits_2(capsys, suite, flag, value):
    # A flag with no effect on the named suite is refused, not dropped.
    code, out, err = run(capsys, "verify", suite, flag, value, "--json")
    assert (code, out) == (2, "")
    assert err == f"error: verify {suite} takes no {flag}\n"


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
        ["construct", "supplement", "--n", "3", "--report", "/nonexistent/dir/r.json"],
        ["spec", "--ring", "/nonexistent.json"],
        ["spec", "--ring", '{"kind":"FpPoly","p":4}'],
        ["spec", "--ring", '{"kind":"MonomialQuotient","field":{"kind":"Fp","p":2},'
                           '"nvars":2,"gens":[[0,0]]}'],
        ["spec", "--ring", '{"kind":"MonomialQuotient","field":' + Z + ',"nvars":2,"gens":[[1,1]]}'],
        ["spec", "--ring", '{"kind":"SymbolicSupplement","field":' + Z + "}"],
        ["spec", "--ring", '{"kind":"Product","factors":[]}'],
    ],
    ids=["field-Fx", "report-path", "ring-path", "fppoly-composite-p", "constant-generator",
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
    # built.  Without the oracle nothing else refuses this n, and the
    # report at n = 512 would take over 10 s: the intersection fold alone
    # takes about 12 s there on a 2-vCPU host.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spectop", "construct", "supplement", "--n", "512", "--no-oracle"],
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


# The argparse parser the command table replaced, kept as the reference:
# the table's parser must accept what it accepted, with the same
# attributes, and refuse what it refused, with exit 2.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The spectop argument parser, built on first use and shared by every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    common.add_argument(  # args.limit is the bound handed to the decoders
        "--allow-big", action="store_const", const=None, default=primes.DEFAULT_LIMIT,
        dest="limit", help="lift the 64-bit factorization bound (arbitrary precision)",
    )
    common.add_argument(
        "--traceback", action="store_true", help="print the traceback of an internal error"
    )

    parser = argparse.ArgumentParser(
        prog="spectop",
        description="exact closures and spectral images over concrete commutative rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spec", parents=[common], help="enumerate or describe a spectrum")
    p.add_argument("--ring", required=True)
    p.set_defaults(fn=_cmd_spec)

    p = sub.add_parser("closure", parents=[common], help="closure of a subset")
    p.add_argument("--topology", choices=top.TOPOLOGIES, required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("dense", parents=[common], help="density of a subset")
    p.add_argument("--topology", choices=top.TOPOLOGIES, required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(fn=_cmd_dense)

    p = sub.add_parser("stable", parents=[common], help="stability of a subset")
    p.add_argument(
        "--mode", choices=(top.SPECIALIZATION, top.GENERALIZATION), required=True
    )
    p.add_argument("--ring", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(fn=_cmd_stable)

    p = sub.add_parser("criterion", parents=[common], help="every-infinite-subset-dense test")
    p.add_argument("--mode", choices=(top.ZARISKI, top.FLAT), required=True)
    p.add_argument("--ring", required=True)
    p.set_defaults(fn=_cmd_criterion)

    p = sub.add_parser("image", parents=[common], help="Im pi* for a canonical product map")
    p.add_argument("--kind", choices=(products.QUOTIENT, products.LOCAL), required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with tame enumeration")
    p.set_defaults(fn=_cmd_image)

    p = sub.add_parser("construct", parents=[common], help="build and verify a named ring")
    p.add_argument("what", choices=("supplement",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", default="F2", help="Q or F<p> (default F2)")
    p.add_argument("--report", help="write the JSON report to this file")
    p.add_argument("--no-oracle", action="store_true", help="skip the 2^n cover oracle")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("lyover", parents=[common], help="find a prime lying over a minimal prime")
    p.add_argument("--map", required=True)
    p.add_argument("--prime", required=True)
    p.set_defaults(fn=_cmd_lyover)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.set_defaults(fn=_cmd_verify)

    return parser


MAP = '{"type":"diagonalIntoModProduct","n":6,"divisors":[2,3]}'
PRIME = '{"type":"zmodPrime","p":2}'
COMMON = ["--json", "--allow-big", "--traceback"]
# Each command with every option: the command and its positionals, then
# one group per option.
FULL = [
    (["spec"], [["--ring", Z]]),
    (["closure"], [["--topology", "flat"], ["--ring", Z], ["--set", FIVE]]),
    (["dense"], [["--topology", "patch"], ["--ring", Z], ["--set", FIVE]]),
    (["stable"], [["--mode", "generalization"], ["--ring", Z], ["--set", FIVE]]),
    (["criterion"], [["--mode", "zariski"], ["--ring", Z]]),
    (["image"], [["--kind", "local"], ["--ring", Z], ["--set", FIVE], ["--oracle"]]),
    (["construct", "supplement"],
     [["--n", "3"], ["--field", "F3"], ["--report", "r.json"], ["--no-oracle"]]),
    (["lyover"], [["--map", MAP], ["--prime", PRIME]]),
    (["verify", "pz"], [["--seed", "3"], ["--cases", "4"], ["--max-n", "5"]]),
]


def _accepted_corpus():
    rng = Random(0)
    corpus = []
    for head, groups in FULL:
        groups = groups + [[flag] for flag in COMMON]
        corpus.append(head + [tok for g in groups for tok in g])
        shuffled = rng.sample(groups, len(groups))
        corpus.append(head + [tok for g in shuffled for tok in g])
        corpus.append(head + [tok for g in reversed(groups) for tok in g])
        corpus.append(head + ["=".join(g) for g in groups])  # --opt=value
        # Positionals after the options.
        corpus.append([head[0]] + [tok for g in groups for tok in g] + head[1:])
        # Repeated options: the last one wins.
        corpus.append(head + [tok for g in groups + groups[::-1] for tok in g])
    corpus += [
        ["spec", "--ring", Z],
        ["construct", "supplement", "--n", "3"],
        ["verify", "all"],
        ["construct", "--n", "2", "supplement", "--field", "Q"],
        ["verify", "--seed", "2", "lying-over", "--cases", "1"],
        ["closure", "--top", "zariski", "--ri", Z, "--se", FIVE],  # unique prefixes
        ["closure", "--topology=flat", "--r", Z, "--s", FIVE, "--j", "--a", "--tr"],
        ["construct", "supplement", "--no", "--n", "2", "--f", "F5", "--rep", "out.json"],
        ["verify", "pz", "--s", "1", "--c", "2", "--m", "3", "--max", "4"],
        ["closure", "--topology", "zariski", "--topology", "patch", "--ring", Z, "--set", FIVE],
        ["verify", "pz", "--seed", "1", "--seed", "-2", "--seed=7"],
        ["verify", "pz", "--seed", " 7", "--cases", "1_000", "--max-n", "+3"],
        ["construct", "supplement", "--n", "-4", "--field", "-3"],
        ["spec", "--ring", '{"kind": "Z"}'],
        ["spec", '--ring={"kind": "Z"}'],
        ["spec", "--ring="],
        ["spec", "--ring", "-"],
        ["spec", "--ring", "-1.5"],
        ["spec", "--ring", "-x y"],
        ["verify", "--", "pz"],
        ["verify", "pz", "--"],
        ["verify", "--seed", "1", "--", "all"],
        ["spec", "--json", "--json", "--ring", Z, "--allow-big", "--allow-big"],
    ]
    return corpus


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
    ["spec", "--ring", "--json"],
    ["spec", "--ring", "-x"],
    ["spec", "--ring", "--"],
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
    ["verify", "pz", "--cases", "ten"],
    ["verify", "pz", "--max-n", ""],
    ["verify", "pz", "--seed="],
    ["verify", "pz", "extra"],  # extra positional
    ["spec", "--ring", Z, "extra"],
    ["construct", "supplement", "supplement", "--n", "3"],
    ["verify", "pz", "--", "--seed", "1"],
    ["closure", "--t", "flat", "--ring", Z, "--set", FIVE],  # ambiguous prefix
    ["verify", "pz", "--", "all"],
    ["verify", "pz", "--seed", "0", "--"],  # a "--" not next to a positional
    ["spec", "--ring", Z, "--"],
    ["--", "verify", "pz"],
    ["spec", "--ring", "--json=x y"],
    ["spec", "--json=1", "--ring", Z],
    ["spec", "--allow-big=", "--ring", Z],
    ["spec", "--=x", "--ring", Z],
    ["spec", "--ring", Z, "--traceback=yes"],
]

HELP = [
    ["-h"], ["--help"], ["--he"], ["spec", "-h"], ["verify", "--help"], ["construct", "--h"],
    ["closure", "--bogus", "-h"], ["-x", "spec", "--help"], ["verify", "pz", "extra", "-h"],
]


def _outcome(parse, argv):
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code


def _disagreements(capsys, corpus):
    found = []
    for argv in corpus:
        new, old = _outcome(cli.parse_args, argv), _outcome(build_parser().parse_args, argv)
        if new != old or isinstance(new, dict) and new["fn"] is not old["fn"]:
            found.append((argv, new, old))
    capsys.readouterr()
    return found


def test_table_parser_accepts_what_argparse_accepted(capsys):
    corpus = _accepted_corpus()
    assert _disagreements(capsys, corpus) == []
    assert all(isinstance(_outcome(cli.parse_args, argv), dict) for argv in corpus)
    capsys.readouterr()


def test_table_parser_refuses_what_argparse_refused(capsys):
    assert _disagreements(capsys, REFUSED) == []
    for argv in REFUSED:
        assert _outcome(cli.parse_args, argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("usage: spectop") and ": error: " in err[1]


def test_help_exits_0_where_argparse_did(capsys):
    assert _disagreements(capsys, HELP) == []
    assert {_outcome(cli.parse_args, argv) for argv in HELP} == {0}
    capsys.readouterr()


# Tokens that reach every branch of both parsers: commands, positionals,
# flags and their prefixes, "=" forms, values that look like options or
# like negative numbers, "--" and help.
TOKENS = [
    "spec", "closure", "stable", "criterion", "image", "construct", "lyover", "verify",
    "supplement", "pz", "all", "flat", "zariski", "local", "generalization", "F3", "3", "x",
    Z, "{}", "a b", "-", "-1", "-2.5", "-x", "-j", "-h", "-hx", "-h=x", "--", "--=",
    "--help", "--he", "--help=", "--ring", "--r", "--ring=x", "--set", "--s", "--se", "--seed",
    "--seed=3", "--topology", "--top", "--t", "--tr", "--mode=flat", "--kind=local", "--n",
    "--n=1", "--no", "--no-oracle=", "--field", "--f", "--report", "--map", "--ma", "--prime",
    "--p", "--cases", "--c", "--cases=x", "--max-n", "--m", "--json", "--j", "--json=1",
    "--allow-big", "--a", "--traceback", "--oracle", "--bogus",
]


@settings(PROPERTY, max_examples=600)
@given(st.lists(st.sampled_from(TOKENS), max_size=9))
def test_table_parser_agrees_with_argparse_on_any_argv(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        new, old = _outcome(cli.parse_args, argv), _outcome(build_parser().parse_args, argv)
    assert new == old
    assert not isinstance(new, dict) or new["fn"] is old["fn"]


def test_help_names_every_command(capsys):
    assert _outcome(cli.parse_args, ["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: spectop")
    assert all(name in out for name in ("spec", "closure", "dense", "stable", "criterion",
                                        "image", "construct", "lyover", "verify"))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_names_every_option_and_choice(capsys, command):
    assert _outcome(cli.parse_args, [command, "--help"]) == 0
    out = capsys.readouterr().out
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    for action in parser._actions:
        assert all(flag in out for flag in action.option_strings)
        assert all(choice in out for choice in action.choices or ())


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
    raise TimeoutError("the query ran past its 5 s cap")


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
