"""The known wrong answers, each a strict expected failure.

Each entry runs one reproduced argv through cli.run_command, in process,
and asserts what the engine should do.  It does something else today, so
the entry is marked xfail(strict=True), with the open ROADMAP item that
owns the fix as its reason.  A fix makes its entry pass, which fails the
run until the fixing change removes the marker: the list cannot go stale,
and the summary line counts the known wrong answers as xfailed.  A fixed
entry stays, unmarked, so the fix stays checked.

An entry needs a reproduced argv and the item that owns its fix; a new
regression is fixed, not listed here.
"""

import pytest

from spectop.cli import run_command

# psi_13 = 1287836182261 * 2575672364521, the least composite that is a
# strong probable prime to each of the first 13 prime bases, 2..41
# (Sorenson and Webster, Math. Comp. 2017): is_prime decides only below it.
PSI_13 = 3317044064679887385961981
FACTORS = (1287836182261, 2575672364521)

WILD = "ROADMAP: Wild primes by their contraction"

ALL_CLOSED_POINTS = '{"type":"cofiniteClosed","excluded":[],"withGeneric":false}'


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused(code, out, err) -> bool:
    """Exit 2, nothing printed, and one `error:` line."""
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ("spec", "--ring", f'{{"kind":"Fp","p":{PSI_13}}}'),
            id="fp-characteristic",
        ),
        pytest.param(
            ("spec", "--ring", f'{{"kind":"FpPoly","p":{PSI_13}}}'),
            id="fppoly-characteristic",
        ),
        pytest.param(
            ("closure", "--topology", "zariski", "--ring", '{"kind":"Z"}',
             "--set", f'{{"type":"explicit","points":[{{"type":"zMax","p":{PSI_13}}}]}}'),
            id="zmax-point",
        ),
        pytest.param(
            # The characteristic is refused before Ben-Or's test of the point
            # could meet a leading coefficient with no inverse mod psi_13.
            ("closure", "--topology", "zariski", "--ring", f'{{"kind":"FpPoly","p":{PSI_13}}}',
             "--set", '{"type":"explicit","points":[{"type":"fpxMax","coeffs":[2,0,1,1]}]}',
             "--json"),
            id="fppoly-closure-point",
        ),
    ],
)
def test_psi_13_is_refused_as_a_prime(capsys, argv):
    assert refused(*run(capsys, *argv))


def test_psi_13_modulus_has_both_prime_points(capsys):
    code, out, err = run(capsys, "spec", "--ring", f'{{"kind":"Zmod","n":{PSI_13}}}',
                         "--allow-big")
    assert (code, err) == (0, "")
    assert out == f"Spec(Z/{PSI_13}) = {{({FACTORS[0]}), ({FACTORS[1]})}}\n"


@pytest.mark.xfail(strict=True, reason=WILD)
def test_generic_point_of_z_has_a_wild_prime_over_it(capsys):
    # Only wild primes of prod Z/p over every closed point lie over (0).
    m = f'{{"type":"canonicalIntoQuotientProduct","ring":{{"kind":"Z"}},"set":{ALL_CLOSED_POINTS}}}'
    code, out, err = run(capsys, "lyover", "--map", m, "--prime", '{"type":"zGeneric"}')
    assert (code, err) == (0, "")
    assert " lies over (0) along Z -> " in out
