"""What the engine's own traffic runs, and why the rest of src/spectop stays.

The traffic is what the engine is for: every query of the benchmark's
catalog (bench/queries.py, only read), `verify all --json` at seeds 0 and 7,
`construct supplement` at n = 5, 8 and 64, and every demo.  It runs in
this process, on a fresh import of spectop, under a tracer that records
only the functions it enters.

Every function that ast finds in src/spectop must be entered, be exempt
(a dunder method, or a body that only raises), or be named in KEEP with
its reason.  A KEEP entry that the traffic enters, or that no longer
exists, fails too, so the table is exactly what runs outside the traffic.

The same replay digests what the catalog queries print, so the bytes the
wire layer writes are pinned as well, and checks each query's outcome
against the benchmark's record and the answer its generator knows.
"""

import ast
import contextlib
import functools
import hashlib
import importlib
import io
import json
import runpy
import sys
from pathlib import Path

from conftest import bench_queries

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spectop"

TRAFFIC = (
    ["verify", "all", "--json", "--seed", "0"],
    ["verify", "all", "--json", "--seed", "7"],
    ["construct", "supplement", "--n", "5"],
    ["construct", "supplement", "--n", "8"],
    ["construct", "supplement", "--n", "64"],
)

# A reason starts with its kind:
#   traced   bench/tracer.py traces it, and test_tracer_targets pins the name;
#   refusal  an input error's path;
#   usage    --help, the usage line, the console script, or what a command
#            prints without --json;
#   oracle   a test checks other code against it;
#   rule     an operator the traffic enters asks it for a ring or map kind
#            the traffic does not bring there, on an input it admits;
#   wire     the half of a wire row that the traffic does not use;
#   bench    bench/ calls it.
KINDS = ("traced", "refusal", "usage", "oracle", "rule", "wire", "bench")

Z_POINT = "rule: point_contains on a point of Z"
FPX_POINT = "rule: point_contains on a point of GF(p)[x]"
PRINCIPAL_BRANCH = "traced: the principal branch of ideal_member, which rings.ideal_contains takes"
POINT_IDEAL = ("oracle: point_ideal, whose meets tests check the Zariski closure V(meet E) "
               "and injectivity against")
MUL = "oracle: the square-and-multiply default of power, and the oracle of every override"

KEEP = {
    "cli._cmd_criterion.<locals>.human": "usage: what criterion prints without --json",
    "cli._cmd_image.<locals>.human": "usage: what image prints without --json",
    "cli._help": "usage: --help",
    "cli._term": "usage: an option as the usage line and --help show it",
    "cli._usage": "usage: the usage line, printed with --help and before a refusal",
    "cli._usage_error": "refusal: an argument the parser refuses exits 2",
    "cli.main": "usage: the console script; the traffic calls run_command",
    "gfpoly._equal_degree_split": "rule: factor on a polynomial with two irreducible "
    "factors of one degree",
    "gfpoly.divides": FPX_POINT,
    "gfpoly.divmod_": "rule: factor's exact division, on a polynomial with a repeated factor "
    "or with more than one irreducible factor",
    "gfpoly.mod": FPX_POINT,
    "jsonio._coeff": "wire: reading an mpoly coefficient",
    "jsonio._fraction": "wire: reading a rat element or an mpoly coefficient",
    "jsonio._int_element": "wire: reading an int element",
    "jsonio._padded_exponents": "wire: writing a MonomialQuotient ring",
    "jsonio._term": "wire: reading an mpoly term",
    "jsonio._tuple_items": "wire: reading a tuple element",
    "jsonio.element_from_json": "wire: reading an element",
    "jsonio.supplement_report_to_json": "bench: bench/workloads.py digests the report; "
    "construct prints it with --json",
    "maps.DiagonalIntoModProduct._not_in_slot": "refusal: a tame prime outside its Z/d",
    "maps.QuotientMap._contract": "rule: contraction along R -> R/p",
    "maps.QuotientMap.contract": "rule: contraction along R -> R/p",
    "maps.QuotientMap.symbolic_lying_over": "rule: lying over along R -> R/p",
    "maps.QuotientMap.tame_points": "rule: lying over along R -> R/p",
    "maps.ResidueMap.symbolic_lying_over": "rule: lying over along R -> k(p)",
    "maps.ResidueMap.tame_points": "rule: lying over along R -> k(p)",
    "maps._PrimeMap.is_injective": "rule: injectivity of R -> R/p and R -> k(p)",
    "rings.IntegerRing._generator": Z_POINT,
    "rings.IntegerRing.mul": MUL,
    "rings.IntegerRing.principal_ideal": "rule: principal_ideal over Z",
    "rings.IntegerRing.principal_intersect": "rule: ideal_intersect of two ideals of Z",
    "rings.IntegerRing.principal_member": Z_POINT,
    "rings.IntegerRing.sample_element": "rule: sample_elements over Z",
    "rings.ModRing.is_unit": "rule: is_unit over Z/n",
    "rings.ModRing.principal_member": PRINCIPAL_BRANCH,
    "rings.ModRing.residue_field": "rule: residue_field over Z/n",
    "rings.MonomialQuotient._enumerate": "rule: the spectrum of an unlocalized quotient",
    "rings.MonomialQuotient.is_enumerable": "rule: the spectrum of an unlocalized quotient",
    "rings.MonomialQuotient.is_unit": "rule: is_unit over an unlocalized monomial quotient",
    "rings.PolyRingOverPrimeField._generator": FPX_POINT,
    "rings.PolyRingOverPrimeField.closed_points": "rule: lying over along R -> prod R_p "
    "over a cofinite set of GF(p)[x]",
    "rings.PolyRingOverPrimeField.mul": MUL,
    "rings.PolyRingOverPrimeField.principal_ideal": "rule: principal_ideal over GF(p)[x]",
    "rings.PolyRingOverPrimeField.principal_intersect": "rule: ideal_intersect of two ideals "
    "of GF(p)[x]",
    "rings.PolyRingOverPrimeField.principal_member": FPX_POINT,
    "rings.PolyRingOverPrimeField.sample_element": "rule: sample_elements over GF(p)[x]",
    "rings.PrimeField.modulus": "rule: the residue arithmetic of F_p",
    "rings.Product._contains": "rule: point_contains and v_locus on a product",
    "rings.Product.is_reduced": "rule: is_reduced and injectivity over a product",
    "rings.Product.is_unit": "rule: is_unit over a product",
    "rings.Product.krull_dim": "rule: krull_dim of a product",
    "rings.Product.mul": MUL,
    "rings.Product.normalize": "rule: the element functions over a product",
    "rings.Product.residue_field": "rule: residue_field over a product",
    "rings.RationalField.from_int": "rule: zero and one of Q",
    "rings.RationalField.mul": MUL,
    "rings.RationalField.normalize": "wire: reading a rat element",
    "rings.RationalField.sample_element": "rule: sample_elements over Q",
    "rings.RingExpr.is_nilpotent": "rule: is_nilpotent on the reduced families",
    "rings.RingExpr.power": "rule: power on Z, Q, GF(p)[x] and a monomial ring off p^j, "
    "which the nilradical check asks of a product's factors",
    "rings.RingExpr.sample_points": "rule: sample_points on an enumerable spectrum",
    "rings.SymbolicSupplement.residue_field": "rule: residue_field on the axes ring",
    "rings._Dedekind._contains": "rule: point_contains on a point of Z or GF(p)[x]",
    "rings._Dedekind.point_ideal": POINT_IDEAL,
    "rings._Field._contains": "rule: point_contains and v_locus on Q and F_p",
    "rings._Field.is_unit": "rule: is_unit over Q and F_p",
    "rings._Field.point_ideal": POINT_IDEAL,
    "rings._Field.principal_ideal": "rule: principal_ideal over Q and F_p",
    "rings._Field.principal_intersect": "rule: ideal_intersect of two ideals of Q or F_p",
    "rings._Field.principal_member": PRINCIPAL_BRANCH,
    "rings._Field.residue_field": "rule: residue_field over Q and F_p",
    "rings._Monomial.monomial_ideal_is_zero": "oracle: ideal_is_zero",
    "rings._Monomial.monomial_member": "oracle: ideal_member, which tests meet "
    "ideal_intersect against",
    "rings._Monomial.mul": MUL,
    "rings._Quotient._contains": "rule: point_contains and v_locus on a monomial quotient",
    "rings._Quotient.point_ideal": POINT_IDEAL,
    "rings._Residue.mul": MUL,
    "rings._Symbolic.krull_dim": "rule: krull_dim of Z, GF(p)[x] and the axes ring",
    "rings._ZeroDimensional.krull_dim": "rule: krull_dim of Z/n and the fields",
    "rings._int_divides": Z_POINT,
    "spectrum.leq_specialization": "traced: spectrum.leq_specialization",
    "spectrum.point_ideal": POINT_IDEAL,
    "values.ideal_contains": "traced: rings.ideal_contains",
    "values.ideal_is_zero": "oracle: tests/test_maps.py checks is_injective with the "
    "meet of the point ideals",
    "values.ideal_member": "traced: the principal branch of rings.ideal_contains",
    "values.is_zero": "rule: point_contains and v_locus on Q and F_p, through their _contains",
    "values.monomial_ideal": "traced: rings.monomial_ideal",
}


def _functions() -> dict[tuple[str, int, str], tuple[str, ast.AST]]:
    """Every function ast finds in src/spectop, keyed as its code object
    is (file, first line, name), with its dotted name and node.  A
    decorated function's code starts at its first decorator."""
    found = {}

    def walk(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first, child.name] = (f"{path.stem}.{name}", child)
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def _exempt(node) -> bool:
    """A dunder method, or a body that only raises (after a docstring)."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


@contextlib.contextmanager
def _fresh_spectop():
    """spectop imported anew, so its import and its first cache fills run
    as in a new process; the modules the other tests hold come back after."""
    def ours():
        return [k for k in sys.modules if k.partition(".")[0] == "spectop"]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        yield
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def _keys(codes) -> set:
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}


@functools.cache
def _replay() -> tuple[set, str, list]:
    """The functions the traffic enters, keyed as _functions keys them,
    with one record per call, no line events, and the previous tracer
    back afterwards; the catalog digest, the first 16 hex digits of sha256
    over id, exit code and standard output, each ended by a NUL, of every
    catalog entry; and each entry's (query, exit code, standard output)."""
    catalog = bench_queries().catalog()
    demos = sorted((ROOT / "demos").glob("*.py"))
    codes, digest, outcomes = set(), hashlib.sha256(), []

    def tracer(frame, event, arg):
        codes.add(frame.f_code)

    previous = sys.gettrace()
    with _fresh_spectop():
        sys.settrace(tracer)
        try:
            cli = importlib.import_module("spectop.cli")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                for q in catalog:
                    code = cli.run_command(list(q.argv))
                    outcomes.append((q, code, out.getvalue()))
                    digest.update(f"{q.id}\0{code}\0{out.getvalue()}\0".encode())
                    out.seek(0)
                    out.truncate()
                for argv in TRAFFIC:
                    cli.run_command(list(argv))
                for demo in demos:
                    runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.settrace(previous)
    return _keys(codes), digest.hexdigest()[:16], outcomes


def test_every_function_the_traffic_skips_has_a_reason():
    functions = _functions()
    entered = _replay()[0]
    names = {name for name, _ in functions.values()}
    skipped = {
        name for key, (name, node) in functions.items() if key not in entered and not _exempt(node)
    }
    faults = {
        "never entered, and not in KEEP": skipped - KEEP.keys(),
        "in KEEP, but not in src/spectop": KEEP.keys() - names,
        "in KEEP, but entered or exempt": KEEP.keys() & names - skipped,
    }
    assert not any(faults.values()), "; ".join(
        f"{what}: {', '.join(sorted(found))}" for what, found in faults.items() if found
    )


def test_catalog_digest_is_byte_stable():
    # Every catalog query's exit code and output, as the wire layer writes
    # them: a change to a row, a plan or the canonical text shows here.
    assert _replay()[1] == "03ef72f20261ea0c"


def test_every_reason_names_its_kind():
    # And every kind has an entry, so a kind that no entry uses cannot linger.
    assert [k for k, why in KEEP.items() if why.split(":")[0] not in KINDS] == []
    assert {why.split(":")[0] for why in KEEP.values()} == set(KINDS)


QUERY_MIX = ROOT / "bench" / "expected" / "query-mix.json"


def test_catalog_outcomes_match_the_benchmark_record():
    # What the query-mix benchmark checks, for every catalog entry outside
    # its known failures: the bytes, as "code:digest" of
    # bench/workloads.outcome_key, and the answer the generator knows, as
    # queries.known_ok decides it.
    queries = bench_queries()
    recorded = json.loads(QUERY_MIX.read_text())
    skipped = set(recorded["known_failures"])
    checked = 0
    for q, code, out in _replay()[2]:
        if q.id in skipped:
            continue
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert f"{code}:{digest}" == recorded["outcomes"][q.id], q.id
        assert q.known is None or queries.known_ok(q.known, code, out), q.id
        checked += 1
    assert checked == sum(size for _, _, size in queries.CLASSES) - len(skipped)
