"""The package keeps no process state: no function rebinds a module-level
or enclosing name, so every result depends only on the arguments."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spectop"


def test_no_global_or_nonlocal_statements():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert found == []


def _callee_name(node):
    """The name a decorator or a call refers to, without its module."""
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def test_no_engine_error_is_caught_outside_the_cli():
    # A caught SpectopError could turn an engine bug into an answer; only
    # the CLI turns these errors into exit codes.  The lying-over suite
    # alone catches one, a refused lying over, and records it as a failing
    # case: a verdict of "failed", never an answer.
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    names = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    found = [
        (str(path.relative_to(SRC)), caught)
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and (caught := names & {_callee_name(n) for n in ast.walk(node.type)})
    ]
    assert found == [("suites.py", {"LyingOverNotFoundError"})]


def test_only_the_ring_layer_reads_the_limit_side():
    # The side of a symbolic spectrum's limit point is stated by the ring
    # (reach, locus) and read where a set is built, printed or encoded, and
    # by the maps' lying-over rules.  Topology, products, construction,
    # suites and the CLI ask reach instead of restating it.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name not in ("rings.py", "spectrum.py", "jsonio.py", "maps.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("limit_above", "with_limit")
    ]
    assert found == []


def test_every_memo_table_is_bounded():
    # An lru_cache names a maxsize other than None, so a long-lived process
    # keeps bounded tables; an unbounded cache may only hold the one result
    # of a function without arguments.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                name = _callee_name(dec)
                where = f"{path.relative_to(SRC)}:{fn.name}"
                if name == "lru_cache":
                    args = dec.args if isinstance(dec, ast.Call) else []
                    keywords = dec.keywords if isinstance(dec, ast.Call) else []
                    size = next((k.value for k in keywords if k.arg == "maxsize"), None)
                    size = args[0] if args else size
                    if size is None or isinstance(size, ast.Constant) and size.value is None:
                        found.append(where)
                elif name == "cache":
                    a = fn.args
                    if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                        found.append(where)
    assert found == []


def _ring_class_names() -> set[str]:
    """RingExpr and every class in rings.py derived from it."""
    tree = ast.parse((SRC / "rings.py").read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    names = {"RingExpr"}
    size = 0
    while size != len(names):
        size = len(names)
        names |= {c.name for c in classes if names & {_callee_name(b) for b in c.bases}}
    return names


def test_no_memo_is_keyed_by_a_ring():
    # Each ring keeps its own spectrum and order tables.  A memo keyed by
    # ring value would hash the ring's fields on every lookup and keep
    # rings alive after their use.
    ring_classes = _ring_class_names()
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not {_callee_name(dec) for dec in fn.decorator_list} & {"lru_cache", "cache"}:
                continue
            params = fn.args.posonlyargs + fn.args.args
            if params and (params[0].arg == "R" or _annotation_names(params[0].annotation) & ring_classes):
                found.append(f"{path.relative_to(SRC)}:{fn.name}")
    assert found == []


def _calls_outside(callee: str, module: str, builder: str) -> list[str]:
    """Where the package calls `callee` outside the function `builder` of
    `module`."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == module:
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == builder:
                    allowed |= {id(node) for node in ast.walk(fn)}
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _callee_name(node) == callee
            and id(node) not in allowed
        ]
    return found


def test_only_the_canonicalizers_build_subsets():
    # Each set has one value only because every subset passes through
    # spectrum._subset, which stores a cofinite set over a ring that is not
    # symbolic as the finite set it is.
    assert _calls_outside("SpecSubset", "spectrum.py", "_subset") == []


def test_only_zmod_builds_residue_rings():
    # ModRing does not test its factors for primality: they are the primes
    # factorint certified, which only rings.zmod hands it.
    assert _calls_outside("ModRing", "rings.py", "zmod") == []


def _annotation_names(annotation) -> set[str]:
    """The names an annotation mentions, read from its source text: with
    `from __future__ import annotations` every annotation is a string."""
    if annotation is None:
        return set()
    return set(re.findall(r"\w+", ast.unparse(annotation)))


def test_no_subset_operator_takes_its_ring_beside_it():
    # A subset carries its ring, so no function or record may take both: a
    # second copy of the ring could disagree with E.ring.
    found, classes = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                annotations = [p.annotation for p in params if p is not None]
            elif isinstance(node, ast.ClassDef):
                # A record's fields are its annotations, whichever record
                # base it derives from.
                annotations = [s.annotation for s in node.body if isinstance(s, ast.AnnAssign)]
                if not annotations:
                    continue
                classes.add(node.name)
            else:
                continue
            names = [_annotation_names(ann) for ann in annotations]
            if any("SpecSubset" in n for n in names) and any("RingExpr" in n for n in names):
                found.append(f"{path.relative_to(SRC)}:{node.name}")
    assert found == []
    assert {"SpecSubset", "ResidueField", "ModRing", "_ProductMap", "ImageReport"} <= classes


def test_the_nilpotence_oracle_is_arithmetic():
    # The product side of the nilradical law check must not read the
    # per-slot radical rules, or it would agree with them by construction.
    tree = ast.parse((SRC / "products.py").read_text(encoding="utf-8"))
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_nilpotent_by_squaring"
    ]
    names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    assert names.isdisjoint({"is_nilpotent", "nilradical", "factorization"})


def test_the_polynomial_kernel_factors_no_integers():
    # Ben-Or's test needs no prime divisors of the degree, so gfpoly
    # imports nothing from primes.
    tree = ast.parse((SRC / "gfpoly.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert not {m for m in modules if m and m.split(".")[-1] == "primes"}


def test_the_cli_imports_no_argparse():
    # Every one-off query pays the CLI's imports; argparse (with gettext)
    # costs a few ms of each start-up, which the command table avoids, and
    # dataclasses and inspect as much again, which records avoid.
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, spectop.cli; "
        "print(sorted({'argparse', 'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_no_module_imports_dataclasses_or_inspect():
    # Every value is a values.Record, and a suite's parameters are read off
    # its code object.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(SRC)}:{node.lineno}"
                for m in modules
                if m.split(".")[0] in ("dataclasses", "inspect")
            ]
    assert found == []


def test_no_module_uses_named_tuples():
    # A table row is a values.Record too: typing.NamedTuple and
    # collections.namedtuple build their classes from generated source.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
        & {"NamedTuple", "namedtuple"}
    ]
    assert found == []


def test_values_and_subsets_are_records_not_dataclasses():
    # A dataclass compiles its methods from source at import time, and its
    # generated __hash__ runs once for every point a frozenset takes in.
    for name in ("values.py", "spectrum.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        found = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(_callee_name(dec) == "dataclass" for dec in node.decorator_list)
        ]
        assert found == [], name
        assert "dataclasses" not in {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        }


def test_a_suite_run_enters_no_generated_hash():
    # Every value is built, compared and hashed by C code or by Record: no
    # `<string>` frame, the kind that dataclass and namedtuple generate
    # (__init__, __hash__, __eq__, __new__), is entered in a whole run.
    import contextlib
    import io

    from spectop import cli

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_name))

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            code = cli.run_command(["verify", "all", "--seed", "0", "--json"])
        finally:
            sys.setprofile(None)
    assert code == 0
    assert {name for filename, name in entered if filename == "<string>"} == set()



def _frames_entered(fn, *args):
    """The names of the Python functions that fn(*args) enters below itself."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return entered - {fn.__name__}


def test_finite_order_questions_are_whole_set_operations():
    # A finite set's up and down closures and its stability are one reach
    # call to the ring, and inclusion of a finite set is one frozenset
    # comparison: no per-point Python loop runs.  Equal points below are
    # the same objects, so no record __eq__ runs either.
    from random import Random

    from spectop import rings
    from spectop import spectrum as sp
    from spectop import topology as top

    for R in (rings.ZZ, rings.poly_ring(2), rings.symbolic_supplement(rings.prime_field(2))):
        pts = frozenset(sp.sample_points(R, Random(4), 12)) | {R.limit}
        family = pts - {R.limit}
        finite = [sp.empty_set(R), sp.explicit(R, family), sp.explicit(R, pts)]
        others = finite + [sp.cofinite(R, family, True), sp.cofinite(R, family, False)]
        for E in finite:
            for up in (True, False):
                # The canonicalizer builds the answer, through whole when
                # that is every point.
                entered = _frames_entered(top.order_closure, E, up)
                assert entered <= {"reach", "whole", "_subset"}, (str(R), E, entered)
            for mode in (top.SPECIALIZATION, top.GENERALIZATION):
                entered = _frames_entered(top.is_stable, E, mode)
                assert entered <= {"reach"}, (str(R), E, entered)
            for F in others:
                assert _frames_entered(sp.subset_le, E, F) == set(), (str(R), E, F)


def test_closure_axioms_checks_points_only_where_it_enumerates_them(monkeypatch):
    # The suite checks each point of a ring's own spectrum once, in
    # suites._checked_points, and builds every other subset from points
    # that a ring enumerated or sampled, so no other point check runs.  It
    # seeds its own Random, and a Random(0) for each distinct finite
    # symbolic draw that holds the limit, where _enlarge samples a family
    # point: each distinct draw is decided once.
    import contextlib
    import io

    from spectop import cli, suites

    drawn = []
    monkeypatch.setattr(suites, "_axioms_hold", lambda E: drawn.append(E) or (True, ""))
    suites.suite_closure_axioms(seed=0)
    monkeypatch.undo()
    holding = sum(E.ring.symbolic and not E.cofinite and E.ring.limit in E.points for E in drawn)

    checks, outside = Counter(), []

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name == "validate_point":
            checks[Path(code.co_filename).name] += 1
            caller = frame.f_back
            while caller is not None and caller.f_code.co_name != "_checked_points":
                caller = caller.f_back
            if caller is None:
                outside.append(frame.f_back.f_code.co_name)
        elif code.co_name == "seed" and Path(code.co_filename).name == "random.py":
            checks["Random.seed"] += 1

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            code = cli.run_command(["verify", "closure-axioms", "--seed", "0", "--json"])
        finally:
            sys.setprofile(None)
    assert code == 0
    assert outside == []
    # One check per point of the zoo's spectra; a product point's check
    # asks its factor's has_point, not its validate_point.
    assert holding == 41
    assert checks == {"spectrum.py": 49, "rings.py": 49, "Random.seed": 1 + holding}


# The jsonio codecs follow the codec interface, (value, R) to encode and
# (value, key, R, limit) to decode, whichever of those they need.
CODECS = {("jsonio.py", "_as_is"), ("jsonio.py", "_tuple_items")}


def _unread_parameters(fn):
    """The parameters of fn that no statement of its body reads."""
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {
        node.id
        for stmt in fn.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [p for p in params if p not in read]


def test_every_module_function_reads_each_parameter_it_takes():
    # A parameter no body reads is an input the answer cannot depend on,
    # so every caller passes it for nothing.  Methods and lambdas are
    # exempt: they follow the interface of their family or table.
    found = [
        f"{path.relative_to(SRC)}:{node.name}({name})"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (str(path.relative_to(SRC)), node.name) not in CODECS
        for name in _unread_parameters(node)
    ]
    assert found == []
