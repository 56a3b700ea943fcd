"""Command line front end.

Rings, sets, points and maps are given as JSON, either inline (the value
starts with "{") or as a path to a UTF-8 JSON file.  Exit codes: 0 for
success or all checks passing, 1 for a verification failure, 2 for a
usage or input error, 3 for an internal error (a bug in spectop; pass
--traceback to see where it was raised).  Only a SpectopError is an input
error.  Output whose reader has gone (say `spectop ... | head`) also exits
2, with one line that says standard output was closed.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

from . import construction, jsonio, maps, primes, products, rings, suites
from . import spectrum as sp
from . import topology as top
from .errors import SpectopError


def _load_json(value: str) -> dict:
    try:
        if value.lstrip().startswith("{"):
            return json.loads(value)
        with open(value, encoding="utf-8") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise SpectopError(f"bad JSON input: {exc}") from exc
    except RecursionError as exc:
        raise SpectopError("JSON nested too deeply") from exc


def _load_subset(args) -> sp.SpecSubset:
    """The --set subset, read over the --ring ring."""
    R = jsonio.ring_from_json(_load_json(args.ring), args.limit)
    return jsonio.subset_from_json(_load_json(args.set), R)


def _field_from_name(name: str):
    if name.upper() == "Q":
        return rings.QQ
    if name.upper().startswith("F") and name[1:].isdecimal():
        return rings.prime_field(int(name[1:]))
    raise SpectopError(f"unknown field {name!r}; use Q or F<p>")


def _print(doc: dict, as_json: bool, human: str) -> None:
    print(jsonio.dumps_canonical(doc) if as_json else human)


def _cmd_spec(args) -> int:
    R = jsonio.ring_from_json(_load_json(args.ring), args.limit)
    E = sp.whole(R)
    _print(
        {"ring": jsonio.ring_to_json(R), "spectrum": jsonio.subset_to_json(E)},
        args.json,
        f"Spec({R}) = {sp.subset_str(E)}",
    )
    return 0


def _cmd_closure(args) -> int:
    E = _load_subset(args)
    cl = top.closure(E, args.topology)
    _print(
        {"topology": args.topology, "closure": jsonio.subset_to_json(cl)},
        args.json,
        f"{args.topology} closure of {sp.subset_str(E)} over {E.ring} = {sp.subset_str(cl)}",
    )
    return 0


def _cmd_dense(args) -> int:
    E = _load_subset(args)
    dense = top.is_dense(E, args.topology)
    _print(
        {"topology": args.topology, "dense": dense},
        args.json,
        f"{sp.subset_str(E)} is {'dense' if dense else 'not dense'} in the {args.topology} topology",
    )
    return 0


def _cmd_stable(args) -> int:
    E = _load_subset(args)
    stable = top.is_stable(E, args.mode)
    _print(
        {"mode": args.mode, "stable": stable},
        args.json,
        f"{sp.subset_str(E)} is {'stable' if stable else 'not stable'} under {args.mode}",
    )
    return 0


def _cmd_criterion(args) -> int:
    R = jsonio.ring_from_json(_load_json(args.ring), args.limit)
    cert = top.density_criterion(R, args.mode)
    witness = (
        ""
        if cert.witness is None
        else f"; witness {rings.el_str(cert.witness, R)}"
    )
    _print(
        jsonio.density_certificate_to_json(cert, R),
        args.json,
        f"every infinite subset of Spec({R}) {args.mode}-dense: "
        f"{cert.holds} ({cert.rationale}{witness})",
    )
    return 0


def _cmd_image(args) -> int:
    E = _load_subset(args)
    topology = top.ZARISKI if args.kind == products.QUOTIENT else top.FLAT
    rep = products.strictness_demo(E, topology)
    doc = jsonio.image_report_to_json(rep)
    oracle_ok = None
    if args.oracle:
        oracle = products.brute_force_image(E, args.kind)
        oracle_ok = oracle == rep.image
        doc["oracleAgrees"] = oracle_ok
    lines = [
        f"Im pi* for the {args.kind} product over {sp.subset_str(E)}:",
        f"  image   = {sp.subset_str(rep.image)}",
        f"  closure = {sp.subset_str(rep.closure)} ({rep.topology})",
        f"  strict  = {rep.strict}"
        + (f", witness {sp.point_str(rep.witness)}" if rep.witness else ""),
    ]
    if oracle_ok is not None:
        lines.append(f"  oracle  = {'agrees' if oracle_ok else 'DISAGREES'}")
    _print(doc, args.json, "\n".join(lines))
    return 0 if oracle_ok in (None, True) else 1


def _cmd_construct(args) -> int:
    if args.what != "supplement":
        raise SpectopError(f"unknown construction {args.what!r}")
    field = _field_from_name(args.field)
    rep = construction.supplement_report(field, args.n, check=not args.no_oracle)
    doc = jsonio.supplement_report_to_json(rep)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(jsonio.dumps_canonical(doc))
        except OSError as exc:
            raise SpectopError(f"cannot write the report: {exc}") from exc
    mins = ", ".join(sp.point_str(p) for p in rep.minimal_primes)
    human = "\n".join(
        [
            f"axes ring over {rep.field} with n = {rep.n}"
            + (" (degenerate: zero ideal)" if rep.degenerate else ""),
            f"  defining ideal = intersection of the axis primes: {rep.intersection_ok}",
            f"  minimal primes: {mins}",
            "  2^n cover oracle: "
            + ("skipped (--no-oracle)" if args.no_oracle else "ran and agrees"),
            f"  dim = {rep.dim}, reduced = {rep.reduced}, absorbance = {rep.pz_ok}",
            f"  all statements hold: {rep.all_ok}",
        ]
    )
    _print(doc, args.json, human)
    return 0 if rep.all_ok else 1


def _cmd_lyover(args) -> int:
    m = jsonio.map_from_json(_load_json(args.map), args.limit)
    p = jsonio.point_from_json(_load_json(args.prime))
    q = maps.laying_over(m, p)
    back = maps.contract(m, q)
    _print(
        {
            "map": jsonio.map_to_json(m),
            "prime": jsonio.point_to_json(p),
            "over": jsonio.point_to_json(q),
            "contracts-back": jsonio.point_to_json(back),
        },
        args.json,
        f"{sp.point_str(q)} lies over {sp.point_str(p)} along {m}",
    )
    return 0


def _cmd_verify(args) -> int:
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    flags = {"cases": args.cases, "max_n": args.max_n}
    given = {key: size for key, size in flags.items() if size is not None}
    for key, size in given.items():
        if size < 1:
            raise SpectopError(f"--{key.replace('_', '-')} must be at least 1, got {size}")
    results = []
    for name in names:
        # A suite gets the size flags its signature names; one named suite
        # refuses a flag it would ignore.
        takes = inspect.signature(suites.SUITES[name]).parameters
        params = {key: size for key, size in given.items() if key in takes}
        extra = given.keys() - params.keys()
        if extra and args.suite != "all":
            raise SpectopError(f"verify {name} takes no --{min(extra).replace('_', '-')}")
        results.append(suites.run_suite(name, seed=args.seed, **params))
    if args.json:
        doc = {"results": [r.to_json() for r in results]}
        print(jsonio.dumps_canonical(doc))
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.suite}: {status} ({len(r.cases)} cases, seed {r.seed})")
            for note in r.notes:
                print(f"  note: {note}")
            for c in r.cases:
                if not c.passed:
                    print(f"  FAIL {c.id}: {c.input}")
                    print(f"       expected {c.expected}, got {c.actual}")
                    print(f"       repro: {c.repro}")
    return 0 if all(r.passed for r in results) else 1


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


def run_command(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed output is seen here
        return code
    except SpectopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        print("error: standard output was closed", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - any other exception is a bug
        if args.traceback:
            import traceback  # only here: it costs every start-up a few ms

            traceback.print_exc()
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
