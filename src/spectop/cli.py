"""Command line front end.

Rings, sets, points and maps are given as JSON, either inline (the value
starts with "{") or as a path to a UTF-8 JSON file.  Exit codes: 0 for
success or all checks passing, 1 for a verification failure, 2 for a
usage or input error, 3 for an internal error (a bug in spectop; pass
--traceback to see where it was raised).  Only a SpectopError is an input
error.  Output whose reader has gone (say `spectop ... | head`) also exits
2, with one line that says standard output was closed.  A run builds
only the form it prints: each handler gives _print its JSON document and
its human text as zero-argument functions, and _print calls one of them.

COMMANDS is the one table of the command line: each command's handler,
help text, positionals and options (flag, dest, kind, choices, required,
default, help); --json, --allow-big and --traceback are common to all.
parse_args reads argv once, left to right, by the rules of Python 3.11's
standard-library parser, which the tests keep as the reference: an exact
flag is one dict lookup, "--flag=value" splits at the first "=", a "--"
token that names no flag may abbreviate exactly one, the last of repeated
options wins, positionals may stand before or after options, a value may
not look like an option (a negative number may), and every token after
"--" is an argument ("--" itself counts as an extra argument unless it
stands next to a positional).  -h/--help prints help built from the
table and exits 0.  A usage error (no or unknown command, unknown or
ambiguous option, missing value or required option, bad choice or int,
extra argument) prints a usage line and an error line to stderr and
raises SystemExit(2).
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import Callable, NoReturn

from . import construction, covers, jsonio, maps, primes, products, rings, suites
from . import spectrum as sp
from . import topology as top
from .errors import SpectopError
from .values import Record


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


def _print(doc: Callable[[], dict], as_json: bool, human: Callable[[], str]) -> None:
    """Print the JSON document or the human text; only that one is built."""
    print(jsonio.dumps_canonical(doc()) if as_json else human())


def _cmd_spec(args) -> int:
    R = jsonio.ring_from_json(_load_json(args.ring), args.limit)
    E = sp.whole(R)
    _print(
        lambda: {"ring": jsonio.ring_to_json(R), "spectrum": jsonio.subset_to_json(E)},
        args.json,
        lambda: f"Spec({R}) = {sp.subset_str(E)}",
    )
    return 0


def _cmd_closure(args) -> int:
    E = _load_subset(args)
    cl = top.closure(E, args.topology)
    _print(
        lambda: {"topology": args.topology, "closure": jsonio.subset_to_json(cl)},
        args.json,
        lambda: f"{args.topology} closure of {sp.subset_str(E)} over {E.ring} = "
        f"{sp.subset_str(cl)}",
    )
    return 0


def _cmd_dense(args) -> int:
    E = _load_subset(args)
    dense = top.is_dense(E, args.topology)
    _print(
        lambda: {"topology": args.topology, "dense": dense},
        args.json,
        lambda: f"{sp.subset_str(E)} is {'dense' if dense else 'not dense'} in the "
        f"{args.topology} topology",
    )
    return 0


def _cmd_stable(args) -> int:
    E = _load_subset(args)
    stable = top.is_stable(E, args.mode)
    _print(
        lambda: {"mode": args.mode, "stable": stable},
        args.json,
        lambda: f"{sp.subset_str(E)} is {'stable' if stable else 'not stable'} under {args.mode}",
    )
    return 0


def _cmd_criterion(args) -> int:
    R = jsonio.ring_from_json(_load_json(args.ring), args.limit)
    cert = top.density_criterion(R, args.mode)

    def human() -> str:
        witness = "" if cert.witness is None else f"; witness {rings.el_str(cert.witness, R)}"
        return (
            f"every infinite subset of Spec({R}) {args.mode}-dense: "
            f"{cert.holds} ({cert.rationale}{witness})"
        )

    _print(lambda: jsonio.density_certificate_to_json(cert, R), args.json, human)
    return 0


def _cmd_image(args) -> int:
    E = _load_subset(args)
    topology = top.ZARISKI if args.kind == products.QUOTIENT else top.FLAT
    rep = products.strictness_demo(E, topology)
    # The oracle's verdict sets the exit code, so it runs in either form.
    oracle_ok = products.brute_force_image(E, args.kind) == rep.image if args.oracle else None

    def doc() -> dict:
        report = jsonio.image_report_to_json(rep)
        if oracle_ok is not None:
            report["oracleAgrees"] = oracle_ok
        return report

    def human() -> str:
        lines = [
            f"Im pi* for the {args.kind} product over {sp.subset_str(E)}:",
            f"  image   = {sp.subset_str(rep.image)}",
            f"  closure = {sp.subset_str(rep.closure)} ({rep.topology})",
            f"  strict  = {rep.strict}"
            + (f", witness {sp.point_str(rep.witness)}" if rep.witness else ""),
        ]
        if oracle_ok is not None:
            lines.append(f"  oracle  = {'agrees' if oracle_ok else 'DISAGREES'}")
        return "\n".join(lines)

    _print(doc, args.json, human)
    return 0 if oracle_ok in (None, True) else 1


def _cmd_construct(args) -> int:
    field = _field_from_name(args.field)
    rep = construction.supplement_report(field, args.n)

    def human() -> str:
        mins = ", ".join(sp.point_str(p) for p in rep.minimal_primes)
        bound = covers.ORACLE_VAR_BOUND  # the cover oracle runs up to it
        return "\n".join(
            [
                f"axes ring over {rep.field} with n = {rep.n}"
                + (" (degenerate: zero ideal)" if rep.degenerate else ""),
                f"  defining ideal = intersection of the axis primes: {rep.intersection_ok}",
                f"  minimal primes: {mins}",
                "  2^n cover oracle: "
                + (f"skipped (n > {bound})" if rep.n > bound else "ran and agrees"),
                f"  dim = {rep.dim}, reduced = {rep.reduced}, absorbance = {rep.pz_ok}",
                f"  all statements hold: {rep.all_ok}",
            ]
        )

    _print(lambda: jsonio.supplement_report_to_json(rep), args.json, human)
    return 0 if rep.all_ok else 1


def _cmd_lyover(args) -> int:
    m = jsonio.map_from_json(_load_json(args.map), args.limit)
    p = jsonio.point_from_json(_load_json(args.prime))
    q = maps.laying_over(m, p)
    back = maps.contract(m, q)
    _print(
        lambda: {
            "map": jsonio.map_to_json(m),
            "prime": jsonio.point_to_json(p),
            "over": jsonio.point_to_json(q),
            "contracts-back": jsonio.point_to_json(back),
        },
        args.json,
        lambda: f"{sp.point_str(q)} lies over {sp.point_str(p)} along {m}",
    )
    return 0


def _cmd_verify(args) -> int:
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    results = [suites.run_suite(name, seed=args.seed) for name in names]
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


_VALUE, _INT, _SWITCH = "value", "int", "switch"


class _Opt(Record):
    """An option ("--name") or a positional ("name") of a command.  A value
    is kept as given and an int goes through int(); a switch takes no value
    and stores const.  An option not given holds its default."""

    __slots__ = ()
    flag: str
    dest: str  # the attribute the handler reads
    kind: str
    choices: tuple
    required: bool
    default: object
    help: str
    const: object

    def __new__(cls, flag, dest, kind=_VALUE, choices=(), required=False, default=None, help="",
                const=True):
        return tuple.__new__(cls, (flag, dest, kind, choices, required, default, help, const))


class _Command(Record):
    __slots__ = ()
    fn: Callable[[SimpleNamespace], int]
    help: str
    positionals: tuple[_Opt, ...]
    options: tuple[_Opt, ...]


_RING, _SET = _Opt("--ring", "ring", required=True), _Opt("--set", "set", required=True)
_TOPOLOGY = _Opt("--topology", "topology", choices=top.TOPOLOGIES, required=True)
_COMMON = (  # every command takes these; limit is the bound handed to the decoders
    _Opt("--json", "json", _SWITCH, default=False, help="emit a machine-readable JSON report"),
    _Opt("--allow-big", "limit", _SWITCH, default=primes.DEFAULT_LIMIT, const=None,
         help="lift the 64-bit factorization bound (arbitrary precision)"),
    _Opt("--traceback", "traceback", _SWITCH, default=False,
         help="print the traceback of an internal error"),
)
COMMANDS = {
    "spec": _Command(_cmd_spec, "enumerate or describe a spectrum", (), (_RING,)),
    "closure": _Command(_cmd_closure, "closure of a subset", (), (_TOPOLOGY, _RING, _SET)),
    "dense": _Command(_cmd_dense, "density of a subset", (), (_TOPOLOGY, _RING, _SET)),
    "stable": _Command(_cmd_stable, "stability of a subset", (), (_Opt(
        "--mode", "mode", choices=(top.SPECIALIZATION, top.GENERALIZATION), required=True,
    ), _RING, _SET)),
    "criterion": _Command(_cmd_criterion, "every-infinite-subset-dense test", (), (_Opt(
        "--mode", "mode", choices=(top.ZARISKI, top.FLAT), required=True,
    ), _RING)),
    "image": _Command(_cmd_image, "Im pi* for a canonical product map", (), (
        _Opt("--kind", "kind", choices=(products.QUOTIENT, products.LOCAL), required=True),
        _RING, _SET,
        _Opt("--oracle", "oracle", _SWITCH, default=False, help="cross-check with tame enumeration"),
    )),
    "construct": _Command(_cmd_construct, "build and verify a named ring", (
        _Opt("what", "what", choices=("supplement",), required=True),
    ), (
        _Opt("--n", "n", _INT, required=True, help="the number of axes"),
        _Opt("--field", "field", default="F2", help="Q or F<p> (default F2)"),
    )),
    "lyover": _Command(_cmd_lyover, "find a prime lying over a minimal prime", (), (
        _Opt("--map", "map", required=True), _Opt("--prime", "prime", required=True),
    )),
    "verify": _Command(_cmd_verify, "run a named verification suite", (
        _Opt("suite", "suite", choices=(*sorted(suites.SUITES), "all"), required=True),
    ), (
        _Opt("--seed", "seed", _INT, default=0),
    )),
}
_EVERY = {  # the positionals and options of each command, built once
    name: (*cmd.positionals, *cmd.options, *_COMMON) for name, cmd in COMMANDS.items()
}
_DEFAULTS = {name: {o.dest: o.default for o in every} for name, every in _EVERY.items()}
_REQUIRED = {name: tuple(o for o in every if o.required) for name, every in _EVERY.items()}
_HELP = _Opt("--help", "help", _SWITCH, help="show this help message and exit")
_UNKNOWN = _Opt("", "")
_COMMAND = _Opt("command", "command", choices=tuple(COMMANDS), required=True)
_FLAGS = {None: {"-h": _HELP, "--help": _HELP}} | {  # the flags of each command
    name: {o.flag: o for o in (*cmd.options, *_COMMON, _HELP)} | {"-h": _HELP}
    for name, cmd in COMMANDS.items()
}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a negative number is an argument


def _term(o: _Opt) -> str:
    shown = "{" + ",".join(o.choices) + "}" if o.choices else o.dest.upper()
    return o.flag if o.kind == _SWITCH else shown if o.flag == o.dest else f"{o.flag} {shown}"


def _usage(name: str | None) -> str:
    if name is None:
        return f"usage: spectop [-h] {_term(_COMMAND)} ..."
    terms = (_term(o) if o.required else f"[{_term(o)}]" for o in _EVERY[name])
    return f"usage: spectop {name} [-h] " + " ".join(terms)


def _help(name: str | None) -> str:
    if name is None:
        about = "exact closures and spectral images over concrete commutative rings"
        rows = [(command, cmd.help) for command, cmd in COMMANDS.items()]
    else:
        about, rows = COMMANDS[name].help, [(_term(o), o.help) for o in _EVERY[name]]
    rows.append(("-h, --help", _HELP.help))
    width = max(len(term) for term, _ in rows)
    lines = (f"  {term.ljust(width)}  {text}".rstrip() for term, text in rows)
    return "\n".join([_usage(name), "", about, "", *lines])


def _usage_error(name: str | None, message: str) -> NoReturn:
    print(_usage(name), file=sys.stderr)
    print(f"spectop{' ' + name if name else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _value(o: _Opt, text: str, name: str | None):
    """The value text gives o; a bad int or choice is a usage error."""
    try:
        value = int(text) if o.kind == _INT else text
    except ValueError:
        _usage_error(name, f"argument {o.flag}: invalid int value: {text!r}")
    if o.choices and value not in o.choices:
        choices = ", ".join(map(repr, o.choices))
        _usage_error(name, f"argument {o.flag}: invalid choice: {value!r} (choose from {choices})")
    return value


def _lookup(tok: str, flags: dict, name: str | None) -> tuple[_Opt, str | None] | None:
    """The option tok names and its "=value" (None if it has none),
    _UNKNOWN for an option no flag names, or None for an argument."""
    o = flags.get(tok)
    if o is not None:
        return o, None
    if tok[:1] != "-" or tok == "-":
        return None
    head, eq, value = tok.partition("=")
    o = flags.get(head)
    if o is None and tok.startswith("--"):  # a unique prefix of a flag
        hits = [flag for flag in flags if flag.startswith(head)]
        if len(hits) > 1:
            _usage_error(name, f"ambiguous option: {head} could match {', '.join(hits)}")
        o = flags[hits[0]] if hits else None
    elif o is None:  # "-hx" is -h given "x"
        o, eq, value = flags.get(tok[:2]), True, tok[2:]
    if o is not None:
        return o, value if eq else None
    return None if _NEGATIVE.match(tok) or " " in tok else (_UNKNOWN, None)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The handler and the attributes it reads, from argv in one pass by
    the rules in the module docstring."""
    name, flags, waiting = None, _FLAGS[None], [_COMMAND]
    given, extras, only_args, filled, i = {}, [], False, 0, 0
    while i < len(argv):
        tok, i = argv[i], i + 1
        if tok == "--" and name and not only_args:  # the rest are arguments
            only_args = True
            if not waiting and filled != i - 1:  # kept only next to a positional
                extras.append(tok)
            continue
        hit = None if only_args or tok == "--" else _lookup(tok, flags, name)
        if hit is None:  # an argument: the next positional, or an extra
            if not waiting:
                extras.append(tok)
                continue
            o, filled = waiting.pop(0), i
            value = _value(o, tok, name)
            if o is _COMMAND:
                name, flags, waiting = value, _FLAGS[value], list(COMMANDS[value].positionals)
            else:
                given[o.dest] = value
            continue
        o, value = hit
        if o is _UNKNOWN:
            extras.append(tok)
        elif o.kind != _SWITCH:
            if value is None:
                value = argv[i] if i < len(argv) else "--"
                if value[:1] == "-" and (value == "--" or _lookup(value, flags, name)):
                    _usage_error(name, f"argument {o.flag}: expected one argument")
                i += 1
            given[o.dest] = _value(o, value, name)
        elif value is not None:
            _usage_error(name, f"argument {o.flag}: ignored explicit argument {value!r}")
        elif o is _HELP:
            for later in argv[i:]:  # an ambiguous option after it is refused first
                if later == "--":
                    break
                _lookup(later, flags, name)
            print(_help(name))
            raise SystemExit(0)
        else:
            given[o.dest] = o.const
    if name is None:
        _usage_error(None, "the following arguments are required: command")
    missing = [o.flag for o in _REQUIRED[name] if o.dest not in given]
    if missing:
        _usage_error(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=name, fn=COMMANDS[name].fn, **(_DEFAULTS[name] | given))


def run_command(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
