"""Command-line front end for the verification pipelines and the search.

Every subcommand prints machine-readable output (--format json/csv) or a
human checklist (--format text, the default), and its exit code is 0
exactly when every assertion in the invoked pipeline passed.  Usage,
hypothesis, and parse errors (UsageError) exit 2; any other exception is a
fault of the program and exits 1 with its traceback.  Output ordering is
fixed by n or element index, never by completion time, so --workers N is
byte-identical to --workers 1; elapsed times are reported as 0 unless
--timing is given, for the same reason.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Callable, NamedTuple

from . import gnq, poly
from .field import DEGREE_CEILING, UsageError, make_field
from .gf2poly import BitPoly, proof_gcd_case1, proof_gcd_case2

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the packed uint64 engine cannot represent fields beyond degree 32
HARD_DEGREE_CAP = 32


# ---------------------------------------------------------------------------
# L-spec expression language: expr := term (+ term)*
#                             term := atom (^ INT)*
#                             atom := x | S(INT) | frob(expr, INT) | (expr)


class LSpecError(UsageError):
    def __init__(self, pos: int, msg: str):
        self.pos = pos
        super().__init__(f"L-spec parse error at position {pos}: {msg}")


def _tokenize_lspec(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()^+,":
            tokens.append((c, c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise LSpecError(i, f"unexpected character {c!r}")
    tokens.append(("end", "end of input", len(text)))
    return tokens


class _LSpecParser:
    def __init__(self, text: str):
        self.tokens = _tokenize_lspec(text)
        self.idx = 0

    def _peek(self):
        return self.tokens[self.idx]

    def _next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def _expect(self, kind: str):
        tok = self._next()
        if tok[0] != kind:
            raise LSpecError(tok[2], f"expected {kind!r}, got {tok[1]!r}")
        return tok

    def parse(self) -> poly.PolyExpr:
        node = self._expr()
        tok = self._peek()
        if tok[0] != "end":
            raise LSpecError(tok[2], f"unexpected trailing {tok[1]!r}")
        return node

    def _expr(self) -> poly.PolyExpr:
        terms = [self._term()]
        while self._peek()[0] == "+":
            self._next()
            terms.append(self._term())
        return terms[0] if len(terms) == 1 else poly.Add(tuple(terms))

    def _term(self) -> poly.PolyExpr:
        node = self._atom()
        while self._peek()[0] == "^":
            self._next()
            node = poly.Pow(node, self._expect("int")[1])
        return node

    def _atom(self) -> poly.PolyExpr:
        tok = self._next()
        if tok[0] == "(":
            node = self._expr()
            self._expect(")")
            return node
        if tok[0] == "name":
            if tok[1] == "x":
                return poly.Var()
            if tok[1] == "S":
                self._expect("(")
                k = self._expect("int")[1]
                self._expect(")")
                return poly.S(k, poly.Var())
            if tok[1] == "frob":
                self._expect("(")
                inner = self._expr()
                self._expect(",")
                i = self._expect("int")[1]
                self._expect(")")
                return poly.FrobQ(inner, i)
            raise LSpecError(tok[2], f"unknown name {tok[1]!r} (expected x, S, or frob)")
        raise LSpecError(tok[2], f"unexpected {tok[1]!r}")


def parse_lspec(text: str) -> poly.PolyExpr:
    """Parse an L specification like "S(3)^2" or "x + frob(S(2), 1)"."""
    return _LSpecParser(text).parse()


# ---------------------------------------------------------------------------
# config files: one key=value per line, '#' comments; flags win over config


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


class Option(NamedTuple):
    """A flag, the parser of its text (argparse's type and the config file's;
    _parse_bool makes a store_true flag), its default, help and choices.
    Its key in OPTIONS is its dest and its config key."""
    flag: str
    parse: Callable[[str], object]
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


OPTIONS = {
    "format": Option("--format", str, "text", "output format (default: text)",
                     ("text", "json", "csv")),
    "workers": Option("--workers", int, 1, "search threads, at most one per block of n and "
                      "per CPU; output is identical for any value.  Measured on 2 cores, 2 "
                      "threads took 30-45%% longer than 1 at e = 7 and 10 and about 10%% "
                      "less at e = 12 (README, Determinism)"),
    "out": Option("--out", str, None, "write output to a file"),
    "modulus": Option("--modulus", str, None, "field modulus, symbolic (x^12+x^3+1) or hex "
                      "(0x1009); verify-corollary rejects it"),
    "timing": Option("--timing", _parse_bool, False, "report real elapsed times instead of 0"),
    "override_ceilings": Option("--override-ceilings", _parse_bool, False,
                                f"raise the field-degree ceiling from {DEGREE_CEILING} "
                                f"to the representation cap of {HARD_DEGREE_CAP}; only gnq "
                                "gains: the log tables of oracle and search stop at 28"),
    "k": Option("--k", int),
    "n": Option("--n", int),
    "q": Option("--q", int, 4),  # t2's q; the other commands require it
    "e": Option("--e", int),
    "n_from": Option("--from", int),
    "n_to": Option("--to", int),
    "resume": Option("--resume", int, 0, "last completed n; scanning restarts after it"),
    "L": Option("--L", str, None, "2-linearized expression, e.g. 'S(3)^2' or "
                "'x + frob(S(2), 1)'"),
}

# the options of every command
COMMON = ("format", "workers", "out", "modulus", "timing", "override_ceilings")


def _load_config(path: str) -> dict:
    options: dict = {}
    try:
        with open(path) as fh:
            lines = list(fh)
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            options[key] = OPTIONS[key].parse(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return options


def _modulus_of(args) -> BitPoly | None:
    if not args.modulus:
        return None
    try:
        if args.modulus.lower().startswith("0x"):
            return BitPoly(int(args.modulus, 16))
        return BitPoly.from_string(args.modulus)
    except ValueError as exc:
        raise UsageError(f"--modulus: {exc}") from exc


# ---------------------------------------------------------------------------
# output plumbing


def _pf(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _b(ok: bool) -> str:
    return "true" if ok else "false"


def _emit(args, text: str) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if args.out:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise UsageError(str(exc)) from exc
        with fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2)


def _render_dense(g) -> str:
    terms = []
    for e in sorted(g.support(), reverse=True):
        terms.append("1" if e == 0 else "x" if e == 1 else f"x^{e}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_t1(args) -> int:
    report = gnq.verify_t1(args.k, workers=args.workers, timing=args.timing,
                           modulus=_modulus_of(args))
    if args.format == "json":
        _emit(args, _dump_json(report.to_json_obj()))
    elif args.format == "csv":
        _emit(args, "k,is_pp,e1,gcd_case1,gcd_case2,all_ok\n"
              f"{report.k},{_b(report.pp.is_pp)},{_b(report.e1_ok)},"
              f"{report.gcd_case1},{report.gcd_case2},{_b(report.all_ok)}")
    else:
        lines = [
            f"T1 at k={report.k} over {report.pp.field}",
            f"  exhaustive pp : {_pf(report.pp.is_pp)}",
            f"  identity (e1) : {_pf(report.e1_ok)}",
            f"  gcd case 1    : {report.gcd_case1} {_pf(report.gcd1_ok)}",
            # proof_gcd_case2 raises unless the gcd is x^k + 1
            f"  gcd case 2    : {report.gcd_case2} PASS",
            f"  overall       : {_pf(report.all_ok)}",
        ]
        if args.timing:
            lines.append(f"  elapsed       : {report.pp.elapsed_ms} ms")
        _emit(args, "\n".join(lines))
    return EXIT_OK if report.all_ok else EXIT_FAIL


def cmd_verify_corollary(args) -> int:
    if args.modulus:
        raise UsageError("--modulus does not apply: the corollary runs over GF(4^6) "
                         "with the default modulus")
    report = gnq.verify_corollary(workers=args.workers, timing=args.timing)
    if args.format == "json":
        _emit(args, _dump_json(report.to_json_obj()))
    elif args.format == "csv":
        rows = ["step,ok"] + [f"{name},{_b(ok)}" for name, ok in report.steps]
        _emit(args, "\n".join(rows))
    else:
        lines = [f"[{_pf(ok)}] {name}" for name, ok in report.steps]
        lines.append(f"overall: {_pf(report.all_ok)}")
        _emit(args, "\n".join(lines))
    if report.all_ok:
        return EXIT_OK
    failing = [name for name, ok in report.steps if not ok]
    print(f"failing step(s): {', '.join(failing)}", file=sys.stderr)
    return EXIT_FAIL


def cmd_probe_t1_odd(args) -> int:
    report = gnq.probe_t1_odd(args.k, workers=args.workers, timing=args.timing,
                              modulus=_modulus_of(args))
    if args.format == "json":
        _emit(args, _dump_json(report.to_json_obj()))
    elif args.format == "csv":
        witness = "" if report.witness is None else f"0x{report.witness.bits:x}"
        _emit(args, "k,is_pp,witness,note\n"
              f"{args.k},{_b(report.is_pp)},{witness},{report.note}")
    else:
        lines = [f"probe at k={args.k} over {report.field} ({report.note})",
                 f"  is_pp: {_b(report.is_pp)}"]
        if report.counterexample:
            x1, x2 = report.counterexample
            lines.append(f"  collision: {x1!r} and {x2!r} map to {report.witness!r}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_identities(args) -> int:
    if args.k < 2 or args.k % 2:
        raise UsageError("the identity chain follows the theorem hypothesis: even k >= 2")
    ctx = make_field(2, 3 * args.k, modulus=_modulus_of(args))
    ok = poly.identity_e1_check(args.k, ctx)
    if args.format == "json":
        _emit(args, _dump_json({"k": args.k, "e1": ok}))
    elif args.format == "csv":
        _emit(args, f"k,e1\n{args.k},{_b(ok)}")
    else:
        _emit(args, f"e1 identity at k={args.k} over {ctx!r}: {_pf(ok)}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_gcd(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    case2 = str(proof_gcd_case2(args.k))
    case1 = str(proof_gcd_case1(args.k)) if args.k >= 2 else None
    if args.format == "json":
        _emit(args, _dump_json({"k": args.k, "case1": case1, "case2": case2}))
    elif args.format == "csv":
        _emit(args, f"k,case1,case2\n{args.k},{case1 or ''},{case2}")
    else:
        left = f"case1: {case1}" if case1 else "case1: n/a (needs k >= 2)"
        _emit(args, f"{left}, case2: {case2}")
    return EXIT_OK


def cmd_t2(args) -> int:
    ctx = make_field(gnq._q_exponent(args.q), 3 * args.k, modulus=_modulus_of(args))
    lin = poly.lin_from_expr(parse_lspec(args.L), ctx)
    conds = gnq.check_t2_conditions(lin, args.q, args.k, ctx,
                                    workers=args.workers, timing=args.timing)
    if args.format == "json":
        _emit(args, _dump_json(conds.to_json_obj()))
    elif args.format == "csv":
        _emit(args, "cond_i,cond_ii,pp_verified\n"
              f"{_b(conds.cond_i)},{_b(conds.cond_ii)},{_b(conds.pp_verified)}")
    else:
        _emit(args, "\n".join([
            f"T2 with L = {args.L} over {ctx!r}",
            f"  (i)  L permutes the subfield : {_pf(conds.cond_i)}",
            f"  (ii) congruence for L+L^(q^2k): {_pf(conds.cond_ii)}",
            f"  L + S_2k^(q^k+1) is a PP     : {_pf(conds.pp_verified)}",
        ]))
    return EXIT_OK if (conds.cond_i and conds.cond_ii and conds.pp_verified) else EXIT_FAIL


def cmd_gnq(args) -> int:
    ctx = make_field(gnq._q_exponent(args.q), args.e, modulus=_modulus_of(args),
                     max_degree=args.max_degree)
    g = gnq.gnq_recurrence(args.n, args.q, ctx)
    if args.format == "json":
        _emit(args, _dump_json(g.to_json_obj()))
    elif args.format == "csv":
        rows = ["exp,coeff"] + [f"{e},1" for e in g.support()]
        _emit(args, "\n".join(rows))
    else:
        _emit(args, f"g_({args.n},{args.q}) over {ctx!r} = {_render_dense(g)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    ctx = make_field(gnq._q_exponent(args.q), args.e, modulus=_modulus_of(args),
                     max_degree=args.max_degree)
    ok = gnq.gnq_oracle_check(args.n, args.q, ctx)
    if args.format == "json":
        _emit(args, _dump_json({"n": args.n, "q": args.q, "e": args.e, "oracle_ok": ok}))
    elif args.format == "csv":
        _emit(args, f"n,q,e,oracle_ok\n{args.n},{args.q},{args.e},{_b(ok)}")
    else:
        _emit(args, f"defining identity for g_({args.n},{args.q}) over {ctx!r}: {_pf(ok)}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_search(args) -> int:
    s = gnq._q_exponent(args.q)
    if args.n_from < 1 or args.n_to < args.n_from:
        raise UsageError("need 1 <= --from <= --to")
    n_from = max(args.n_from, args.resume + 1)
    ctx = make_field(s, args.e, modulus=_modulus_of(args), max_degree=args.max_degree)
    if n_from > args.n_to:
        # --resume consumed the whole range; that is a completed scan, not an error
        triples = []
    else:
        triples = gnq.search_desirable(args.q, args.e, n_from, args.n_to,
                                       workers=args.workers, ctx=ctx,
                                       timing=args.timing)
    if args.format == "json":
        _emit(args, _dump_json([t.to_json_obj() for t in triples]))
    elif args.format == "csv":
        rows = ["n,e,q,verified_by,elapsed_ms"] + [t.csv_line() for t in triples]
        _emit(args, "\n".join(rows))
    else:
        lines = [f"{t.n} (e={t.e}, q={t.q}, verified by {t.verified_by})"
                 for t in triples]
        lines.append(f"{len(triples)} desirable triple(s) in [{n_from}, {args.n_to}]")
        _emit(args, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands and parser assembly


class Command(NamedTuple):
    func: Callable
    help: str
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()


COMMANDS = {
    "verify-t1": Command(cmd_verify_t1, "theorem pipeline: pp + identity + gcds at even k",
                         ("k",)),
    "verify-corollary": Command(cmd_verify_corollary, "the n = 65921 pipeline over GF(4^6)"),
    "probe-t1-odd": Command(cmd_probe_t1_odd, "record pp status at odd k (no claim asserted)",
                            ("k",)),
    "identities": Command(cmd_identities, "degree-bounded check of the squared-trace-sum identity",
                          ("k",)),
    "gcd": Command(cmd_gcd, "the two proof-case gcd values at k", ("k",)),
    "t2": Command(cmd_t2, "check the generalized-theorem conditions for L", ("k", "L"), ("q",)),
    "gnq": Command(cmd_gnq, "compute and print one g_(n,q)", ("n", "q", "e")),
    "oracle": Command(cmd_oracle, "check g_(n,q) against its defining identity", ("n", "q", "e")),
    "search": Command(cmd_search, "scan an n-range for desirable triples",
                      ("q", "e", "n_from", "n_to"), ("resume",)),
}


def _options(command: Command) -> tuple[str, ...]:
    return COMMON + command.required + command.optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpoly",
        description="Verify permutation behavior of trace-sum polynomial maps "
                    "over GF(q^e) and search for desirable (n, e; q) triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # only the flags given land in the namespace: _resolve fills the rest
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for dest in _options(command):
            opt = OPTIONS[dest]
            if opt.parse is _parse_bool:
                p.add_argument(opt.flag, dest=dest, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, dest=dest, type=opt.parse, choices=opt.choices,
                               help=opt.help)
        p.add_argument("--config", help="key=value config file; explicit flags win")
    return parser


def _resolve(given: argparse.Namespace) -> argparse.Namespace:
    """The options of the command that given names: each from its flag,
    else from the config file, else its OPTIONS default.  A config key of
    another command's option is parsed and ignored."""
    flags = vars(given)
    config = _load_config(flags["config"]) if flags.get("config") else {}
    command = COMMANDS[flags["command"]]
    args = argparse.Namespace(func=command.func)
    for dest in _options(command):
        value = flags.get(dest, config.get(dest, OPTIONS[dest].default))
        choices = OPTIONS[dest].choices
        if choices and value not in choices:  # argparse has checked a flag's value
            raise UsageError(f"config {dest} must be {', '.join(choices[:-1])}, "
                             f"or {choices[-1]}, not {value!r}")
        setattr(args, dest, value)
    args.max_degree = HARD_DEGREE_CAP if args.override_ceilings else DEGREE_CEILING
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    for dest in command.required:
        if dest not in flags and dest not in config:
            raise UsageError(f"{OPTIONS[dest].flag} is required (flag or config file)")
    return args


def main(argv=None) -> int:
    try:
        given = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        args = _resolve(given)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, AssertionError) as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
