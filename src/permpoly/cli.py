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
import random
import sys
import traceback

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


_CONFIG_KEYS = {
    "format": str,
    "workers": int,
    "out": str,
    "seed": int,
    "modulus": str,
    "timing": _parse_bool,
    "override_ceilings": _parse_bool,
    "k": int,
    "n": int,
    "q": int,
    "e": int,
    "n_from": int,
    "n_to": int,
    "resume": int,
    "L": str,
    "memo_bound": int,
}


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
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            options[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return options


def _parse_modulus(text: str) -> BitPoly:
    try:
        if text.lower().startswith("0x"):
            return BitPoly(int(text, 16))
        return BitPoly.from_string(text)
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


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            flag = "--from" if name == "n_from" else "--to" if name == "n_to" else f"--{name}"
            raise UsageError(f"{flag} is required (flag or config file)")


def _modulus_of(args) -> BitPoly | None:
    return _parse_modulus(args.modulus) if args.modulus else None


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_t1(args) -> int:
    _require(args, "k")
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
    _require(args, "k")
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
    _require(args, "k")
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
    _require(args, "k")
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
    _require(args, "k", "L")
    q = args.q if args.q is not None else 4
    ctx = make_field(gnq._q_exponent(q), 3 * args.k, modulus=_modulus_of(args))
    expr = parse_lspec(args.L)
    lin = poly.lin_from_expr(expr, ctx, random.Random(args.seed))
    conds = gnq.check_t2_conditions(lin, q, args.k, ctx,
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
    _require(args, "n", "q", "e")
    ctx = make_field(gnq._q_exponent(args.q), args.e, modulus=_modulus_of(args),
                     max_degree=args.max_degree)
    bound = args.memo_bound if args.memo_bound is not None else gnq.DEFAULT_MEMO_BOUND
    g = gnq.gnq_recurrence(args.n, args.q, ctx, memo_bound=bound)
    if args.format == "json":
        _emit(args, _dump_json(g.to_json_obj()))
    elif args.format == "csv":
        rows = ["exp,coeff"] + [f"{e},1" for e in g.support()]
        _emit(args, "\n".join(rows))
    else:
        _emit(args, f"g_({args.n},{args.q}) over {ctx!r} = {_render_dense(g)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    _require(args, "n", "q", "e")
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
    _require(args, "q", "e", "n_from", "n_to")
    s = gnq._q_exponent(args.q)
    if args.n_from < 1 or args.n_to < args.n_from:
        raise UsageError("need 1 <= --from <= --to")
    n_from = args.n_from
    if args.resume is not None:
        n_from = max(n_from, args.resume + 1)
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
# parser assembly


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default=None,
                        help="output format (default: text)")
    common.add_argument("--workers", type=int, default=None,
                        help="search threads, at most one per block of n and per CPU; "
                             "output is identical for any value")
    common.add_argument("--out", default=None, help="write output to a file")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for random-point cross-checks (default: 0)")
    common.add_argument("--modulus", default=None,
                        help="field modulus, symbolic (x^12+x^3+1) or hex (0x1009); "
                             "verify-corollary rejects it")
    common.add_argument("--config", default=None,
                        help="key=value config file; explicit flags win")
    common.add_argument("--timing", action="store_true", default=None,
                        help="report real elapsed times instead of 0")
    common.add_argument("--override-ceilings", action="store_true", default=None,
                        dest="override_ceilings",
                        help=f"raise the field-degree ceiling from {DEGREE_CEILING} "
                             f"to the representation cap of {HARD_DEGREE_CAP}")

    parser = argparse.ArgumentParser(
        prog="permpoly",
        description="Verify permutation behavior of trace-sum polynomial maps "
                    "over GF(q^e) and search for desirable (n, e; q) triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-t1", parents=[common],
                       help="theorem pipeline: pp + identity + gcds at even k")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_verify_t1)

    p = sub.add_parser("verify-corollary", parents=[common],
                       help="the n = 65921 pipeline over GF(4^6)")
    p.set_defaults(func=cmd_verify_corollary)

    p = sub.add_parser("probe-t1-odd", parents=[common],
                       help="record pp status at odd k (no claim asserted)")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_probe_t1_odd)

    p = sub.add_parser("identities", parents=[common],
                       help="degree-bounded check of the squared-trace-sum identity")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("gcd", parents=[common],
                       help="the two proof-case gcd values at k")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_gcd)

    p = sub.add_parser("t2", parents=[common],
                       help="check the generalized-theorem conditions for L")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--L", default=None,
                   help="2-linearized expression, e.g. 'S(3)^2' or 'x + frob(S(2), 1)'")
    p.set_defaults(func=cmd_t2)

    p = sub.add_parser("gnq", parents=[common], help="compute and print one g_(n,q)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--memo-bound", type=int, default=None, dest="memo_bound")
    p.set_defaults(func=cmd_gnq)

    p = sub.add_parser("oracle", parents=[common],
                       help="check g_(n,q) against its defining identity")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--e", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("search", parents=[common],
                       help="scan an n-range for desirable triples")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--from", type=int, default=None, dest="n_from")
    p.add_argument("--to", type=int, default=None, dest="n_to")
    p.add_argument("--resume", type=int, default=None,
                   help="last completed n; scanning restarts after it")
    p.set_defaults(func=cmd_search)

    return parser


def _merge_config(args) -> None:
    if not args.config:
        return
    for key, value in _load_config(args.config).items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if args.format is not None and args.format not in ("text", "json", "csv"):
        raise UsageError(f"config format must be text, json, or csv, not {args.format!r}")


def _apply_defaults(args) -> None:
    args.format = args.format or "text"
    args.workers = args.workers if args.workers is not None else 1
    args.seed = args.seed if args.seed is not None else 0
    args.timing = bool(args.timing)
    args.override_ceilings = bool(args.override_ceilings)
    args.max_degree = HARD_DEGREE_CAP if args.override_ceilings else DEGREE_CEILING
    if not hasattr(args, "memo_bound"):
        args.memo_bound = None
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _merge_config(args)
        _apply_defaults(args)
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
