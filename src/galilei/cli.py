"""Command-line frontend: deterministic JSON reports over the library.

Exit codes: 0 all requested verifications passed, 1 verification failed,
2 usage error, 3 internal fault (a failed consistency check or algebra error).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# Each verb imports the library modules it runs, so a verb compiles and
# loads only those (see the README's CLI section).  Annotations that name
# Matrix, Poly or PolyRing are never evaluated (``annotations`` above).
from .scalars import GRat, HALF, UsageError

SCHEMA = "galilei/1"


def _emit(payload: dict, stream=None) -> None:
    payload = {"schema": SCHEMA, **payload}
    json.dump(payload, stream or sys.stdout, sort_keys=True, indent=1)
    (stream or sys.stdout).write("\n")


def _matrix_json(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.entries],
    }


# -- field expression parser ------------------------------------------------------
# expr := term (('+'|'-') term)* ; term := factor ('*' factor)* ;
# factor := rational | 'x1'|'x2'|'x3' | '(' expr ')' | factor '^' nonneg-int


def _rational(text: str) -> GRat:
    try:
        return GRat(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {text!r}") from None


class FieldExprError(UsageError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


class _FieldParser:
    def __init__(self, text: str, ring: PolyRing):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Poly:
        out = self.expr()
        if self.pos != len(self.text):
            raise FieldExprError("trailing input", self.pos)
        return out

    def expr(self) -> Poly:
        out = self.term()
        while self.peek() and self.peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> Poly:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = out * self.factor()
        return out

    def factor(self) -> Poly:
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.factor()
        if c == "(":
            self.pos += 1
            out = self.expr()
            if self.peek() != ")":
                raise FieldExprError("expected ')'", self.pos)
            self.pos += 1
        elif c == "x":
            name = self.text[self.pos:self.pos + 2]
            if name not in ("x1", "x2", "x3"):
                raise FieldExprError("expected x1, x2 or x3", self.pos)
            self.pos += 2
            out = self.ring.sym(name)
        elif c.isdigit():
            start = self.pos
            while self.peek() and (self.peek().isdigit() or self.peek() == "/"):
                self.pos += 1
            lit = self.text[start:self.pos]
            try:
                out = self.ring.const(GRat(Fraction(lit)))
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldExprError(f"bad rational {lit!r} ({exc})", start)
        else:
            raise FieldExprError(f"unexpected character {c!r}", self.pos)
        while self.peek() == "^":
            self.pos += 1
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            if start == self.pos:
                raise FieldExprError("expected exponent", self.pos)
            out = out ** int(self.text[start:self.pos])
        return out


def parse_field_expr(text: str, ring: PolyRing) -> Poly:
    from .weyl import DEGREE_CAP

    poly = _FieldParser(text, ring).parse()
    deg = poly.total_degree(("x1", "x2", "x3"))
    if deg > DEGREE_CAP:
        for e, _ in poly.terms.items():
            names = ("x1", "x2", "x3")
            if sum(e[ring.index[n]] for n in names) > DEGREE_CAP:
                mono = "*".join(f"{n}^{e[ring.index[n]]}" for n in names if e[ring.index[n]])
                raise FieldExprError(f"degree cap {DEGREE_CAP} exceeded by {mono}", 0)
    return poly


# -- verbs --------------------------------------------------------------------------


def cmd_verify_rep(args) -> int:
    from . import reps

    rep = reps.build_text(args.rep)
    res = reps.verify_hg(rep)
    _emit({"verb": "verify-rep", "rep": args.rep, "dim": rep.dim,
           "ok": res["ok"], "violations": [list(map(str, v)) for v in res["violations"]]})
    return 0 if res["ok"] else 1


def cmd_classify(args) -> int:
    from . import reps

    pairs = None
    if args.pairs:
        try:
            pairs = [tuple(int(x) for x in p.split(",")) for p in args.pairs.split(";")]
        except ValueError:
            raise UsageError(f"bad --pairs {args.pairs!r}") from None
    found = reps.classify_bruteforce(pairs=pairs)
    expected = sorted(reps.table1_signatures())
    if pairs is not None:
        expected = [s for s in expected if (s[0], s[1]) in set(pairs)]
    ok = found == expected
    _emit({"verb": "classify", "found": [list(s) for s in found],
           "expected": [list(s) for s in expected], "ok": ok})
    return 0 if ok else 1


def cmd_solve_beta(args) -> int:
    from . import beta as beta_mod

    space = beta_mod.solve_beta4_space(args.left, args.right)
    payload = {
        "verb": "solve-beta",
        "pair": [args.left, args.right],
        "dim": space.dim,
        "hermitian": space.hermitian,
        "basis": [{"R": _matrix_json(R), "E": _matrix_json(E)} for R, E in space.basis],
    }
    if args.format == "table":
        print(f"{args.left} x {args.right}: dim {space.dim}")
        for R, E in space.basis:
            print("  R =", R, "  E =", E)
    else:
        _emit(payload)
    return 0


def cmd_appendix(args) -> int:
    from . import appendix as appendix_mod

    reports, summary = appendix_mod.reproduce_appendix()
    payload = {"verb": "appendix", "summary": summary}
    if args.table != "summary":
        payload["cells"] = reports
    _emit(payload)
    return 0 if summary["all_ok"] else 1


def cmd_catalog(args) -> int:
    from . import catalog as cat
    from .matrix import Matrix

    params = {}
    for k, _, v in (kv.partition("=") for kv in args.params or []):
        if k in params:
            raise UsageError(f"--params gives {k} more than once")
        params[k] = _rational(v)
    obj = cat.canonical(args.name, **params)
    if isinstance(obj, list):
        payload = {"matrices": [_matrix_json(m) for m in obj]}
    elif isinstance(obj, Matrix):
        payload = {"matrix": _matrix_json(obj)}
    else:
        payload = {
            "beta0": _matrix_json(obj.beta0),
            "betas": [_matrix_json(b) for b in obj.betas],
            "beta4": _matrix_json(obj.beta4),
        }
    _emit({"verb": "catalog", "name": args.name, **payload})
    return 0


def _system_for_spin(name: str):
    from . import catalog as cat

    if name not in cat.CATALOG_SYSTEMS:
        raise UsageError(f"unknown system {name!r}")
    if name == "D311":
        from .spin import generic_instance

        return generic_instance(cat.system_D311(), {"nu": GRat(2)})
    return cat.canonical(name)


def cmd_spin(args) -> int:
    from . import spin as spin_mod

    bs = _system_for_spin(args.system)
    rep = spin_mod.spin_content(bs)
    _emit({
        "verb": "spin",
        "system": args.system,
        "branches": [
            {"s": str(b.spin), "epsilon": str(b.epsilon), "mult": b.multiplicity}
            for b in rep.branches
        ],
        "cas10": rep.consistent_spin1,
        "cas11": rep.consistent_spin0,
        "two_route_equal": rep.two_route_equal,
        "notes": list(rep.notes),
    })
    return 0 if rep.two_route_equal else 1


def cmd_covariance(args) -> int:
    from . import covariance as cov_mod

    if args.trials < 0:
        raise UsageError(f"--trials must be >= 0 (0 = symbolic); got {args.trials}")
    bs = _system_for_spin(args.system)
    if args.trials:
        res = cov_mod.finite_boost_covariance(bs, symbolic=False, samples=args.trials,
                                              seed=args.seed)
    else:
        res = cov_mod.finite_boost_covariance(bs)
    _emit({"verb": "covariance", "system": args.system, "seed": args.seed, **res})
    return 0 if res["ok"] else 1


def _build_field_config(args, extra_params=(), invertible=("m", "e")):
    from . import interaction as inter_mod
    from .weyl import FieldConfig

    # tag every potential with its own amplitude symbol so the term
    # dictionary can separate structures even for fully numeric input;
    # the tags are set to 1 in the reported coefficients
    tags = ("fa0", "fa1", "fa2", "fa3")
    params, xring, alg = inter_mod.make_setting(extra_params=tuple(extra_params) + tags,
                                                invertible=invertible)
    a0 = parse_field_expr(args.A0, xring) * xring.sym("fa0") if args.A0 else xring.zero
    if args.A:
        parts = args.A.split(";")
        if len(parts) != 3:
            raise FieldExprError("vector potential needs three ';'-separated parts", 0)
        avec = [
            parse_field_expr(p, xring) * xring.sym(f"fa{i+1}") if p.strip() else xring.zero
            for i, p in enumerate(parts)
        ]
    else:
        avec = [xring.zero] * 3
    return params, xring, alg, FieldConfig(alg, a0, avec)


def cmd_reduce(args) -> int:
    from . import catalog as cat
    from . import interaction as inter_mod
    from .poly import PolyRing
    from .reps import PAULI, spin1_matrix

    if args.system not in ("levy_leblond", "D311"):
        raise UsageError(f"reduce does not support system {args.system!r}")
    # the coupling constants enter only the anomalous coupling, and mu/nu
    # only the spinor's Lambda; a flag given where it has no effect is refused
    applies = ()
    if args.coupling == "anomalous":
        applies = ("lambda1", "lambda2", "mu_coupling", "nu_coupling")
        if args.system == "D311":
            applies = applies[:2]
    for dest in ("lambda1", "lambda2", "mu_coupling", "nu_coupling"):
        if getattr(args, dest) is not None and dest not in applies:
            raise UsageError(f"--{dest.replace('_', '-')} does not apply to "
                             f"--system {args.system} --coupling {args.coupling}")

    def value(dest, default):
        given = getattr(args, dest)
        return _rational(default if given is None else given)

    if args.system == "levy_leblond":
        _, _, alg, fc = _build_field_config(args, extra_params=("lam1", "lam2"))
        bs = cat.levy_leblond()
        phys, sp = (0, 1), [s * HALF for s in PAULI]
        lam = (bs.beta0 * value("nu_coupling", "1")
               + cat.ll_lambda_generator() * value("mu_coupling", "1"))
    else:
        _, _, alg, fc = _build_field_config(args, extra_params=("lam1", "lam2", "nu"),
                                            invertible=("m", "e", "nu"))
        nring = PolyRing(("nu",), invertible=("nu",))
        bs = cat.system_D311(ring=nring)
        phys, sp = (0, 1, 2), [spin1_matrix(a) for a in range(3)]
        lam = bs.beta0
    if args.coupling == "anomalous":
        co = inter_mod.couple_anomalous(bs, fc, lam, phys, sp)
        subs = {"lam1": alg.params.const(value("lambda1", "0")),
                "lam2": alg.params.const(value("lambda2", "0"))}
        co.matrix = co.matrix.map(lambda w: w.subs_params(subs))
    else:
        co = inter_mod.couple_minimal(bs, fc, phys, sp)
    trunc = inter_mod.parse_truncation(args.truncate, alg.params) if args.truncate else None
    report = inter_mod.reduce_coupled(co, truncation=trunc)
    g = inter_mod.extract_g(report, alg)
    ones = {f"fa{k}": GRat(1) for k in range(4)}
    _emit({
        "verb": "reduce",
        "system": args.system,
        "coupling": args.coupling,
        "named_terms": {k: str(v.subs(ones)) for k, v in report.named.items()},
        "g": str(g.subs(ones)),
        "residual_zero": report.residual.is_zero(),
        "normalisation": str(report.normalisation.subs(ones)),
    })
    return 0


def cmd_proca(args) -> int:
    from . import catalog as cat

    ok_contraction = cat.proca_contraction_identity()
    rest = cat.proca_rest_frame_solutions()
    detinfo = cat.proca_determinant_factor()
    # rank defect exactly on the dispersion surface: det = lam m^3 C2^3
    c2, lam, m = detinfo["c2"], detinfo["lam"], detinfo["m"]
    ratio_ok = detinfo["det"] == c2 ** 3 * lam * m ** 3
    _emit({
        "verb": "proca",
        "contraction_identity": ok_contraction,
        "rest_frame_dimension": rest["dimension"],
        "det_is_lam_m3_c2_3": ratio_ok,
    })
    return 0 if (ok_contraction and rest["dimension"] == 3 and ratio_ok) else 1


def cmd_contract_dkp(args) -> int:
    from . import catalog as cat

    res = cat.dkp_contraction()
    _emit({"verb": "contract-dkp", "main_ok": res["main_ok"], "aux_ok": res["aux_ok"]})
    return 0 if (res["main_ok"] and res["aux_ok"]) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="galilei", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    sub = p.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("verify-rep")
    q.add_argument("--rep", required=True)
    q.set_defaults(func=cmd_verify_rep)

    q = sub.add_parser("classify")
    q.add_argument("--pairs", help='e.g. "1,1;1,2" to restrict (n,m) pairs')
    q.set_defaults(func=cmd_classify)

    q = sub.add_parser("solve-beta")
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)
    q.add_argument("--format", choices=("json", "table"), default="json")
    q.set_defaults(func=cmd_solve_beta)

    q = sub.add_parser("appendix")
    q.add_argument("--table", default="summary", choices=("summary", "all"))
    q.set_defaults(func=cmd_appendix)

    q = sub.add_parser("catalog")
    q.add_argument("--name", required=True)
    q.add_argument("--params", nargs="*", help="k=v pairs")
    q.set_defaults(func=cmd_catalog)

    q = sub.add_parser("spin")
    q.add_argument("--system", required=True)
    q.set_defaults(func=cmd_spin)

    q = sub.add_parser("covariance")
    q.add_argument("--system", required=True)
    q.add_argument("--trials", type=int, default=0, help="0 = symbolic")
    q.set_defaults(func=cmd_covariance)

    q = sub.add_parser("reduce")
    q.add_argument("--system", required=True)
    q.add_argument("--coupling", choices=("minimal", "anomalous"), default="minimal")
    q.add_argument("--lambda1", help="anomalous coupling only (default 0)")
    q.add_argument("--lambda2", help="anomalous coupling only (default 0)")
    q.add_argument("--mu-coupling", help="anomalous levy_leblond only (default 1)")
    q.add_argument("--nu-coupling", help="anomalous levy_leblond only (default 1)")
    q.add_argument("--A0", default="")
    q.add_argument("--A", default="")
    q.add_argument("--truncate", default="",
                   help='exponent windows cut from the reduced physical block before it is '
                        'normalised, e.g. "e:1,nu:-2"')
    q.set_defaults(func=cmd_reduce)

    q = sub.add_parser("proca")
    q.set_defaults(func=cmd_proca)

    q = sub.add_parser("contract-dkp")
    q.set_defaults(func=cmd_contract_dkp)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rc = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ValueError, ArithmeticError) as exc:
        print(f"internal fault ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
