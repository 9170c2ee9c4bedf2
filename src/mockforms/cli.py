"""Command-line front end.

Subcommands: eval (single function value), qexp (exact q-expansion dump),
verify (identity registry runs), family (weight enumeration with
characteristic numbers), smatrix (boundary S/T matrices and fusion table).

Exit codes: 0 success / all verified, 1 failing verification, 2 bad usage or input.
The default tolerance may be overridden through MOCKFORMS_TOL.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .qkernel import DEFAULT_POLICY, TruncationOverflowError, TruncationPolicy
from .theta import ThetaIndex, dedekind_eta, jacobi_theta, theta_jm
from .mock import MockIndex, PsiIndex, phi, phi1, psi
from .modification import phi_tilde, psi_tilde
from . import formal
from . import verifier
from . import family_n3, family_n4, family_d21a


def parse_complex(s: str) -> complex:
    """Accepts "a+bi" / "a-bi" / "bi" / "a" with decimal components."""
    s = s.strip().replace(" ", "")
    m = re.fullmatch(r"([+-]?\d*\.?\d+)?(?:([+-]\d*\.?\d*)i)?|([+-]?\d*\.?\d*)i", s)
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {s!r}")
    if m.group(3) is not None:
        im = m.group(3)
        return complex(0.0, float(im + "1" if im in ("", "+", "-") else im))
    re_part = float(m.group(1)) if m.group(1) else 0.0
    im_part = 0.0
    if m.group(2) is not None:
        im = m.group(2)
        im_part = float(im + "1" if im in ("+", "-") else im)
    return complex(re_part, im_part)


def parse_rat(s: str) -> Fraction:
    return Fraction(s)


def _policy() -> TruncationPolicy:
    tol = os.environ.get("MOCKFORMS_TOL")
    if tol:
        return TruncationPolicy(tol=float(tol))
    return DEFAULT_POLICY


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=None, separators=(",", ":")) + "\n")


def _cval(v: complex) -> dict:
    return {"re": v.real, "im": v.imag}


def cmd_eval(args) -> int:
    policy = _policy()
    tau = args.tau
    fn = args.fn
    if fn == "theta":
        v = theta_jm(ThetaIndex.of(parse_rat(args.j), parse_rat(args.m)),
                     tau, args.z, args.t, policy)
    elif fn == "jacobi":
        v = jacobi_theta(args.a, args.b, tau, args.z, policy)
    elif fn == "eta":
        v = dedekind_eta(tau, policy)
    elif fn == "phi1":
        v = phi1(MockIndex.of(parse_rat(args.m), parse_rat(args.s)),
                 tau, args.z1, args.z2, policy)
    elif fn == "phi":
        v = phi(MockIndex.of(parse_rat(args.m), parse_rat(args.s)),
                tau, args.z1, args.z2, args.t, policy)
    elif fn == "phi_signed":
        v = phi(MockIndex.of(parse_rat(args.m), parse_rat(args.s)),
                tau, args.z1, args.z2, args.t, policy, args.sign)
    elif fn == "phi_tilde":
        v = phi_tilde(MockIndex.of(parse_rat(args.m), parse_rat(args.s)),
                      tau, args.z1, args.z2, args.t, policy)
    elif fn == "psi":
        idx = PsiIndex.of(args.M, parse_rat(args.m), parse_rat(args.s),
                          parse_rat(args.eps), parse_rat(args.aa), parse_rat(args.bb))
        v = psi(idx, tau, args.z1, args.z2, args.t, policy)
    elif fn == "psi_tilde":
        idx = PsiIndex.of(args.M, parse_rat(args.m), parse_rat(args.s),
                          parse_rat(args.eps), parse_rat(args.aa), parse_rat(args.bb))
        v = psi_tilde(idx, tau, args.z1, args.z2, args.t, policy)
    else:
        raise argparse.ArgumentTypeError(f"unknown function {fn}")
    _emit({"fn": fn, "value": _cval(v)})
    return 0


def cmd_qexp(args) -> int:
    order = Fraction(args.order)
    if args.fn == "theta":
        series = formal.expand_theta(parse_rat(args.j), parse_rat(args.m), order)
    elif args.fn == "phi1":
        series = formal.expand_phi1(parse_rat(args.m), parse_rat(args.s), order)
    elif args.fn == "phi":
        series = formal.expand_phi(parse_rat(args.m), parse_rat(args.s), order)
    elif args.fn == "jacobi":
        series = formal.expand_jacobi_theta(args.a, args.b, order)
    else:
        sys.stderr.write(f"unsupported-function: {args.fn} has no exact q-expansion\n")
        return 2
    terms = []
    for (alpha, b1, b2), c in sorted(series.terms.items()):
        terms.append({"q": str(alpha), "z1": str(Fraction(b1, 2)),
                      "z2": str(Fraction(b2, 2)),
                      "re": str(c.re), "im": str(c.im)})
    _emit({"fn": args.fn, "order": str(order), "terms": terms})
    return 0


def cmd_verify(args) -> int:
    policy = _policy()
    grid = None
    if args.grid:
        n_tau, n_z = args.grid.lower().split("x")
        grid = (int(n_tau), int(n_z))
    flt = {}
    for key in ("m", "s", "M", "n", "p", "q", "m2"):
        val = getattr(args, "param_" + key, None)
        if val is not None:
            flt[key] = val
    if args.id:
        reports = [verifier.verify(args.id, grid, policy, args.seed, flt or None)]
    elif args.tag:
        reports = verifier.suite(args.tag, policy, args.seed)
    else:
        sys.stderr.write("verify needs --id or --tag\n")
        return 2
    if args.format == "csv":
        sys.stdout.write("id,max_abs_err,tol,pass,skipped\n")
        for r in reports:
            sys.stdout.write(f"{r.id},{r.max_abs_err!r},{r.tol!r},"
                             f"{str(r.passed).lower()},{r.skipped}\n")
    else:
        for r in reports:
            _emit(r.to_dict())
    return 0 if all(r.passed for r in reports) else 1


def cmd_family(args) -> int:
    out = []
    if args.family == "n3":
        for w in family_n3.enumerate_weights(Fraction(args.m)):
            ch = family_n3.qhr_characteristics(w)
            out.append({"label": w.label(),
                        **{k: (str(v) if isinstance(v, Fraction) else v)
                           for k, v in ch.items()}})
    elif args.family == "n4":
        for w in family_n4.enumerate_weights(int(args.m)):
            ch = family_n4.qhr_characteristics(w)
            out.append({"label": w.label(),
                        **{k: (str(v) if isinstance(v, Fraction) else v)
                           for k, v in ch.items()}})
    elif args.family == "d21a":
        params = family_d21a.D21Params(args.p, args.q, args.n)
        for j, ws in family_d21a.enumerate_weights(params).items():
            for w in ws:
                ch = family_d21a.qhr_characteristics(w)
                out.append({"label": w.label(),
                            **{k: (str(v) if isinstance(v, Fraction) else v)
                               for k, v in ch.items()}})
    else:
        sys.stderr.write(f"unknown family {args.family}\n")
        return 2
    _emit({"family": args.family, "weights": out})
    return 0


def cmd_smatrix(args) -> int:
    if args.family != "d21a":
        sys.stderr.write("smatrix is available for the d21a boundary family\n")
        return 2
    sm = family_d21a.s_matrix_and_fusion(args.p)
    N = len(sm["labels"])
    fusion = [[i, j, k] for i in range(N) for j in range(N) for k in range(N)
              if sm["fusion"](i, j, k)]
    _emit({"labels": sm["labels"],
           "S": [[_cval(v) for v in row] for row in sm["S"]],
           "T": [_cval(v) for v in sm["T"]],
           "fusion_triples": fusion})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mockforms")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at a point")
    pe.add_argument("--fn", required=True)
    pe.add_argument("--tau", type=parse_complex, required=True)
    pe.add_argument("--z", type=parse_complex, default=0j)
    pe.add_argument("--z1", type=parse_complex, default=0.23 + 0.04j)
    pe.add_argument("--z2", type=parse_complex, default=0.37 - 0.06j)
    pe.add_argument("--t", type=parse_complex, default=0j)
    pe.add_argument("--j", default="0")
    pe.add_argument("--m", default="1")
    pe.add_argument("--s", default="0")
    pe.add_argument("--a", type=int, default=0)
    pe.add_argument("--b", type=int, default=0)
    pe.add_argument("--M", type=int, default=1)
    pe.add_argument("--eps", default="0")
    pe.add_argument("--aa", default="0")
    pe.add_argument("--bb", default="0")
    pe.add_argument("--sign", type=int, default=1)
    pe.set_defaults(func=cmd_eval)

    pq = sub.add_parser("qexp", help="exact formal q-expansion")
    pq.add_argument("--fn", required=True)
    pq.add_argument("--order", default="4")
    pq.add_argument("--j", default="0")
    pq.add_argument("--m", default="1")
    pq.add_argument("--s", default="0")
    pq.add_argument("--a", type=int, default=0)
    pq.add_argument("--b", type=int, default=0)
    pq.set_defaults(func=cmd_qexp)

    pv = sub.add_parser("verify", help="run identity verifications")
    pv.add_argument("--id")
    pv.add_argument("--tag")
    pv.add_argument("--grid")
    pv.add_argument("--seed", type=int, default=1)
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    for key in ("m", "s", "M", "n", "p", "q", "m2"):
        pv.add_argument(f"--{key}", dest="param_" + key)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("family", help="enumerate weights with characteristics")
    pf.add_argument("--family", required=True)
    pf.add_argument("--m", default="-1")
    pf.add_argument("--p", type=int, default=1)
    pf.add_argument("--q", type=int, default=1)
    pf.add_argument("--n", type=int, default=1)
    pf.set_defaults(func=cmd_family)

    ps = sub.add_parser("smatrix", help="boundary S/T matrices and fusion table")
    ps.add_argument("--family", default="d21a")
    ps.add_argument("--p", type=int, required=True)
    ps.set_defaults(func=cmd_smatrix)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, TruncationOverflowError, argparse.ArgumentTypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
