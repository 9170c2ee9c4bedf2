"""Command-line front end.

Subcommands: eval (single function value), qexp (exact q-expansion dump),
verify (identity registry runs), family (weight enumeration with
characteristic numbers), smatrix (boundary S/T matrices and fusion table).

Exit codes: 0 success / all verified, 1 failing verification, 2 bad usage or
input, which main reports as one `error:` line on stderr.
The default tolerance may be overridden through MOCKFORMS_TOL.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import sys
import types
from fractions import Fraction
from threading import RLock

from .qkernel import DEFAULT_POLICY, TruncationOverflowError, TruncationPolicy
from .theta import ThetaIndex
from .mock import MockIndex, PsiIndex
from . import formal
from . import verifier
from . import mock as mk, modification as md, theta as th

# The family modules sit in sys.modules and on the package, where perfbench's
# tracer looks them up, but run at the first read of a name they lack, under
# one re-entrant lock (family_d21a's body reads family_n4); other reads wait.
_FIRST_USE = RLock()


class _FirstUse(types.ModuleType):
    def __getattribute__(self, name):
        if name != "__dict__" and (name not in vars(self) or type(self) is _Running):
            with _FIRST_USE:
                if type(self) is _FirstUse:
                    stub, self.__class__ = dict(vars(self)), _Running
                    try:
                        if "__builtins__" not in stub:  # else a reload() ran the body
                            self.__spec__.loader.exec_module(self)
                    except BaseException:  # back to the stub: the next read runs it again
                        vars(self).clear()
                        vars(self).update(stub)
                        self.__class__ = _FirstUse
                        raise
                    self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


class _Running(_FirstUse):
    """A family module whose body runs now: a read waits for the lock."""


def _on_first_use(name: str) -> types.ModuleType:
    """The family module name, imported already or made to run on first use."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        sys.modules[full] = importlib.util.module_from_spec(importlib.util.find_spec(full))
        sys.modules[full].__class__ = _FirstUse
        setattr(sys.modules[__package__], name, sys.modules[full])
    return sys.modules[full]


family_n3, family_n4, family_d21a = map(_on_first_use, ("family_n3", "family_n4", "family_d21a"))

# registry parameter keys that `verify` can filter on, one option each
VERIFY_FILTER_KEYS = ("m", "s", "M", "n", "p", "q", "m2")


# a decimal component: digits with an optional point (3, 3., .5, 2.5) and
# an optional exponent (1e-3, 1E2)
_DECIMAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"


def parse_complex(s: str) -> complex:
    """Accepts "a+bi" / "a-bi" / "bi" / "a" with decimal components, each
    with an optional exponent; an empty string, nan, inf and a component
    past the double range are not numbers."""
    s = s.strip().replace(" ", "")
    m = re.fullmatch(rf"([+-]?{_DECIMAL})?(?:([+-](?:{_DECIMAL})?)i)?|([+-]?(?:{_DECIMAL})?)i", s)
    if not s or not m:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {s!r}")
    re_s, im_s = (None, m.group(3)) if m.group(3) is not None else m.group(1, 2)
    re_part = float(re_s) if re_s else 0.0
    im_part = 0.0 if im_s is None else float(im_s if im_s.strip("+-") else im_s + "1")
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise argparse.ArgumentTypeError(f"complex number {s!r} overflows a double")
    return complex(re_part, im_part)


def parse_rat(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse rational number {s!r}") from None


def parse_grid(s: str) -> tuple:
    """An n_tau x n_z grid, written NxM."""
    m = re.fullmatch(r"(\d+)[xX](\d+)", s.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse grid {s!r}, expected NxM")
    return int(m[1]), int(m[2])


def _policy() -> TruncationPolicy:
    tol = os.environ.get("MOCKFORMS_TOL")
    if tol:
        return TruncationPolicy(tol=float(tol))
    return DEFAULT_POLICY


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=None, separators=(",", ":")) + "\n")


def _cval(v: complex) -> dict:
    return {"re": v.real, "im": v.imag}


def _psi_index(a) -> PsiIndex:
    return PsiIndex.of(a.M, a.m, a.s, a.eps, a.aa, a.bb)


# Each table names a command's functions once.  Its calls read every kernel
# and family name when they run, from the home module, so that a function
# patched there is the one called and no family module runs at import.
_EVAL = {
    "theta": lambda a, p: th.theta_jm(ThetaIndex.of(a.j, a.m), a.tau, a.z, a.t, p),
    "jacobi": lambda a, p: th.jacobi_theta(a.a, a.b, a.tau, a.z, p),
    "eta": lambda a, p: th.dedekind_eta(a.tau, p),
    "phi1": lambda a, p: mk.phi1(MockIndex.of(a.m, a.s), a.tau, a.z1, a.z2, p),
    "phi": lambda a, p: mk.phi(MockIndex.of(a.m, a.s), a.tau, a.z1, a.z2, a.t, p, a.sign),
    "phi_tilde": lambda a, p: md.phi_tilde(MockIndex.of(a.m, a.s), a.tau, a.z1, a.z2, a.t, p),
    "psi": lambda a, p: mk.psi(_psi_index(a), a.tau, a.z1, a.z2, a.t, p),
    "psi_tilde": lambda a, p: md.psi_tilde(_psi_index(a), a.tau, a.z1, a.z2, a.t, p),
}

_QEXP = {
    "theta": lambda a: formal.expand_theta(a.j, a.m, a.order),
    "phi1": lambda a: formal.expand_phi1(a.m, a.s, a.order),
    "phi": lambda a: formal.expand_phi(a.m, a.s, a.order),
    "jacobi": lambda a: formal.expand_jacobi_theta(a.a, a.b, a.order),
}

# a family's module and the weights its options select
_FAMILIES = {
    "n3": lambda a: (family_n3, family_n3.enumerate_weights(a.m)),
    "n4": lambda a: (family_n4, family_n4.enumerate_weights(a.m)),
    "d21a": lambda a: (family_d21a, [w for ws in family_d21a.enumerate_weights(
        family_d21a.D21Params(a.p, a.q, a.n)).values() for w in ws]),
}


def cmd_eval(args) -> int:
    policy = _policy()
    if args.fn not in _EVAL:
        raise ValueError(f"unknown function {args.fn}")
    _emit({"fn": args.fn, "value": _cval(_EVAL[args.fn](args, policy))})
    return 0


def _half(b: int) -> str:
    """str(Fraction(b, 2))."""
    return f"{b}/2" if b % 2 else str(b // 2)


def cmd_qexp(args) -> int:
    if args.fn not in _QEXP:
        raise ValueError(f"unsupported-function: {args.fn} has no exact q-expansion")
    den, rows = _QEXP[args.fn](args).rows()
    qs = {a: str(Fraction(a, den)) for a in {row[0] for row in rows}}
    terms = [{"q": qs[a], "z1": _half(b1), "z2": _half(b2), "re": str(re), "im": str(im)}
             for a, b1, b2, re, im in rows]
    _emit({"fn": args.fn, "order": str(args.order), "terms": terms})
    return 0


def cmd_verify(args) -> int:
    policy = _policy()
    flt = {key: val for key in VERIFY_FILTER_KEYS
           if (val := getattr(args, "param_" + key)) is not None}
    if args.tag is not None:
        # a tag runs every id of it on its own default grid, unfiltered
        if args.id is not None:
            raise ValueError("verify takes --id or --tag, not both")
        if args.grid is not None or flt:
            raise ValueError("--grid and the parameter filters apply to --id, not to --tag")
        reports = verifier.suite(args.tag, policy, args.seed)
    elif args.id is not None:
        reports = [verifier.verify(args.id, args.grid, policy, args.seed, flt or None)]
    else:
        raise ValueError("verify needs --id or --tag")
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
    if args.family not in _FAMILIES:
        raise ValueError(f"unknown family {args.family}")
    module, weights = _FAMILIES[args.family](args)
    out = [{"label": w.label(),
            **{k: (str(v) if isinstance(v, Fraction) else v)
               for k, v in module.qhr_characteristics(w).items()}}
           for w in weights]
    _emit({"family": args.family, "weights": out})
    return 0


def cmd_smatrix(args) -> int:
    if args.family != "d21a":
        raise ValueError("smatrix is available for the d21a boundary family")
    sm = family_d21a.s_matrix_and_fusion(args.p)
    N = len(sm["labels"])
    fusion = [[i, j, k] for i in range(N) for j in range(N) for k in range(N)
              if sm["fusion"](i, j, k)]
    _emit({"labels": sm["labels"],
           "S": [[_cval(v) for v in row] for row in sm["S"]],
           "T": [_cval(v) for v in sm["T"]],
           "fusion_triples": fusion})
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for main to report; argparse would print its
    usage and exit.  Subparsers take the class of their parent."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mockforms")
    sub = ap.add_subparsers(dest="cmd", required=True)

    # the function and index options of eval and qexp
    fn = _Parser(add_help=False)
    fn.add_argument("--fn", required=True)
    fn.add_argument("--j", type=parse_rat, default="0")
    fn.add_argument("--m", type=parse_rat, default="1")
    fn.add_argument("--s", type=parse_rat, default="0")
    fn.add_argument("--a", type=int, default=0)
    fn.add_argument("--b", type=int, default=0)

    pe = sub.add_parser("eval", parents=[fn], help="evaluate one function at a point")
    pe.add_argument("--tau", type=parse_complex, required=True)
    pe.add_argument("--z", type=parse_complex, default=0j)
    pe.add_argument("--z1", type=parse_complex, default=0.23 + 0.04j)
    pe.add_argument("--z2", type=parse_complex, default=0.37 - 0.06j)
    pe.add_argument("--t", type=parse_complex, default=0j)
    pe.add_argument("--M", type=int, default=1)
    pe.add_argument("--eps", type=parse_rat, default="0")
    pe.add_argument("--aa", type=parse_rat, default="0")
    pe.add_argument("--bb", type=parse_rat, default="0")
    pe.add_argument("--sign", type=int, default=1)
    pe.set_defaults(func=cmd_eval)

    pq = sub.add_parser("qexp", parents=[fn], help="exact formal q-expansion")
    pq.add_argument("--order", type=parse_rat, default="4")
    pq.set_defaults(func=cmd_qexp)

    pv = sub.add_parser("verify", help="run identity verifications")
    pv.add_argument("--id")
    pv.add_argument("--tag")
    pv.add_argument("--grid", type=parse_grid)
    pv.add_argument("--seed", type=int, default=1)
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    for key in VERIFY_FILTER_KEYS:
        pv.add_argument(f"--{key}", dest="param_" + key, metavar=key, type=parse_rat)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("family", help="enumerate weights with characteristics")
    pf.add_argument("--family", required=True)
    pf.add_argument("--m", type=parse_rat, default="-1")
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
    # argparse takes a token that begins with "-" for an option unless it is
    # a plain negative integer or decimal, so "--m -3/4" would lose its
    # value; every option takes one, so a negative value after an option is
    # joined to it as "--m=-3/4"
    toks = []
    for tok in sys.argv[1:] if argv is None else argv:
        if re.match(r"-[\d.i]", tok) and toks and toks[-1][:2] == "--" and "=" not in toks[-1]:
            toks[-1] += "=" + tok
        else:
            toks.append(tok)
    try:
        args = build_parser().parse_args(toks)
        return args.func(args)
    except SystemExit as exc:  # only --help exits, after printing the help
        return exc.code
    except (ValueError, KeyError, TruncationOverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
