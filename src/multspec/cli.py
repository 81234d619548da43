"""Command line driver: one subcommand per operation, one document per run.

Output is a single JSON document with sorted keys and exact scalars, so
the same seed always produces byte-identical text.  Exit codes: 0 on
success, 1 when the mathematics fails (validation, degeneracy, count
disagreement), 2 for usage problems, 3 when a step budget runs out.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import parsing
from .dynamics import sigma1_relation_residual, sigma_n, tau
from .errors import BudgetExhaustedError, MathError, UsageError
from .exactalg import QQ, field_from_str, field_to_str, scalar_from_str
from .polymoduli import (
    complete_multipliers,
    count_fixed_configurations,
    p3_from_sigma1,
    sigma2_discrimination,
)
from .rat3 import (
    Deg3Invariants,
    deg_tau32_report,
    deg_tau32_single,
    map_from_invariants,
    reconstruct_from_fixed_data,
)
from .reproduce import run_all, run_criterion


class _Parser(argparse.ArgumentParser):
    # no prefix matching: leftovers become map parameters, so typos must be loud
    def __init__(self, *a, **kw):
        kw.setdefault("allow_abbrev", False)
        super().__init__(*a, **kw)

    def error(self, message):
        raise UsageError(message)


def _add_common(p):
    p.add_argument("--field", default=None, help="QQ (default) or GF:p")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--config", default=None, help="flat key/value experiment file")


@functools.cache  # parse_known_args leaves the parser unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="multspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
        ("sigma", "elementary symmetric functions of the level-n multipliers"),
        ("tau", "sigma vectors for every level up to n"),
        ("relation", "fixed-point multiplier relation residuals"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--map", dest="map_expr", default=None, help="affine expression in z")
        p.add_argument("--num", default=None, help="homogeneous numerator coefficients, descending")
        p.add_argument("--den", default=None, help="homogeneous denominator coefficients, descending")
        if name != "relation":
            p.add_argument("-n", "--level", dest="n", type=int, default=1)
        _add_common(p)

    p = sub.add_parser("poly-classes", help="fixed-point configurations of polynomial normal forms")
    p.add_argument("-d", "--degree", dest="d", type=int, required=True)
    p.add_argument("--lambdas", default=None, help="d affine multipliers, or d-1 to derive the last")
    _add_common(p)

    p = sub.add_parser("sigma2-check", help="certify the classes have pairwise distinct sigma_2")
    p.add_argument("-d", "--degree", dest="d", type=int, required=True)
    p.add_argument("--lambdas", default=None, help="rational affine multipliers")
    _add_common(p)

    p = sub.add_parser("p3-form", help="cubic normal forms with a given multiplier triple")
    p.add_argument("--lambdas", required=True, help="three fixed-point multipliers")
    _add_common(p)

    p = sub.add_parser("deg-tau32", help="level-2 fiber counts for marked degree-3 maps")
    p.add_argument("--lambdas", default=None, help="l0,l1,linf,lbeta for a single draw (else random)")
    p.add_argument("--draws", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("reconstruct", help="the unique map with given fixed points and multipliers")
    p.add_argument("--points", required=True, help="comma list, inf allowed once")
    p.add_argument("--lambdas", required=True)
    _add_common(p)

    p = sub.add_parser("normal-form3", help="degree-3 map fixing 0, 1, inf, alpha")
    p.add_argument("--l0", required=True)
    p.add_argument("--l1", required=True)
    p.add_argument("--linf", required=True)
    p.add_argument("--alpha", required=True)
    _add_common(p)

    p = sub.add_parser("reproduce-paper", help="run every acceptance criterion")
    p.add_argument("--only", type=int, default=None, help="run a single criterion by number")
    _add_common(p)

    return parser


def _load_config(args):
    if not args.config:
        return parsing.ExperimentConfig()
    try:
        with open(args.config) as fh:
            cfg = parsing.parse_config(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from e
    if cfg.experiment is not None and cfg.experiment != args.command:
        raise UsageError(f"config is for {cfg.experiment!r}, not {args.command!r}")
    return cfg


def _resolve(args):
    """Fold config-file values under explicit flags and apply defaults."""
    cfg = _load_config(args)
    field = args.field if args.field is not None else cfg.field
    args.dom = field_from_str(field) if field not in (None, "random") else QQ
    args.field_policy = field
    args.seed = args.seed if args.seed is not None else (cfg.seed if cfg.seed is not None else 0)
    args.budget = args.budget if args.budget is not None else cfg.budget
    if getattr(args, "lambdas", None) is None:
        args.lambdas = cfg.lambdas
    if getattr(args, "draws", None) is None and cfg.draws is not None:
        args.draws = cfg.draws
    args.rng = random.Random(args.seed)
    return args


def _parse_map(args):
    if args.map_expr is not None and (args.num or args.den):
        raise UsageError("give --map or --num/--den, not both")
    if args.map_expr is not None:
        params = {name: scalar_from_str(args.dom, val) for name, val in args.params}
        return parsing.parse_map_expr(args.dom, args.map_expr, params)
    if args.num is None or args.den is None:
        raise UsageError("a map needs --map EXPR or both --num and --den")
    from .dynamics import ProjMap

    return ProjMap(
        args.dom,
        parsing.parse_scalar_list(args.dom, args.num),
        parsing.parse_scalar_list(args.dom, args.den),
    )


def _sigma_payload(sv):
    return [parsing.scalar_doc(v) for v in sv.values]


def _cmd_sigma(args):
    phi = _parse_map(args)
    sv = sigma_n(phi, args.n)
    return {
        "command": "sigma",
        "map": parsing.map_to_document(phi),
        "n": args.n,
        "sigma": _sigma_payload(sv),
    }


def _cmd_tau(args):
    phi = _parse_map(args)
    ti = tau(phi, args.n)
    return {
        "command": "tau",
        "map": parsing.map_to_document(phi),
        "n": args.n,
        "sigmas": [_sigma_payload(sv) for sv in ti.sigmas],
    }


def _cmd_relation(args):
    phi = _parse_map(args)
    rr = sigma1_relation_residual(sigma_n(phi, 1), phi.d, phi.is_polynomial)
    return {
        "command": "relation",
        "map": parsing.map_to_document(phi),
        "polynomial": phi.is_polynomial,
        "theorem_residual": parsing.scalar_doc(rr.theorem),
        "corollary_residual": None if rr.corollary is None else parsing.scalar_doc(rr.corollary),
    }


def _affine_multipliers(args):
    if args.lambdas is None:
        raise UsageError("this experiment needs --lambdas")
    lams = parsing.parse_scalar_list(args.dom, args.lambdas)
    if len(lams) == args.d - 1:
        lams = complete_multipliers(args.dom, args.d, lams)
    if len(lams) != args.d:
        raise UsageError(f"need {args.d} affine multipliers (or {args.d - 1} to derive the last)")
    return lams


def _cmd_poly_classes(args):
    if args.field_policy in (None, "random"):
        from .exactalg import GF, random_prime

        # solving needs split eliminants and a (d-1)-st root of unity
        args.dom = GF(random_prime(args.rng, 20, 1, args.d - 1))
    lams = _affine_multipliers(args)
    solutions, classes = count_fixed_configurations(args.dom, args.d, lams, args.rng, args.budget)
    return {
        "command": "poly-classes",
        "field": field_to_str(args.dom),
        "degree": args.d,
        "lambdas": [parsing.scalar_doc(l) for l in lams],
        "solutions": solutions,
        "classes": classes,
    }


def _cmd_sigma2_check(args):
    args.dom = QQ  # the certificate picks its own primes
    lams = _affine_multipliers(args)
    rep = sigma2_discrimination(args.d, lams, args.rng, budget=args.budget)
    return {
        "command": "sigma2-check",
        "degree": rep.d,
        "lambdas": [parsing.scalar_doc(l) for l in lams],
        "prime": rep.prime,
        "primes_tried": rep.primes_tried,
        "solutions": rep.solutions,
        "classes": rep.classes,
        "all_distinct": rep.all_distinct,
        "method": rep.method,
        "invariant_power": rep.invariant_power,
    }


def _cmd_p3_form(args):
    lams = parsing.parse_scalar_list(args.dom, args.lambdas)
    if len(lams) != 3:
        raise UsageError("p3-form takes exactly three multipliers")
    pairs = p3_from_sigma1(args.dom, lams)
    return {
        "command": "p3-form",
        "field": field_to_str(args.dom),
        "lambdas": [parsing.scalar_doc(l) for l in lams],
        "candidates": [
            {"a": parsing.scalar_doc(a), "27b^2": parsing.scalar_doc(b27)} for a, b27 in pairs
        ],
    }


def _draw_payload(draw):
    return {
        "prime": draw.prime,
        "lambdas": [parsing.scalar_doc(l) for l in draw.lambdas],
        "bezout": draw.bezout,
        "distinct": draw.distinct,
        "degenerate": draw.degenerate,
        "simple": draw.simple,
        "degree": draw.degree,
        "alpha_values": draw.alpha_values,
    }


def _cmd_deg_tau32(args):
    if args.lambdas not in (None, "random"):
        if args.field_policy in (None, "random") or args.dom == QQ:
            raise UsageError("a pinned specialization needs --field GF:p")
        lams = parsing.parse_scalar_list(args.dom, args.lambdas)
        if len(lams) != 4:
            raise UsageError("deg-tau32 takes l0,l1,linf,lbeta")
        draw = deg_tau32_single(args.dom, *lams, args.rng, args.budget)
        draws = (draw,)
        summary = draw
    else:
        rep = deg_tau32_report(args.rng, draws=args.draws or 3, budget=args.budget)
        draws = rep.draws
        summary = rep
    return {
        "command": "deg-tau32",
        "bezout": summary.bezout,
        "distinct": summary.distinct,
        "degenerate": summary.degenerate,
        "simple": summary.simple,
        "degree": summary.degree,
        "draws": [_draw_payload(d) for d in draws],
    }


def _cmd_reconstruct(args):
    pts = parsing.parse_points(args.dom, args.points)
    lams = parsing.parse_scalar_list(args.dom, args.lambdas)
    phi = reconstruct_from_fixed_data(args.dom, pts, lams)
    return {"command": "reconstruct", "map": parsing.map_to_document(phi)}


def _cmd_normal_form3(args):
    dom = args.dom
    inv = Deg3Invariants(
        dom,
        scalar_from_str(dom, args.l0),
        scalar_from_str(dom, args.l1),
        scalar_from_str(dom, args.linf),
        scalar_from_str(dom, args.alpha),
    )
    phi = map_from_invariants(inv)
    return {
        "command": "normal-form3",
        "lalpha": parsing.scalar_doc(inv.lalpha),
        "map": parsing.map_to_document(phi),
    }


def _cmd_reproduce(args):
    if args.only is not None:
        from .reproduce import CRITERIA

        if args.only not in {num for num, _, _ in CRITERIA}:
            raise UsageError(f"no criterion {args.only}; there are {len(CRITERIA)}")
        results = [run_criterion(args.only, args.seed, args.budget)]
    else:
        results = run_all(args.seed, args.budget)
    return {
        "command": "reproduce-paper",
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "result": "PASS" if r.passed else "FAIL",
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }


_HANDLERS = {
    "sigma": _cmd_sigma,
    "tau": _cmd_tau,
    "relation": _cmd_relation,
    "poly-classes": _cmd_poly_classes,
    "sigma2-check": _cmd_sigma2_check,
    "p3-form": _cmd_p3_form,
    "deg-tau32": _cmd_deg_tau32,
    "reconstruct": _cmd_reconstruct,
    "normal-form3": _cmd_normal_form3,
    "reproduce-paper": _cmd_reproduce,
}


def _param_bindings(extras):
    """Leftover "-name value" pairs bind parameters in --map expressions."""
    out = []
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not (tok.startswith("-") and not tok.startswith("--") and tok[1:].isidentifier()):
            raise UsageError(f"unrecognized argument {tok!r}")
        if i + 1 >= len(extras):
            raise UsageError(f"parameter {tok!r} has no value")
        out.append((tok.lstrip("-"), extras[i + 1]))
        i += 2
    return out


# flags whose values may start with a minus sign; joined with = so the
# parser never mistakes "-5,5,4" for an option
_VALUE_FLAGS = {"--lambdas", "--points", "--num", "--den", "--map", "--l0", "--l1", "--linf", "--alpha"}


def _join_values(argv):
    out, i = [], 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def run_command(argv):
    """Exit code and the document text for one invocation."""
    try:
        args, extras = build_parser().parse_known_args(_join_values(list(argv)))
        args.params = _param_bindings(extras)
        if args.params and args.command not in ("sigma", "tau", "relation"):
            raise UsageError(f"unrecognized arguments: {extras}")
        _resolve(args)
        payload = _HANDLERS[args.command](args)
        code = 0
        if args.command == "reproduce-paper" and payload["passed"] < payload["total"]:
            code = 1
        return code, parsing.emit_document(payload)
    except BudgetExhaustedError as e:
        return 3, parsing.emit_document({"error": str(e), "kind": "budget"})
    except UsageError as e:
        return 2, parsing.emit_document({"error": str(e), "kind": "usage"})
    except MathError as e:
        return 1, parsing.emit_document({"error": str(e), "kind": "math"})


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
