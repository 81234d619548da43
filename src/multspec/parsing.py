"""Text input and output: map expressions, documents, and config files.

Maps come in as affine rational-function syntax ("(z^2+1)/(z-1)", with
named parameters bound separately) or as homogeneous coefficient lists;
they go out as flat documents whose scalars are exact decimal-free
strings, in the syntax the scalar parsers read.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass

from .dynamics import ProjMap, ProjPoint
from .errors import UsageError
from .exactalg import (
    Domain,
    UniPoly,
    field_to_str,
    poly_gcd,
    scalar_from_str,
)

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _pair_mul(dom, a, b):
    return (a[0] * b[0], a[1] * b[1])


def _pair_div(dom, a, b):
    return (a[0] * b[1], a[1] * b[0])


def _pair_add(dom, a, b):
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _pair_pow(dom, a, e):
    if abs(e) > 64:
        raise UsageError(f"exponent {e} is past any sensible map degree")
    num, den = a if e >= 0 else (a[1], a[0])
    return (num ** abs(e), den ** abs(e))


def _eval_node(node, dom, params):
    one = UniPoly.const(dom, "z", dom.one)
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, dom, params)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return (UniPoly.const(dom, "z", dom.from_int(node.value)), one)
        raise UsageError(f"literal {node.value!r} is not exact; write fractions with /")
    if isinstance(node, ast.Name):
        if node.id == "z":
            return (UniPoly.gen(dom, "z"), one)
        if node.id in params:
            return (UniPoly.const(dom, "z", params[node.id]), one)
        raise UsageError(f"unbound parameter {node.id!r}; pass a value for it")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        n, d = _eval_node(node.operand, dom, params)
        return (-n, d) if isinstance(node.op, ast.USub) else (n, d)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _eval_node(node.left, dom, params)
        if isinstance(node.op, ast.Pow):
            e = node.right
            sign = 1
            if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
                sign, e = -1, e.operand
            if not (isinstance(e, ast.Constant) and isinstance(e.value, int)):
                raise UsageError("exponents must be integer literals")
            return _pair_pow(dom, left, sign * e.value)
        right = _eval_node(node.right, dom, params)
        if isinstance(node.op, ast.Add):
            return _pair_add(dom, left, right)
        if isinstance(node.op, ast.Sub):
            return _pair_add(dom, left, (-right[0], right[1]))
        if isinstance(node.op, ast.Mult):
            return _pair_mul(dom, left, right)
        return _pair_div(dom, left, right)
    raise UsageError(f"unsupported syntax in map expression: {ast.dump(node)[:60]}")


def parse_map_expr(dom: Domain, text: str, params=None) -> ProjMap:
    """Affine expression in z over dom, e.g. "(z^3+a*z+b)/(z^2-1)"."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as e:
        raise UsageError(f"cannot parse map expression {text!r}: {e.msg}") from e
    num, den = _eval_node(tree, dom, params or {})
    if den.is_zero:
        raise UsageError("map expression divides by zero")
    g = poly_gcd(num, den)
    if g.degree > 0:
        num, den = num.divmod(g)[0], den.divmod(g)[0]
    if max(num.degree, den.degree) < 1:
        raise UsageError("map expression is constant")
    return ProjMap.from_affine(num, den)


def parse_scalar_list(dom: Domain, text: str):
    items = [s for s in text.replace(";", ",").split(",") if s.strip()]
    if not items:
        raise UsageError(f"empty scalar list {text!r}")
    return [scalar_from_str(dom, s) for s in items]


def parse_points(dom: Domain, text: str):
    pts = []
    for s in text.split(","):
        s = s.strip()
        if s.lower() in ("inf", "infinity", "oo"):
            pts.append(ProjPoint.infinity(dom))
        else:
            pts.append(ProjPoint.affine(dom, scalar_from_str(dom, s)))
    return pts


# ---------------------------------------------------------------------------
# documents


def scalar_doc(a) -> str:
    return str(a)


def map_to_document(phi: ProjMap) -> dict:
    return {
        "field": field_to_str(phi.dom),
        "degree": phi.d,
        "num": [scalar_doc(c) for c in phi.num],
        "den": [scalar_doc(c) for c in phi.den],
    }


def emit_document(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# experiment config files


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat key/value experiment description; unknown keys are rejected."""

    experiment: str | None = None
    field: str | None = None
    lambdas: str | None = None
    draws: int | None = None
    seed: int | None = None
    budget: int | None = None


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            key, _, val = line.partition(" ")
        key, val = key.strip(), val.strip()
        if key not in ExperimentConfig.__dataclass_fields__:
            raise UsageError(f"unknown config key {key!r} on line {ln}")
        if not val:
            raise UsageError(f"config key {key!r} on line {ln} has no value")
        if key in ("draws", "seed", "budget"):
            try:
                val = int(val)
            except ValueError as e:
                raise UsageError(f"config key {key!r} needs an integer, got {val!r}") from e
        values[key] = val
    return ExperimentConfig(**values)
