"""String codecs that only the tests use: exact scalar strings and JSON map
documents read back, to check what the command line writes."""

from multspec.dynamics import ProjMap
from multspec.errors import UsageError
from multspec.exactalg import QQ, Domain, PrimeField, field_from_str, scalar_from_str


def scalar_to_str(dom: Domain, a) -> str:
    if dom == QQ:
        return str(a)
    if isinstance(dom, PrimeField):
        return f"{a % dom.p} mod {dom.p}"
    return str(a)


def map_from_document(doc: dict) -> ProjMap:
    try:
        dom = field_from_str(doc["field"])
        degree = int(doc["degree"])
        num = [scalar_from_str(dom, s) for s in doc["num"]]
        den = [scalar_from_str(dom, s) for s in doc["den"]]
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"bad map document: {e}") from e
    phi = ProjMap(dom, num, den)
    if phi.d != degree:
        raise UsageError(f"document declares degree {degree}, map has degree {phi.d}")
    return phi
