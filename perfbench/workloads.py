"""Seeded op lists for the multspec benchmark, each op with its check.

An op is one ``multspec.cli.run_command`` call.  Every input is drawn here
from the workload seed; the program only ever sees argv.  Each op carries a
check that tests its JSON document against a mathematical invariant and
returns a description of what broke, or None.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("tau32", "polyfiber", "spectra")

# Op-list shapes; changing any of these changes what every later run measures.
# A pass takes a sixth to most of a 30 s run, so a slower machine runs
# fewer passes rather than a longer run.  Several distinct inputs per pass
# average out how much work one seed happens to draw (retried draws, primes
# tried).  Class sizes keep the 50th and 90th latency percentiles inside a
# cluster of like calls, not on the gap between two.
TAU32_CALLS = 4  # deg-tau32 calls per pass, each with its own generated seed
TAU32_DRAWS = 1  # draws per call: short calls let the speed gauge of speed.py bracket each one
POLYFIBER_SEEDS = 6  # generated seeds per pass: each runs the d = 5 calls, every second one the d = 4 calls too
SIGMA_LEVELS = ((3, 2), (4, 2), (2, 3), (2, 4), (5, 2))  # (degree, period) of the QQ/GF:p sigma pairs
SIGMA_MAPS = 2  # maps per sigma level
# 24 relation calls per sigma call: the slowest tenth of all calls is then the
# sigma calls plus half of the slowest relation class (d = 5 over QQ, an eighth)
RELATION_MAPS = 24 * 2 * len(SIGMA_LEVELS) * SIGMA_MAPS
SIGMA_HEIGHT = 99  # QQ sigma maps have integer coefficients in [-99, 99]
RELATION_HEIGHT = 9  # QQ relation maps have integer coefficients in [-9, 9]
PRIME_BITS = 30

TAU32_COUNTS = {"bezout": 144, "distinct": 18, "degenerate": 6, "simple": 12, "degree": 12}

# (subcommand, degree, --lambdas, solutions, classes)
POLYFIBER_CALLS = (
    ("poly-classes", 4, "-5,5,4", 6, 2),
    ("sigma2-check", 4, "-5,5,4", 6, 2),
    ("poly-classes", 5, "-2,-3,-4,8", 24, 6),
    ("sigma2-check", 5, "-5,5,-4,-2,29/9", 24, 6),
)


@dataclass(frozen=True)
class Op:
    argv: tuple
    # (document, documents of the ops before it in the same pass) -> problem or None
    check: Callable[[dict, list], "str | None"]


def build(workload: str, seed: int) -> list[Op]:
    """The fixed op list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tau32":
        return _tau32(rng)
    if workload == "polyfiber":
        return _polyfiber(rng)
    if workload == "spectra":
        return _spectra(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# tau32: the degree-12 level-2 fiber count on marked cubics


def check_tau32(doc, _earlier):
    draws = doc.get("draws")
    if not isinstance(draws, list) or len(draws) != TAU32_DRAWS:
        return f"expected {TAU32_DRAWS} draws, got {draws!r}"
    for where, part in [("report", doc)] + [(f"draw {i}", d) for i, d in enumerate(draws)]:
        for key, want in TAU32_COUNTS.items():
            if part.get(key) != want:
                return f"{where}: {key} is {part.get(key)!r}, expected {want}"
    return None


def _tau32(rng):
    return [
        Op(("deg-tau32", "--draws", str(TAU32_DRAWS), "--seed", str(rng.randrange(2**31))), check_tau32)
        for _ in range(TAU32_CALLS)
    ]


# ---------------------------------------------------------------------------
# polyfiber: polynomial fiber degrees and sigma_2 separation


def _fiber_check(command, d, solutions, classes):
    def check(doc, _earlier):
        got = (doc.get("command"), doc.get("degree"), doc.get("solutions"), doc.get("classes"))
        if got != (command, d, solutions, classes):
            return f"(command, degree, solutions, classes) is {got}, expected {(command, d, solutions, classes)}"
        if command == "sigma2-check" and doc.get("all_distinct") is not True:
            return f"all_distinct is {doc.get('all_distinct')!r}"
        return None

    return check


def _polyfiber(rng):
    ops = []
    for k in range(POLYFIBER_SEEDS):
        s = str(rng.randrange(2**31))
        for command, d, lambdas, solutions, classes in POLYFIBER_CALLS:
            if d == 4 and k % 2:
                continue
            argv = (command, "-d", str(d), "--lambdas", lambdas, "--seed", s)
            ops.append(Op(argv, _fiber_check(command, d, solutions, classes)))
    return ops


# ---------------------------------------------------------------------------
# spectra: fixed-point relation and sigma_n over QQ and GF(p)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    r, m = 0, n - 1
    while m % 2 == 0:
        r, m = r + 1, m // 2
    for a in bases:
        x = pow(a, m, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, bits: int = PRIME_BITS) -> int:
    while True:
        n = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        if is_prime(n):
            return n


def form_resultant(num, den) -> int:
    """Resultant of two integer binary forms of one degree (descending).

    Zero exactly when the forms share a root on P^1, that is, when
    (num : den) is not a morphism of that degree.  Fraction-free Bareiss
    elimination on the Sylvester matrix.
    """
    d = len(num) - 1
    n = 2 * d
    m = [[0] * i + list(num) + [0] * (d - 1 - i) for i in range(d)]
    m += [[0] * i + list(den) + [0] * (d - 1 - i) for i in range(d)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _coeffs(values) -> str:
    return ",".join(str(c) for c in values)


def _map_argv(command, num, den, p):
    argv = (command, "--num", _coeffs(num), "--den", _coeffs(den))
    return argv if p is None else argv + ("--field", f"GF:{p}")


def _draw_map(rng, d, p, polynomial):
    """Integer forms of degree d giving a morphism over QQ (p None) or GF(p)."""
    draw = (lambda: rng.randint(-RELATION_HEIGHT, RELATION_HEIGHT)) if p is None else (lambda: rng.randrange(p))
    while True:
        num = [draw() for _ in range(d + 1)]
        den = [0] * d + [draw()] if polynomial else [draw() for _ in range(d + 1)]
        if not polynomial and not any(den[:-1]):
            continue  # a polynomial by chance; the relation check expects the drawn kind
        res = form_resultant(num, den)
        if (res if p is None else res % p) != 0:
            return num, den


def _relation_check(d, p, polynomial):
    field = "QQ" if p is None else f"GF {p}"

    def check(doc, _earlier):
        m = doc.get("map") or {}
        if (m.get("field"), m.get("degree"), doc.get("polynomial")) != (field, d, polynomial):
            return f"map reads {m.get('field')!r} degree {m.get('degree')!r} polynomial {doc.get('polynomial')!r}"
        if doc.get("theorem_residual") != "0":
            return f"theorem residual is {doc.get('theorem_residual')!r}"
        want = "0" if polynomial else None
        if doc.get("corollary_residual") != want:
            return f"corollary residual is {doc.get('corollary_residual')!r}, expected {want!r}"
        return None

    return check


def _sigma_check(d, n):
    def check(doc, _earlier):
        sigma = doc.get("sigma")
        if not isinstance(sigma, list) or len(sigma) != d**n + 1:
            return f"sigma vector {sigma!r} does not have d^n + 1 = {d**n + 1} entries"
        return None

    return check


def reduce_mod(value: str, p: int) -> str:
    """An exact rational scalar document reduced to its GF(p) document."""
    fr = Fraction(value)
    if fr.denominator % p == 0:
        raise ValueError(f"{value} has a denominator divisible by {p}")
    return str(fr.numerator * pow(fr.denominator, -1, p) % p)


def _sigma_mod_p_check(d, n, p, qq_index):
    own = _sigma_check(d, n)

    def check(doc, earlier):
        problem = own(doc, earlier)
        if problem:
            return problem
        qq = earlier[qq_index]
        if qq is None:
            return "the paired QQ sigma op failed"
        try:
            reduced = [reduce_mod(v, p) for v in qq["sigma"]]
        except ValueError as e:
            return str(e)
        if reduced != doc["sigma"]:
            return f"QQ sigma mod {p} is {reduced}, GF sigma is {doc['sigma']}"
        return None

    return check


def _spectra(rng):
    ops = []
    # fixed mix: degrees 2..5, alternating QQ and GF(p), every fourth group polynomial
    for i in range(RELATION_MAPS):
        d = 2 + i % 4
        p = random_prime(rng) if (i // 4) % 2 else None
        polynomial = (i // 8) % 4 == 0
        num, den = _draw_map(rng, d, p, polynomial)
        ops.append(Op(_map_argv("relation", num, den, p), _relation_check(d, p, polynomial)))
    for (d, n), _ in itertools.product(SIGMA_LEVELS, range(SIGMA_MAPS)):
        p = random_prime(rng)
        while True:
            num = [rng.randint(-SIGMA_HEIGHT, SIGMA_HEIGHT) for _ in range(d + 1)]
            den = [rng.randint(-SIGMA_HEIGHT, SIGMA_HEIGHT) for _ in range(d + 1)]
            res = form_resultant(num, den)
            if res != 0 and res % p != 0:  # a morphism over QQ with good reduction mod p
                break
        level = ("-n", str(n))
        ops.append(Op(_map_argv("sigma", num, den, None) + level, _sigma_check(d, n)))
        ops.append(Op(_map_argv("sigma", num, den, p) + level, _sigma_mod_p_check(d, n, p, len(ops) - 1)))
    return ops
