"""Seeded request lists for the three workloads.

Every workload is a fixed list of CLI requests over operator files that
this module generates from the seed.  The program receives only the
files; the expectations stored with each request are used by the
re-check in `check.py`.

`quick=True` shrinks orders and counts so that the benchmark's own test
runs in seconds; it never changes which kinds of request are made.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from exact import omul, pmul, psubst, series_quotient

# Criterion-7 operator of the test suite: radix 3, order 11, exponents up
# to 7.7e6, Puiseux ramification 65, and two Puiseux solutions (of
# valuations -221/5 and 203/13, so at every order used here).
STRETCH = [
    [(568, 1)],
    [(1218, -1), (1705, -1)],
    [(3655, 1)],
    [(162, -1), (10962, 1)],
    [(0, 1), (487, 1), (4104, -1), (4536, -1), (32887, -1)],
    [(1, -1), (11826, 1), (12313, 1), (13122, 1), (13609, 1)],
    [(0, -1), (35479, -1), (39367, -1)],
    [(1, 1), (95634, 1), (106434, -1), (118098, -1)],
    [(286416, -1), (286903, -1), (319303, 1), (354295, 1)],
    [(859249, 1)],
    [(2577744, 1)],
    [(7733233, -1)],
]

# Coefficients given to the transcendence tests.
PREFIX = 24


@dataclass
class Request:
    label: str
    argv: list  # operator file names are relative to the corpus directory
    check: tuple  # (kind, ...) as understood by check.verify
    scaling_order: int = 0  # nonzero for the requests of the scaling row


def series_request(label, name, command, order, min_dim, ramification=0, certify=False, scaling=False):
    """`series` or `puiseux` to `order`.  The re-check requires at least
    `min_dim` solutions and, for `puiseux`, the ramification when it is
    known from the construction (0 when it is not)."""
    argv = [command, name + ".json", "--order", str(order)] + ["--certify"] * certify
    expected = None if command == "series" else ramification
    return Request(label, argv, ("series", name, order, min_dim, expected), order if scaling else 0)


@dataclass
class Corpus:
    operators: dict = field(default_factory=dict)  # name -> (radix, [poly dicts])
    requests: list = field(default_factory=list)

    def add(self, name: str, radix: int, op: list) -> str:
        self.operators[name] = (radix, op)
        return name + ".json"

    def write(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for name, (radix, op) in self.operators.items():
            doc = {
                "radix": radix,
                "coefficients": [
                    {"order": k, "terms": [[e, str(c)] for e, c in sorted(lk.items())]}
                    for k, lk in enumerate(op)
                    if lk
                ],
            }
            with open(os.path.join(directory, name + ".json"), "w") as fh:
                json.dump(doc, fh)


# -- random polynomials and operators (the generators of tests/conftest.py) ---


def random_poly(rng, max_degree, min_terms=1, zero_ok=False) -> dict:
    if zero_ok and rng.random() < 0.15:
        return {}
    nterms = rng.randint(min_terms, max(min_terms, min(max_degree + 1, 4)))
    out = {}
    for e in rng.sample(range(max_degree + 1), min(nterms, max_degree + 1)):
        c = 0
        while c == 0:
            c = rng.randint(-3, 3)
        out[e] = c
    return out


def random_operator(rng, radix, order, max_degree, nonzero_l0=True) -> list:
    coeffs = [random_poly(rng, max_degree, zero_ok=True) for _ in range(order + 1)]
    while not coeffs[order]:
        coeffs[order] = random_poly(rng, max_degree)
    if nonzero_l0:
        while not coeffs[0]:
            coeffs[0] = random_poly(rng, max_degree)
    return coeffs


def first_order_product(rng, radix, order, exponents, terms, coefficients) -> list:
    """Product of `order` factors M - u, with u = 1 + (`terms` terms c x^e,
    e drawn from `exponents`, c from `coefficients`).  The rightmost factor
    guarantees a power-series solution, and the unit trailing coefficient
    makes prolongation divide by 1.  Every coefficient of the product has
    a nonzero constant term, so the Newton polygon is one horizontal edge
    and the Puiseux ramification is 1."""
    result = None
    for _ in range(order):
        u = {0: 1}
        for e in rng.sample(exponents, terms):
            u[e] = rng.choice(coefficients)
        factor = [{e: -c for e, c in u.items()}, {0: 1}]
        result = factor if result is None else omul(radix, result, factor)
    return result


# -- workloads ---------------------------------------------------------------


def poly_solvable(rng, radix, order) -> list:
    """left * (p M - p(x^radix)), which has the polynomial solution p
    (the construction of the test suite's `random_poly_solvable`)."""
    p = random_poly(rng, 2)
    annihilator = [{e: -c for e, c in psubst(p, radix).items()}, p]
    return omul(radix, random_operator(rng, radix, max(0, order - 1), 2), annihilator)


def _algebra_round(corpus: Corpus, rng: random.Random, i: int) -> None:
    """normalize, gcrd, rational and both transcendence oracles on
    operators whose answers are known by construction.  Radix, orders and
    family size cycle with the round index; the seed draws coefficients."""
    radix = 2 + i % 2

    op = random_operator(rng, radix, 1 + i // 2 % 4, 27, nonzero_l0=False)
    if op[0]:
        op = [{}] + op
    name = f"zero-l0-{i}"
    corpus.requests.append(Request(name, ["normalize", corpus.add(name, radix, op)], ("normalize", name)))

    common = random_operator(rng, radix, 1, 2)
    corpus.operators[f"common{i}"] = (radix, common)
    members = [f"family{i}-{j}" for j in range(2 + i // 4 % 2)]
    for j, member in enumerate(members):
        left = random_operator(rng, radix, (i + j) % 3, 2, nonzero_l0=False)
        corpus.add(member, radix, omul(radix, left, common))
    corpus.requests.append(
        Request(
            f"gcrd{i}",
            ["gcrd", *(m + ".json" for m in members), "--certify"],
            ("gcrd", members, f"common{i}"),
        )
    )

    # left * (p q(x^b) M - p(x^b) q) has the rational solution p/q.  Its
    # Bell-Coons test is the slowest request and makes the latency tail, so
    # p, q and left are the same for every seed.
    fixed = random.Random(i)
    p = random_poly(fixed, 2)
    q = random_poly(fixed, 2)
    p[2] = p.get(2) or 1
    q[0] = q.get(0) or 1
    q[2] = q.get(2) or 1
    annihilator = [
        {e: -c for e, c in pmul(psubst(p, radix), q).items()},
        pmul(p, psubst(q, radix)),
    ]
    left = random_operator(fixed, radix, i // 4 % 2, 2)
    name = f"rational{i}"
    corpus.add(name, radix, omul(radix, left, annihilator))
    corpus.requests.append(Request(name, ["rational", name + ".json", "--certify"], ("rational", name)))

    # Transcendence on a prefix of p/q, and on a prefix of the infinite
    # product y = l(x) y(x^b) with l(0) = 1.
    targets = [(name, series_quotient(p, q, PREFIX))]
    l1 = random_poly(rng, 3)
    l1[0] = 1
    name = f"infinite-product{i}"
    corpus.add(name, radix, [{0: -1}, l1])
    targets.append((name, _product_prefix(l1, radix, PREFIX)))
    for target, values in targets:
        initial = ",".join(str(v) for v in values)
        for oracle in ("rational-basis", "bell-coons"):
            corpus.requests.append(
                Request(
                    f"transcendence-{target}-{oracle}",
                    ["transcendence", target + ".json", "--initial=" + initial, "--oracle", oracle],
                    ("transcendence", target, values),
                )
            )


def _product_prefix(l1: dict, radix: int, length: int) -> list:
    """Coefficients of the solution of y(x) = l1(x) y(x^radix), y(0) = 1."""
    y = [1] + [0] * (length - 1)
    for n in range(1, length):
        # [x^n] l1(x) y(x^b) sums l1[e] * y[m] over e + b*m = n, where m < n.
        y[n] = sum(c * y[(n - e) // radix] for e, c in l1.items() if e <= n and (n - e) % radix == 0)
    return y


def sparse(seed: int, quick: bool = False) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()
    corpus.add("stretch", 3, [dict(t) for t in STRETCH])
    # The scaling row: the same request at three orders; the traced run
    # fits the slope of log latency against log order over them.
    for n in (20, 40, 80) if quick else (100, 200, 400):
        corpus.requests.append(
            series_request(f"stretch-puiseux-{n}", "stretch", "puiseux", n, 2, 65, certify=True, scaling=True)
        )
    order = 500 if quick else 10000
    for i in range(36):
        # Every (factor count, extra terms, radix) shape appears three times;
        # the seed draws exponents and signs.  Exponents of at least 2000
        # keep the solutions sparse and their coefficients small.
        radix = 2 + i // 6 % 2
        op = first_order_product(rng, radix, 1 + i % 2, range(2000, 5001), 1 + i // 2 % 3, (-1, 1))
        name = f"product{i}"
        corpus.add(name, radix, op)
        corpus.requests.append(series_request(f"{name}-series", name, "series", order, 1, certify=True))
        corpus.requests.append(series_request(f"{name}-puiseux", name, "puiseux", order, 1, 1))
    return corpus


def dense(seed: int, quick: bool = False) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()
    for i in range(72 if quick else 144):
        # The shape (radix, order, generator) cycles with period 12, the
        # command with period 36 and --certify with period 72, so every seed
        # draws the same mix and each shape meets each command.
        radix = 2 + i % 2
        order = 1 + i // 2 % 3
        solvable = i // 6 % 2 == 0
        command = ("series", "puiseux", "poly")[i // 12 % 3]
        certify = bool(i // 36 % 2)
        name = f"dense{i}"
        if command == "poly":
            op = poly_solvable(rng, radix, order) if solvable else random_operator(rng, radix, order, 8)
            corpus.add(name, radix, op)
            argv = ["poly", name + ".json"] + ["--certify"] * certify
            corpus.requests.append(Request(f"{name}-poly", argv, ("poly", name, int(solvable))))
            continue
        # The products of two and three factors take most of the time and
        # make the tail; they and their orders are the same for every seed,
        # so that seeds differ only in the cheaper requests.  Exponents
        # {1, 3, 4} avoid u = 1 +- x^c + x^2c, whose solution is a polynomial.
        source = random.Random(i) if solvable and order >= 2 else rng
        if solvable:
            op = first_order_product(source, radix, order, (1, 3, 4), 2, (-1, 1))
        else:
            op = random_operator(rng, radix, order, 8)
        corpus.add(name, radix, op)
        # The order depends on the index alone, so that seeds differ in
        # coefficients, not in size.
        low, high = (60, 100) if quick else (300, 500)
        n = low + i * 37 % (high - low + 1)
        ramification = 1 if solvable else 0
        corpus.requests.append(
            series_request(f"{name}-{command}", name, command, n, int(solvable), ramification, certify)
        )
    return corpus


def algebra(seed: int, quick: bool = False) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()
    for i in range(2 if quick else 16):
        _algebra_round(corpus, rng, i)
    return corpus


WORKLOADS = {"sparse": sparse, "dense": dense, "algebra": algebra}
