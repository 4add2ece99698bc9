"""Seeded inputs of the three workloads.

Inputs are first drawn as plain data (integer coefficient lists and query
text), so the corpus digest depends only on the generator and the seed, not
on the program.  ``build_*`` turns that data into program objects.

Every input carries what the benchmark expects of the output: a planted
solution, a paper fixture's known verdict, or (for ``cli-mixed``) the verdict
that holds by construction.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

# Each workload's inputs come from a pool drawn once from this fixed seed; the
# run seed orders the pool and draws an integer scale for each input's planted
# solution or right-hand side.  Redrawing the whole corpus per seed moves a
# run's median op time by 10-25% from seed to seed (see README.md); rational
# scales moved op costs by up to 10%.
POOL_SEED = 8011493
_SCALES = (1, -1, 2, -2, 3, -3)

CASES = (("shift", None), ("q", "2"), ("q", "1/4"))
_LEADS = (1, 2, 3, -1, -2, 5)
_SHIFT_ROOTS = (-3, -2, -1, 0, 1, 2, 3)
_Q_ROOTS = (1, 2, 3, 4, -1, -2, 8)


# ---------------------------------------------------------------------------
# plain-data rational functions: {"num": [c0, c1, ...], "den": [[factor], ...]}
# ---------------------------------------------------------------------------


def rand_coeffs(rng: random.Random, max_deg: int, lo: int = -6, hi: int = 6) -> list[int]:
    deg = rng.randint(0, max_deg)
    return [rng.randint(lo, hi) for _ in range(deg)] + [rng.choice(_LEADS)]


def rand_den(rng: random.Random, case: str, max_factors: int) -> list[list[int]]:
    """Small linear and quadratic factors, some sharing a shift or q orbit."""
    pool = _SHIFT_ROOTS if case == "shift" else _Q_ROOTS
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.7:
            root = rng.choice(pool)
            factors.extend([[-root, 1]] * rng.randint(1, 2))
        else:
            factors.append([rng.randint(1, 5), rng.randint(-3, 3), 1])
    return factors


def rand_rf(rng: random.Random, case: str, with_pole: bool, max_factors: int = 3) -> dict:
    num = rand_coeffs(rng, 3)
    if with_pole:
        den = rand_den(rng, case, max_factors)
        if case == "q":
            # a pole away from 0, so the q orbit machinery is exercised
            den = [f for f in den if f != [0, 1]] or [[-1, 1]]
        return {"num": num, "den": den}
    if rng.random() < 0.4:
        return {"num": num, "den": []}
    return {"num": num, "den": rand_den(rng, case, max_factors)}


def poly_eval(coeffs: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rf_eval(rf: dict, x: Fraction) -> Fraction | None:
    """Value at x, or None at a pole."""
    den = Fraction(1)
    for f in rf["den"]:
        den *= poly_eval(f, x)
    if den == 0:
        return None
    return poly_eval(rf["num"], x) / den


def poly_text(coeffs: list) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        terms.append(str(c) if i == 0 else f"{c}*x" if i == 1 else f"{c}*x^{i}")
    return "(" + (" + ".join(terms) if terms else "0") + ")"


def rf_text(rf: dict) -> str:
    if not rf["den"]:
        return poly_text(rf["num"])
    return "(" + poly_text(rf["num"]) + "/(" + "*".join(poly_text(f) for f in rf["den"]) + "))"


def sigma_text(text: str, case: str, q: str | None, power: int = 1) -> str:
    """sigma^power applied to an expression in x, by substitution."""
    for _ in range(power):
        text = text.replace("x", "(x+1)" if case == "shift" else f"({q}*x)")
    return text


def rf_degree(rf: dict) -> int:
    return len(rf["num"]) - 1 + sum(len(f) - 1 for f in rf["den"])


def seeded_order(seed: int, size: int) -> tuple[list[int], list[int]]:
    """The run seed's permutation of a pool and a scale per slot."""
    rng = random.Random(seed)
    order = list(range(size))
    rng.shuffle(order)
    return order, [rng.choice(_SCALES) for _ in range(size)]


def scaled_text(text: str, scale: int) -> str:
    return f"({scale}*{text})"


def digest(specs) -> str:
    blob = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# scalar-solve
# ---------------------------------------------------------------------------


def _simple_factor(rng: random.Random, case: str) -> list[int]:
    """x - r (r != 0 in the q case), or a small quadratic."""
    if rng.random() < 0.7:
        return [-rng.choice(_SHIFT_ROOTS if case == "shift" else _Q_ROOTS), 1]
    return [rng.randint(1, 5), rng.randint(-3, 3), 1]


def scalar_pool(size: int) -> list[dict]:
    """Alternating planted and random scalar equations, cycling through the
    shift, q=2 and q=1/4 structures.

    Planted: order 1-3, coefficients of degree <= 1, a planted solution with
    numerator degree <= 2 over one simple factor; the rhs is its image.
    Random: the acceptance-7 generator (order 1-2, coefficients of degree
    <= 3, rhs absent / polynomial / rational)."""
    rng = random.Random(POOL_SEED + 1)
    pool = []
    for k in range(size):
        case, q = CASES[(k // 2) % 3]
        if k % 2 == 0:
            order = rng.randint(1, 3)
            coeffs = [
                rand_coeffs(rng, 1) if i in (0, order) or rng.random() < 0.7 else [0]
                for i in range(order + 1)
            ]
            pool.append({
                "kind": "planted", "case": case, "q": q, "coeffs": coeffs,
                "planted": {"num": rand_coeffs(rng, 2), "den": [_simple_factor(rng, case)]},
            })
        else:
            order = rng.randint(1, 2)
            coeffs = [
                rand_coeffs(rng, 3) if i in (0, order) or rng.random() < 0.8 else [0]
                for i in range(order + 1)
            ]
            style = rng.random()
            if style < 0.3:
                rhs = None
            elif style < 0.65:
                rhs = {"num": rand_coeffs(rng, 2), "den": []}
            else:
                rhs = {"num": rand_coeffs(rng, 2), "den": rand_den(rng, case, 2)}
            pool.append({"kind": "random", "case": case, "q": q, "coeffs": coeffs, "rhs": rhs})
    return pool


def scalar_specs(seed: int, count: int) -> list[dict]:
    """The pool in seeded order; the scale multiplies the planted solution
    (planted) or the rhs (random)."""
    pool = scalar_pool(count)
    order, scales = seeded_order(seed, count)
    return [dict(pool[idx], pool_index=idx, scale=scale) for idx, scale in zip(order, scales)]


def scalar_query(spec: dict) -> dict:
    """A planted equation as a CLI query line; the rhs is written as the
    operator applied to the planted solution."""
    case, q = spec["case"], spec["q"]
    g = scaled_text(rf_text(spec["planted"]), spec["scale"])
    rhs = " + ".join(
        f"{poly_text(c)}*{sigma_text(g, case, q, i)}" for i, c in enumerate(spec["coeffs"]) if any(c)
    )
    line = {"subcommand": "solve-scalar", "case": case}
    if q is not None:
        line["q"] = q
    line.update(coeffs=";".join(poly_text(c) for c in spec["coeffs"]), rhs=rhs)
    return line


def scalar_composition(specs) -> dict:
    return {
        "structure": dict(Counter(_structure(s) for s in specs)),
        "kind": dict(Counter(s["kind"] for s in specs)),
        "expected": dict(Counter("SOLVED" if s["kind"] == "planted" else "any" for s in specs)),
        "input_degree": sum(
            sum(len(c) - 1 for c in s["coeffs"])
            + rf_degree(s.get("planted") or s.get("rhs") or {"num": [0], "den": []})
            for s in specs
        ),
    }


def _structure(spec) -> str:
    return "shift" if spec["case"] == "shift" else f"q={spec['q']}"


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

FIXTURES = ("shift-scalar", "shift-integrability", "q14-scalar", "q14-integrability")


def _systems_entry(rng: random.Random, case: str) -> dict:
    """Numerator degree <= 2 and at most one linear denominator factor."""
    num = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))] + [rng.choice((1, 2, 3, -1, -2))]
    if rng.random() < 0.5:
        return {"num": num, "den": []}
    pool = (-3, -2, -1, 1, 2, 3) if case == "shift" else (1, 2, 3, 4, -1, -2)
    return {"num": num, "den": [[-rng.choice(pool), 1]]}


def _invertible(m) -> bool:
    # det(M) is a nonzero rational function iff it is nonzero at some point
    for x in (Fraction(7, 3), Fraction(-11, 5), Fraction(13, 2)):
        vals = [[rf_eval(e, x) for e in row] for row in m]
        if any(v is None for row in vals for v in row):
            continue
        if vals[0][0] * vals[1][1] - vals[0][1] * vals[1][0] != 0:
            return True
    return False


def systems_pool(size: int) -> list[dict]:
    """Planted 2x2 systems sigma(v) = M v + c, alternating shift and q=2."""
    rng = random.Random(POOL_SEED + 2)
    pool = []
    while len(pool) < size:
        case, q = ("shift", None) if len(pool) % 2 == 0 else ("q", "2")
        m = [[_systems_entry(rng, case) for _ in range(2)] for _ in range(2)]
        v = [_systems_entry(rng, case) for _ in range(2)]
        if _invertible(m):
            pool.append({"case": case, "q": q, "m": m, "v": v})
    return pool


def systems_specs(seed: int, passes: int, per_pass: int) -> list[dict]:
    """Each pass: ``per_pass`` planted systems of the pool in seeded order,
    each planted solution times its seeded scale, then the four paper
    fixtures."""
    size = passes * per_pass
    pool = systems_pool(size)
    order, scales = seeded_order(seed, size)
    specs = []
    for p in range(passes):
        for slot in range(p * per_pass, (p + 1) * per_pass):
            specs.append(dict(pool[order[slot]], kind="planted", pool_index=order[slot], scale=scales[slot]))
        specs.extend({"kind": "fixture", "fixture": name} for name in FIXTURES)
    return specs


def systems_composition(specs) -> dict:
    planted = [s for s in specs if s["kind"] == "planted"]
    return {
        "structure": dict(Counter(_structure(s) if s["kind"] == "planted" else s["fixture"] for s in specs)),
        "kind": dict(Counter(s["kind"] for s in specs)),
        "expected": dict(Counter(
            "SOLVED" if s["kind"] == "planted"
            else "NO_SOLUTION" if s["fixture"].endswith("scalar") else "NOT_CONSTANT_CONJUGATE"
            for s in specs
        )),
        "input_degree": sum(rf_degree(e) for s in planted for row in s["m"] for e in row)
        + sum(rf_degree(e) for s in planted for e in s["v"]),
    }


# ---------------------------------------------------------------------------
# cli-mixed: one NDJSON query per line, each with its verdict by construction
# ---------------------------------------------------------------------------

# (subcommand, weight); telescope and integrability are the slow tail
_CLI_MIX = (
    ("disp", 10), ("standard-form", 10), ("mult-form", 10), ("solve-first-order", 10),
    ("solve-scalar", 10), ("solve-system", 4), ("telescope", 5), ("da-hypergeom", 10),
    ("da-inhomog", 10), ("integrability", 6), ("classify-group", 10),
)


def _small_rf(rng, case, max_factors=2) -> dict:
    return rand_rf(rng, case, with_pole=rng.random() < 0.6, max_factors=max_factors)


def _pole_root(rng, case) -> int:
    # never 0 in the q case, where 0 is a fixed point of sigma
    return rng.choice(_SHIFT_ROOTS if case == "shift" else _Q_ROOTS)


def _const_not_q_power(rng, q) -> int:
    # constants that are no integer power of q = 2 or 1/4 (and not 1)
    return rng.choice((3, 5, -3, 7) if q else (2, 3, -1, 5))


def cli_query(rng: random.Random, sub: str, case: str, q: str | None, scale: int) -> tuple[dict, str]:
    """One query line and its expected verdict.  ``rng`` draws the query's
    shape; ``scale`` multiplies its rational-function inputs."""
    line = {"subcommand": sub, "case": case}
    if q is not None:
        line["q"] = q

    def sig(text, power=1):
        return sigma_text(text, case, q, power)

    def small_rf(max_factors=2):
        return scaled_text(rf_text(_small_rf(rng, case, max_factors)), scale)

    k = scaled_text(str(rng.choice((1, 2, 3, -1, -2))), scale)
    # k/(x - r) has one simple pole, which no sigma(g) - g can have
    simple_pole = f"{k}/{poly_text([-_pole_root(rng, case), 1])}"
    if sub == "disp":
        roots = [_pole_root(rng, case) for _ in range(rng.randint(2, 4))]
        line["poly"] = "*".join(poly_text([-x, 1]) for x in roots)
        if rng.random() < 0.5:
            line["f"] = small_rf()
        return line, "DISPERSION"
    if sub == "standard-form":
        line["f"] = small_rf()
        line["a"] = str(rng.choice((1, 2, -1, 3)))
        return line, "STANDARD_DECOMP"
    if sub == "mult-form":
        line["f"] = small_rf()
        return line, "MULT_STANDARD_FORM"
    g = small_rf()
    if sub == "solve-first-order":
        if rng.random() < 0.7:
            a = poly_text(rand_coeffs(rng, 1))
            line.update(a=a, rhs=f"{sig(g)} - {a}*{g}")
            return line, "SOLVED"
        line.update(a="1", rhs=simple_pole)
        return line, "NO_SOLUTION"
    if sub == "solve-scalar":
        if rng.random() < 0.7:
            coeffs = [poly_text(rand_coeffs(rng, 1)) for _ in range(rng.randint(2, 3))]
            rhs = " + ".join(f"{c}*{sig(g, i)}" for i, c in enumerate(coeffs))
            line.update(coeffs=";".join(coeffs), rhs=rhs)
            return line, "SOLVED"
        line.update(coeffs="-1;1", rhs=simple_pole)
        return line, "NO_SOLUTION"
    if sub == "solve-system":
        # triangular with constant diagonal, so invertible by construction
        d1, d2 = rng.choice((1, 2, -1, 3)), rng.choice((1, 2, -2, 3))
        b = poly_text(rand_coeffs(rng, 1))
        v1, v2 = small_rf(1), scaled_text(poly_text(rand_coeffs(rng, 1)), scale)
        line["matrix"] = f"[[{d1},{b}],[0,{d2}]]"
        line["rhs_vector"] = f"[{sig(v1)} - {d1}*{v1} - {b}*{v2},{sig(v2)} - {d2}*{v2}]"
        return line, "SOLVED"
    if sub == "telescope":
        if rng.random() < 0.6:
            # a_2 - a_1 = sigma(g) - g, so L = (-1, 1) telescopes
            line["funcs"] = f"{g};{g} + {sig(g)} - {g}"
            line["order_bound"] = rng.randint(1, 2)
            return line, "TELESCOPER_FOUND"
        # derivatives keep the single pole orbit, so no operator telescopes it
        line["funcs"] = simple_pole
        line["order_bound"] = rng.randint(1, 2)
        return line, "NO_TELESCOPER"
    if sub == "da-hypergeom":
        if rng.random() < 0.6:
            c = rng.choice((1, 2, 3, -1))
            xn = "" if case == "shift" else f"x^{rng.randint(-1, 2)}*"
            line["b"] = f"{c}*{xn}{sig(g)}/{g}"
            return line, "DIFFERENTIALLY_ALGEBRAIC"
        # one root, outside 0 in the q case: not c*f(sigma x)/f(x) (times x^n)
        line["b"] = f"{k}*{poly_text([-_pole_root(rng, case), 1])}"
        return line, "DIFFERENTIALLY_TRANSCENDENTAL"
    if sub == "da-inhomog":
        roll = rng.random()
        if roll < 0.45:
            c = _const_not_q_power(rng, q)
            line.update(a=str(c), b=f"{sig(g)} - {c}*{g}")
            return line, "DIFFERENTIALLY_ALGEBRAIC"
        if roll < 0.75 and case == "shift":
            a = poly_text([-_pole_root(rng, case), 1])
            line.update(a=a, b=f"{sig(g)} - {a}*{g}")
            return line, "RATIONAL_SOLUTION_EXISTS"
        line.update(a="1", b=simple_pole)
        return line, "DIFFERENTIALLY_TRANSCENDENTAL"
    if sub == "integrability":
        if case == "shift" and rng.random() < 0.6:
            # the paper's SL2 example, translated: the verdict is translation invariant
            line["matrix"] = f"[[0,-1],[1,x + {rng.randint(-3, 3)}]]"
            return line, "NOT_CONSTANT_CONJUGATE"
        while True:
            e = [rng.randint(-3, 3) for _ in range(4)]
            if e[0] * e[3] - e[1] * e[2] != 0:
                break
        line["matrix"] = f"[[{e[0]},{e[1]}],[{e[2]},{e[3]}]]"
        return line, "CONSTANT_CONJUGATE"
    if sub == "classify-group":
        roll = rng.random()
        if roll < 0.4:
            line["f"] = f"{sig(g)} - {g}"
            return line, "TRIVIAL"
        if roll < 0.7 and case == "q":
            line["f"] = f"{sig(g)} - {g} + {k}"
            return line, "CONSTANTS_GA"
        line["f"] = simple_pole
        return line, "FULL_GA"
    raise ValueError(sub)


def cli_specs(seed: int, count: int) -> list[dict]:
    """The pool's queries in seeded order, each drawn with its seeded scale.

    The pool fixes each query's subcommand (drawn by weight; the first eleven
    cover every subcommand), case (every other one is shift) and shape."""
    rng = random.Random(POOL_SEED + 3)
    subs = [s for s, _ in _CLI_MIX]
    weights = [w for _, w in _CLI_MIX]
    pool = []
    for n in range(count):
        sub = subs[n] if n < len(subs) else rng.choices(subs, weights)[0]
        case, q = CASES[rng.randrange(3)] if n % 2 else CASES[0]
        pool.append((sub, case, q, rng.getrandbits(32)))
    order, scales = seeded_order(seed, count)
    specs = []
    for idx, scale in zip(order, scales):
        sub, case, q, shape = pool[idx]
        line, expected = cli_query(random.Random(shape), sub, case, q, scale)
        specs.append({"line": line, "expected": expected, "pool_index": idx})
    return specs


def cli_composition(specs) -> dict:
    return {
        "structure": dict(Counter(
            s["line"]["case"] if s["line"]["case"] == "shift" else f"q={s['line']['q']}" for s in specs
        )),
        "subcommand": dict(Counter(s["line"]["subcommand"] for s in specs)),
        "expected": dict(Counter(s["expected"] for s in specs)),
        "input_chars": sum(len(json.dumps(s["line"])) for s in specs),
    }
