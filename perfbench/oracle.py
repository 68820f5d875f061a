"""Reference arithmetic for the benchmark's correctness checks.

Nothing here imports delpoly: every value the benchmark compares against
is recomputed from the definitions with plain ``fractions.Fraction`` loops,
so a defect in the package cannot also hide in its own check.
"""

from __future__ import annotations

from fractions import Fraction


def d_defining_sum(n: int, r: Fraction, x: Fraction) -> Fraction:
    """d_n(x) = sum_k binom(x+r+k, k) * binom(x-r, n-k), term by term."""
    lower = [Fraction(1)]  # binom(x - r, j) for j = 0..n
    for j in range(n):
        lower.append(lower[j] * (x - r - j) / (j + 1))
    total = Fraction(0)
    upper = Fraction(1)  # binom(x + r + k, k)
    for k in range(n + 1):
        if k:
            upper = upper * (x + r + k) / k
        total += upper * lower[n - k]
    return total


def d_values(n_max: int, r: Fraction, x: Fraction) -> list[Fraction]:
    """d_0 .. d_n_max from (n+1) d_{n+1} = (1+2x) d_n + (n+2r) d_{n-1}."""
    values = [Fraction(1), 1 + 2 * x]
    for n in range(1, n_max):
        values.append(((1 + 2 * x) * values[n] + (n + 2 * r) * values[n - 1]) / (n + 1))
    return values[: n_max + 1]


def turan_signs(n_max: int, r: Fraction, x: Fraction) -> dict[int, Fraction]:
    """(-1)^n (d_n^2 - d_{n+1} d_{n-1}) for n = 1..n_max, keyed by n."""
    d = d_values(n_max + 1, r, x)
    out = {}
    for n in range(1, n_max + 1):
        value = d[n] * d[n] - d[n + 1] * d[n - 1]
        out[n] = -value if n % 2 else value
    return out


def binom(z: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient z(z-1)...(z-k+1) / k!."""
    out = Fraction(1)
    for i in range(k):
        out = out * (z - i) / (i + 1)
    return out


def positivity_margins(n_max: int, r: Fraction, x: Fraction) -> dict[int, Fraction]:
    """The quantity each positivity claim says is positive, keyed by n.

    For x < -1/2 that is (-1)^n d_n (n >= 0); for x > -1/2 it is
    d_n - (2x+1)^n / n! (n >= 2).
    """
    d = d_values(n_max, r, x)
    if x < Fraction(-1, 2):
        return {n: (-d[n] if n % 2 else d[n]) for n in range(n_max + 1)}
    out = {}
    factorial = 1
    for n in range(1, n_max + 1):
        factorial *= n
        if n >= 2:
            out[n] = d[n] - (1 + 2 * x) ** n / factorial
    return out


def lower_bound_margins(n_max: int, r: Fraction, x: Fraction) -> dict[int, Fraction]:
    """d_n d_{n-1} / (1+2x) - (binom(2r+n-1, n-1) + d_{n-1}^2) / n, for n >= 2."""
    d = d_values(n_max, r, x)
    return {
        n: d[n] * d[n - 1] / (1 + 2 * x) - (binom(2 * r + n - 1, n - 1) + d[n - 1] ** 2) / n
        for n in range(2, n_max + 1)
    }


def parse_poly_text(text: str) -> list[tuple[int, int, Fraction]]:
    """Read the canonical text form ("2*x^2 + 2*x + r + 1") into
    (deg_x, deg_r, coefficient) triples."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty polynomial text")
    signed = [(1, tokens[0])] if not tokens[0].startswith("-") else [(-1, tokens[0][1:])]
    if len(tokens) % 2 == 0:
        raise ValueError(f"malformed polynomial text near {tokens[-1]!r}")
    for op, body in zip(tokens[1::2], tokens[2::2]):
        if op not in "+-" or len(op) != 1:
            raise ValueError(f"expected + or - between terms, got {op!r}")
        signed.append((1 if op == "+" else -1, body))
    terms = []
    for sign, body in signed:
        coeff = Fraction(1)
        deg = {"x": 0, "r": 0}
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            if name in deg:
                deg[name] = int(power) if power else 1
            else:
                coeff = Fraction(factor)
        terms.append((deg["x"], deg["r"], sign * coeff))
    return terms


def eval_terms(terms: list[tuple[int, int, Fraction]], r: Fraction, x: Fraction) -> Fraction:
    """Value of a parsed polynomial at (r, x)."""
    xpow: dict[int, Fraction] = {}
    rpow: dict[int, Fraction] = {}
    total = Fraction(0)
    for dx, dr, c in terms:
        if dx not in xpow:
            xpow[dx] = x**dx
        if dr not in rpow:
            rpow[dr] = r**dr
        total += c * xpow[dx] * rpow[dr]
    return total
