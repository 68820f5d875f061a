"""Exact sparse polynomial algebra in the two formal variables x and r.

``BiPoly`` is the symbolic substrate of the package: the polynomial family
under study lives here, as do the linear forms (x - r, x + r + k, ...) fed
to the polynomial binomial coefficient.

Internally a BiPoly keeps integer coefficients over one shared positive
denominator, so ring operations run on plain big ints and reduce once per
operation instead of once per coefficient.  The public surface speaks
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .exactnum import RationalLike, as_exact, as_rational, check_natural, int_to_decimal

Key = tuple[int, int]  # (degree in x, degree in r)


def _reduce(coeffs: dict[Key, int], den: int, modulus: int | None = None) -> tuple[dict[Key, int], int, int]:
    """(coeffs, den, g): both divided by their gcd g; ``coeffs`` must have no
    zeros.  g is taken against ``modulus`` (default ``den``), a divisor of
    den known to hold every factor den shares with the coefficients."""
    g = gcd(den if modulus is None else modulus, *coeffs.values())
    if g > 1:
        coeffs = {k: c // g for k, c in coeffs.items()}
        den //= g
    return coeffs, den, g


class BiPoly:
    """Sparse exact polynomial in x and r with rational coefficients.

    Values are immutable after construction; all operations return new
    polynomials, so instances are safe to share across threads.

    A polynomial is held in one or both of two forms.  The decoded form is
    ``_coeffs``, integer numerators keyed by monomial with no zeros, over
    ``_den``, with gcd 1.  The packed form ``_packed``, None until a
    ``sum_products`` call packs or builds the polynomial, is the tuple
    (width, rows, den, bounds) that those calls multiply: ``rows`` maps each
    degree in x to that x-row of numerators over ``den``, one int of
    ``width``-byte slots (see ``_Slots``), and ``bounds`` is (b_inf, b_one),
    upper bounds on the max and on the sum of the numerators' absolute
    values while the polynomial is undecoded, and None once it is decoded.

    A result of ``sum_products`` starts in the packed form alone, over the
    call's unreduced common denominator, with the bounds the call proved.
    Its ``_coeffs`` and ``_den`` slots stay unset until one of them is read,
    and the read decodes them (see ``_Lazy``).  A recurrence feeds each
    result to the next ``sum_products`` call as packed rows, so the results
    nobody reads are never decoded.  Every tuple in ``_packed`` is
    self-consistent and is replaced whole by a single assignment.

    The decode is a benign race: two threads that read an undecoded
    polynomial at once may both decode it, but each computes the same
    canonical dict and denominator from a consistent tuple and stores the
    same values, so either order of the writes leaves the same polynomial.
    """

    __slots__ = ("_coeffs", "_den", "_packed")

    def __init__(self, terms: dict[Key, RationalLike] | None = None):
        """The polynomial with {(deg_x, deg_r): coefficient} ``terms``; each
        degree must be a natural number and each coefficient exact."""
        coeffs: dict[Key, int] = {}
        den = 1
        if terms:
            for dx, dr in terms:
                check_natural(dx, "degree in x")
                check_natural(dr, "degree in r")
            fracs = {k: f for k, c in terms.items() if (f := as_rational(c))}
            den = lcm(*(f.denominator for f in fracs.values()))
            coeffs = {k: f.numerator * (den // f.denominator) for k, f in fracs.items()}
        self._coeffs, self._den, _ = _reduce(coeffs, den)
        self._packed = None

    @classmethod
    def _raw(cls, coeffs: dict[Key, int], den: int) -> "BiPoly":
        """Integer coefficients over ``den``, which must be positive; zeros are dropped."""
        return cls._exact(*_reduce({k: c for k, c in coeffs.items() if c}, den)[:2])

    @classmethod
    def _exact(cls, coeffs: dict[Key, int], den: int) -> "BiPoly":
        """``coeffs`` over ``den`` as they are: no zero terms, gcd 1, den > 0."""
        p = object.__new__(cls)
        p._coeffs, p._den, p._packed = coeffs, den, None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        """The zero polynomial."""
        return cls._raw({}, 1)

    @classmethod
    def one(cls) -> "BiPoly":
        """The constant 1."""
        return cls._raw({(0, 0): 1}, 1)

    @classmethod
    def const(cls, value: RationalLike) -> "BiPoly":
        """The constant ``value``, an exact rational."""
        f = as_rational(value)
        return cls._raw({(0, 0): f.numerator}, f.denominator)

    @classmethod
    def x(cls) -> "BiPoly":
        """The variable x."""
        return cls._raw({(1, 0): 1}, 1)

    @classmethod
    def r(cls) -> "BiPoly":
        """The parameter r."""
        return cls._raw({(0, 1): 1}, 1)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self._coeffs

    @property
    def deg_x(self) -> int:
        """The degree in x (0 for a constant)."""
        return max((k[0] for k in self._coeffs), default=0)

    @property
    def deg_r(self) -> int:
        """The degree in r (0 for a constant)."""
        return max((k[1] for k in self._coeffs), default=0)

    @property
    def total_degree(self) -> int:
        """The largest deg_x + deg_r of a term (0 for a constant)."""
        return max((k[0] + k[1] for k in self._coeffs), default=0)

    @property
    def is_affine(self) -> bool:
        """True when the total degree is at most 1."""
        return self.total_degree <= 1

    def coefficient(self, deg_x: int, deg_r: int) -> Fraction:
        """The coefficient of x^deg_x r^deg_r, 0 if there is no such term."""
        return Fraction(self._coeffs.get((deg_x, deg_r), 0), self._den)

    def terms(self):
        """Yield ((deg_x, deg_r), coefficient) in canonical order."""
        for key in sorted(self._coeffs, reverse=True):  # keys are unique
            yield key, Fraction(self._coeffs[key], self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "BiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._exact({k: -c for k, c in self._coeffs.items()}, self._den)

    def __sub__(self, other) -> "BiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other) -> "BiPoly":
        return (-self) + other

    def _add(self, other: "BiPoly", sign: int) -> "BiPoly":
        """self + sign * other (sign +-1) in one pass, over da * db / g with
        g = gcd(da, db).  A prime of da/g dividing every numerator of the
        sum would divide all of self's, whose gcd is coprime to da; likewise
        for db/g.  So the gcd is taken against g alone."""
        da, db = self._den, other._den
        if da == db:
            g, out, sb = da, dict(self._coeffs), sign
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g * sign
            out = {k: c * sa for k, c in self._coeffs.items()}
        get = out.get
        for k, c in other._coeffs.items():
            total = get(k, 0) + c * sb
            if total:
                out[k] = total
            else:  # only a key of both can cancel
                del out[k]
        return BiPoly._exact(*_reduce(out, da // g * db, g)[:2])

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            f = as_exact(other)  # a bool is a ValueError
            return self._scale(f.numerator, f.denominator)
        if not isinstance(other, BiPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict[Key, int] = {}
        for (ax, ar), ac in a.items():
            for (bx, br), bc in b.items():
                key = (ax + bx, ar + br)
                prev = out.get(key)
                out[key] = ac * bc if prev is None else prev + ac * bc
        return BiPoly._raw(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "BiPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        f = as_exact(scalar)  # a bool is a ValueError
        p, q = f.numerator, f.denominator
        if not p:
            raise ZeroDivisionError("division of BiPoly by zero scalar")
        return self._scale(q, p) if p > 0 else self._scale(-q, -p)

    def _scale(self, p: int, q: int) -> "BiPoly":
        """self * p/q, p/q in lowest terms, q > 0: (c/h) * (p/g) over (den/g) *
        (q/h) with g = gcd(den, p) and h = gcd(q, c...), canonical as it is,
        since den is coprime to the numerators c and q to p.  So an int
        scalar costs one gcd and builds no Fraction; division runs here too."""
        if not p:
            return BiPoly._exact({}, 1)
        coeffs, den = self._coeffs, self._den
        g = gcd(den, p)
        h = gcd(q, *coeffs.values()) if q != 1 else 1
        f = p // g
        out = {k: c // h * f for k, c in coeffs.items()} if h != 1 else {k: c * f for k, c in coeffs.items()}
        return BiPoly._exact(out, den // g * (q // h))

    def __pow__(self, exponent: int) -> "BiPoly":
        check_natural(exponent, "exponent")
        result = BiPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, bool):  # a bool is no rational, so it equals no polynomial
            return NotImplemented
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._coeffs == other._coeffs

    __hash__ = None  # equality is structural; instances are not dict keys

    # -- evaluation and substitution ----------------------------------------

    def eval(self, r: RationalLike, x: RationalLike) -> Fraction:
        """Exact value at rational r and x."""
        return self.subst_x_value(x).subst_r_value(r).coefficient(0, 0)

    def subst_neg_x(self) -> "BiPoly":
        """Substitute x -> -x (flip the sign of odd-degree-in-x terms).

        The mirror has the same denominator, gcd and support, so it needs no
        normalising.  The mirror of an undecoded polynomial is undecoded, its
        packed rows mirrored row by row; a decoded one's mirror holds no
        rows and is packed on first use, like any decoded polynomial.
        """
        packed = self._packed
        if packed is not None and packed[3] is not None:
            width, rows, den, bounds = packed
            return _Lazy((width, {dx: -row if dx & 1 else row for dx, row in rows.items()}, den, bounds))
        return BiPoly._exact(
            {k: (-c if k[0] & 1 else c) for k, c in self._coeffs.items()}, self._den
        )

    def subst_affine_x(self, shift: RationalLike, negate: bool = False) -> "BiPoly":
        """Substitute x -> (-x if negate else x) + shift, exactly."""
        return self._subst(0, -1 if negate else 1, as_exact(shift))

    def subst_affine_r(self, shift: RationalLike) -> "BiPoly":
        """Substitute r -> r + shift, exactly."""
        return self._subst(1, 1, as_exact(shift))

    def subst_x_value(self, value: RationalLike) -> "BiPoly":
        """Pin x to a rational, leaving a polynomial in r alone."""
        return self._subst(0, 0, as_exact(value))

    def subst_r_value(self, value: RationalLike) -> "BiPoly":
        """Pin r to a rational, leaving a polynomial in x alone."""
        return self._subst(1, 0, as_exact(value))

    def _subst(self, axis: int, sign: int, shift: int | Fraction) -> "BiPoly":
        """Substitute v -> sign*v + shift for the variable v on ``axis`` (0: x, 1: r).

        With shift = p/q and D the top degree in v, every output coefficient
        is an integer over den * q^D.  Sign 0 pins v to the value p/q: each
        term c * v^d adds c * p^d * q^(D-d) to its key.

        Sign +-1 is a Taylor shift on rows: row d packs the v^d coefficients
        into one int, one ``_Slots`` slot per degree in the other variable.
        Times sign^d * q^(D-d), the rows are the b_d of B(t) = sum b_d t^d
        with q^D * P(sign*v + p/q) = B(q*v + sign*p).  Synthetic division
        (``row[j] += sign*p * row[j+1]``, D(D+1)/2 multiply-adds) leaves
        B(t + sign*p), whose row j times q^j is the v^j row.  A slot of it
        sums c * C(d, j) * p^(d-j) * q^(D-d+j) over d, and C(d, j) <= C(D,
        d-j), so it and every partial sum before it are at most max|c| *
        (|p| + q)^D: slots of that size plus a sign bit decode exactly.
        """
        p, q = shift.numerator, shift.denominator
        coeffs = self._coeffs
        top = max((k[axis] for k in coeffs), default=0)
        den = self._den * q**top
        if not sign:
            weights = [p**d * q ** (top - d) for d in range(top + 1)]
            out: dict[Key, int] = {}
            get = out.get
            for key, c in coeffs.items():
                k = (0, key[1]) if axis == 0 else (key[0], 0)
                out[k] = get(k, 0) + c * weights[key[axis]]
            return BiPoly._raw(out, den)
        slots = _Slots((max(map(abs, coeffs.values()), default=0) * (abs(p) + q) ** top).bit_length() // 8 + 1)
        bits, rows, powers = 8 * slots.width, [0] * (top + 1), [q**d for d in range(top + 1)]
        for key, c in coeffs.items():
            rows[key[axis]] += c << bits * key[1 - axis]
        rows = [(-row if sign < 0 and d & 1 else row) * powers[top - d] for d, row in enumerate(rows)]
        p *= sign
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                rows[j] += p * rows[j + 1]
        out = {}
        for j, row in enumerate(rows):
            if row:
                slots.unpack(j, row * powers[j], out)
        if axis:
            out = {(w, j): c for (j, w), c in out.items()}
        return BiPoly._exact(*_reduce(out, den)[:2])  # unpack writes no zeros

    # -- canonical text form -------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted by (deg_x desc, deg_r desc).

        This rendering is the stable wire format used by the CLI and the
        golden-file tests; it must not change shape.  Each coefficient is
        reduced from the shared denominator with one integer gcd, so the
        text is written from ints without building a Fraction per term.
        """
        coeffs, den = self._coeffs, self._den
        if not coeffs:
            return "0"
        chunks: list[str] = []
        for key in sorted(coeffs, reverse=True):  # keys are unique
            c = coeffs[key]
            g = gcd(c, den)
            num, q = abs(c) // g, den // g
            mono = _monomial(*key)
            if q != 1:
                mag = f"{int_to_decimal(num)}/{int_to_decimal(q)}"
            elif num != 1 or not mono:
                mag = int_to_decimal(num)
            else:
                mag = ""
            body = f"{mag}*{mono}" if mag and mono else mag or mono
            chunks.append(f"- {body}" if c < 0 else f"+ {body}")
        text = " ".join(chunks)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()!r})"


class _Lazy(BiPoly):
    """A BiPoly held in packed form alone until its coefficients are read.

    ``__getattr__``, which Python calls only for an attribute not found,
    here an unset ``_coeffs`` or ``_den`` slot, decodes the rows, reduces
    them by their gcd g, stores both slots, and replaces the packed form by
    the rows and denominator divided by g, with bounds None: from then on
    ``sum_products`` bounds it by its dict, as any decoded operand.

    A deferred one, made with ``build``, has neither form: the first read
    of ``_coeffs``, ``_den`` or ``_packed`` (a decode, ``to_text``, ``==``,
    or use as an operand) takes the decoded form of ``build()``, a BiPoly,
    with no packed rows, and drops the builder; a builder that raises
    stays for the next read.  Two threads may both build it, a benign race
    like the decode's: each stores the same canonical dict and
    denominator, and the builder is dropped only after both are stored.

    Defining ``__getattr__`` makes every attribute read of its class slower
    on Python 3.11, whose specializing interpreter skips such classes, so
    it lives on this subclass and not on BiPoly, whose other instances keep
    fast reads.
    """

    __slots__ = ("_build",)

    def __init__(self, packed=None, build=None):
        self._build = build
        if build is None:
            self._packed = packed

    def __getattr__(self, name: str):
        if name != "_coeffs" and name != "_den" and name != "_packed":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        build = self._build
        if build is not None:
            built = build()
            self._coeffs, self._den, self._packed, self._build = built._coeffs, built._den, None, None
        elif (held := self._packed) is not None and held[3] is not None:  # else built or decoded meanwhile
            width, rows, den, _ = held
            slots = _Slots(width)
            coeffs: dict[Key, int] = {}
            for x, packed in rows.items():
                slots.unpack(x, packed, coeffs)
            coeffs, den, g = _reduce(coeffs, den)
            if g > 1:
                rows = {x: packed // g for x, packed in rows.items()}
            self._coeffs, self._den = coeffs, den
            self._packed = width, rows, den, None
        return getattr(self, name)


def _monomial(deg_x: int, deg_r: int) -> str:
    """``x^a*r^b``, with degree-1 powers bare and degree-0 factors left out."""
    x = "" if deg_x == 0 else "x" if deg_x == 1 else f"x^{deg_x}"
    r = "" if deg_r == 0 else "r" if deg_r == 1 else f"r^{deg_r}"
    return f"{x}*{r}" if x and r else x or r


def _coerce(value) -> "BiPoly":
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BiPoly.const(value)
    return NotImplemented


X = BiPoly.x()
R = BiPoly.r()


def sum_products(pairs) -> BiPoly:
    """The exact sum of ``a * b`` over the BiPoly ``pairs``, undecoded.

    Equal to ``total = total + a * b`` run over the pairs from zero, but each
    operand is cut into rows by degree in x and each row's r-coefficients
    are packed into one int, one fixed-width slot per degree in r, so a row
    by row product is one big-int multiply.  All products accumulate into
    packed output rows over one common denominator.  The result is these
    rows as they are: its coefficients are decoded and reduced only when
    read (see ``BiPoly``), and a result fed to another call is used as rows.

    An affine operand (decoded, at most three terms: a step factor or a
    constant) is not packed, which would pad it to whole slots of zero
    limbs: each term c * x^i * r^j adds (row * c) << (8 * width * j) into
    output row x + i, for each row of the other operand.

    The slot width bounds every output coefficient.  For each pair,
    ||a*b||_inf <= min(||a||_1 * ||b||_inf, ||a||_inf * ||b||_1), since a
    coefficient of a*b is a sum of products a_i * b_j in which each term
    a_i of a appears at most once, and so does each term b_j of b.  A
    decoded operand brings its exact max and sum of |c| (see ``_factor``);
    an undecoded one brings the bounds of the call that made it.  The sum
    over the pairs of scale times that minimum, plus a sign bit, rounded
    up to whole 16-byte words, holds every signed coefficient, so
    decoding is exact.  That sum and the sum of scale * ||a||_1 *
    ||b||_1 (which bounds ||a*b||_1) are the result's own bounds.

    Each polynomial is packed once per width: an operand keeps the rows it
    was packed to (see ``_Slots.pack``), and the result keeps this call's
    output rows, and a row that several operands hold is re-slotted once.
    The rounding is what lets a recurrence reuse rows: its bound grows ~5
    bits a step, so the width moves about once in 20 steps.
    """
    factors = []
    for a, b in pairs:
        fa, fb = _factor(a), _factor(b)
        if fa is not None and fb is not None:
            factors.append((fb, fa) if fa[5] is None and fb[5] is not None else (fa, fb))
    if not factors:
        return BiPoly.zero()
    den = lcm(*(fa[1] * fb[1] for fa, fb in factors))
    bound = one = 0
    for (_, da, _, inf_a, one_a, _), (_, db, _, inf_b, one_b, _) in factors:
        scale = den // (da * db)
        bound += scale * min(one_a * inf_b, inf_a * one_b)
        one += scale * one_a * one_b
    # Whole 16-byte words, sign bit included.  A recurrence's bound grows ~5
    # bits a step and a re-slot costs ~1.5 steps: a cold three-term build to
    # 250 re-slots 24 times, and 50 at 8-byte words, which made routes ~10%
    # slower.  24-byte words were no faster; 32 slowed the suite by 3%.
    slots = _Slots(16 * ((bound.bit_length() + 128) // 128))
    unit = 8 * slots.width
    rows: dict[int, int] = {}
    for fa, fb in factors:
        rows_b = slots.pack(fb[0], fb[1], fb[2])
        if fa[5] is not None:  # pairs put an affine operand first: c * x^i * r^j shifted j slots
            rows_a = [(xa, c, unit * da) for (xa, da), c in fa[5].items()]
        else:
            rows_a = slots.pack(fa[0], fa[1], fa[2])
            if len(rows_a) > len(rows_b):
                rows_a, rows_b = rows_b, rows_a
            rows_a = [(xa, pa, 0) for xa, pa in rows_a.items()]
        scale = den // (fa[1] * fb[1])
        for xa, pa, shift in rows_a:
            if scale != 1:
                pa *= scale
            for xb, pb in rows_b.items():
                x = xa + xb
                product = pb * pa << shift if shift else pa * pb
                prev = rows.get(x)
                rows[x] = product if prev is None else prev + product
    return _Lazy((slots.width, {x: packed for x, packed in rows.items() if packed}, den, (bound, one)))


def _factor(p: BiPoly):
    """(p, den, packed, b_inf, b_one, terms) for a nonzero ``p``, None for zero.

    An undecoded ``p`` is read from one snapshot of its packed form, which
    is returned as ``packed``, and is zero when it has no rows.  A decoded
    ``p`` gives ``packed`` None, its exact max and sum of |c| from one
    pass, and, as ``terms``, its dict if it is affine (at most three
    terms), else None.  Anything but a BiPoly is a TypeError.
    """
    if not isinstance(p, BiPoly):
        raise TypeError(f"sum_products takes BiPoly operands, got {type(p).__name__} {p!r}")
    packed = p._packed
    if packed is not None and packed[3] is not None:
        return (p, packed[2], packed, *packed[3], None) if packed[1] else None
    coeffs = p._coeffs
    if not coeffs:
        return None
    sizes = [abs(c) for c in coeffs.values()]
    return p, p._den, None, max(sizes), sum(sizes), coeffs if len(coeffs) <= 3 else None


def _parity_parts(p: BiPoly, parity: int) -> tuple[BiPoly, BiPoly]:
    """(S, O): the terms of ``p`` whose degree in x is = ``parity`` (mod 2),
    and the rest, so S + O = p and S - O = (-1)^parity p(-x).

    An undecoded ``p`` is read from one snapshot of its packed form, as
    ``_factor`` reads it, and is not decoded: each part is undecoded, its
    rows those of ``p`` at ``p``'s width over ``p``'s denominator, with
    ``p``'s bounds, which bound any subset of its terms; a call that
    re-slots ``p`` gives them ``p``'s re-slotted rows.  A decoded ``p``
    has its coefficient dict split.
    """
    packed = p._packed
    if packed is not None and packed[3] is not None:
        width, rows, den, bounds = packed
        same = {x: row for x, row in rows.items() if (x ^ parity) & 1 == 0}
        rest = {x: row for x, row in rows.items() if (x ^ parity) & 1}
        return _Lazy((width, same, den, bounds)), _Lazy((width, rest, den, bounds))
    coeffs, den = p._coeffs, p._den
    same = {k: c for k, c in coeffs.items() if (k[0] ^ parity) & 1 == 0}
    rest = {k: c for k, c in coeffs.items() if (k[0] ^ parity) & 1}
    return BiPoly._raw(same, den), BiPoly._raw(rest, den)


class _Slots:
    """Signed integers in ``width``-byte slots of one int, slot j at bit 8*width*j.

    A slot holds any c with |c| < 2^(8*width - 1).  Packing and unpacking
    go through ``to_bytes``/``from_bytes``, so both are linear in the size
    of a row.  A packed row is the plain int sum_j c_j 2^(8*width*j), so
    rows add, multiply and divide exactly by a common factor of their slots
    as ints do.  A row is its value alone: its degree in r is read off its
    bit length (see ``_to_bytes``).
    """

    __slots__ = ("width", "_signs", "_moved")

    def __init__(self, width: int):
        self.width = width
        self._signs = [0]  # _signs[s]: the sign bit of each of s slots set
        self._moved = {}  # (old width, id(row)): (row, moved row); holding row keeps its id unique

    def _sign_bits(self, count: int) -> int:
        signs = self._signs
        while len(signs) <= count:
            signs.append((signs[-1] << (8 * self.width)) | (1 << (8 * self.width - 1)))
        return signs[count]

    def _to_bytes(self, packed: int) -> bytes:
        """The slots of a nonzero packed row as two's-complement bytes.

        As every |c| < 2^(8*width - 1), a row whose top nonzero slot is t
        has a bit length (which ignores the sign) in [8*width*t,
        8*width*(t+1)), so that bit length gives the slot count t + 1.
        Adding half a slot to every slot makes each digit c + half
        non-negative, so no borrow crosses slots; flipping the sign bits
        back leaves c in two's complement.
        """
        count = packed.bit_length() // (8 * self.width) + 1
        half = self._sign_bits(count)
        return ((packed + half) ^ half).to_bytes(count * self.width, "little")

    def pack(self, p: BiPoly, den: int, packed) -> dict[int, int]:
        """{deg_x: packed r-coefficients} for the x-rows of ``p`` over ``den``.

        ``den`` and ``packed`` are those of ``_factor(p)``.  The rows are
        cached on ``p``: rows of this width over ``den`` are returned as
        they are.  Otherwise a decoded ``p`` is packed from its
        coefficient dict, and the rows of an undecoded one are re-slotted
        from their own width.  Rows held for another width are replaced.

        Each coefficient becomes ``width`` two's-complement bytes.  Read
        unsigned, a negative slot c stands for c + 2^(8*width), so
        subtracting twice the row's set sign bits restores it.
        """
        width = self.width
        cached = p._packed
        if cached is not None and cached[0] == width and cached[2] == den:
            return cached[1]
        if packed is not None:
            out = self._reslot(packed[0], packed[1])
            p._packed = width, out, den, packed[3]
            return out
        zero = bytes(width)
        rows: dict[int, list[bytes]] = {}
        for (dx, dr), c in p._coeffs.items():
            row = rows.get(dx)
            if row is None:
                rows[dx] = row = []
            if len(row) <= dr:
                row += [zero] * (dr + 1 - len(row))
            row[dr] = c.to_bytes(width, "little", signed=True)
        out = {}
        for dx, row in rows.items():
            raw = int.from_bytes(b"".join(row), "little")
            out[dx] = raw - ((raw & self._sign_bits(len(row))) << 1)
        p._packed = width, out, den, None
        return out

    def _reslot(self, old_width: int, rows: dict[int, int]) -> dict[int, int]:
        """``rows`` packed at ``old_width`` moved to this width, slot by slot.

        Each two's-complement slot keeps its low min(width, old_width) bytes,
        padded with its sign byte if it grows.  Dropped top bytes are sign
        bytes whenever the value fits the narrower slot, as every
        coefficient of a call's operands fits that call's width.  Each row
        is moved once per ``_Slots``: the parity views of ``_parity_parts``
        take the very ints p's rows were moved to.
        """
        width, old, moved = self.width, _Slots(old_width), self._moved
        keep = min(width, old_width)
        pads = (bytes(width - keep), b"\xff" * (width - keep))
        out = {}
        for x, packed in rows.items():
            key = old_width, id(packed)
            held = moved.get(key)
            if held is None:
                data = old._to_bytes(packed)
                slots = [
                    data[i : i + keep] + pads[data[i + keep - 1] >> 7]
                    for i in range(0, len(data), old_width)
                ]
                raw = int.from_bytes(b"".join(slots), "little")
                held = moved[key] = packed, raw - ((raw & self._sign_bits(len(slots))) << 1)
            out[x] = held[1]
        return out

    def unpack(self, x: int, packed: int, out: dict[Key, int]) -> None:
        """Write the nonzero slots of the nonzero row ``x`` into ``out``."""
        width = self.width
        data = self._to_bytes(packed)
        from_bytes = int.from_bytes
        for dr, start in enumerate(range(0, len(data), width)):
            c = from_bytes(data[start : start + width], "little", signed=True)
            if c:
                out[(x, dr)] = c


def _affine(value: BiPoly | int | Fraction, message: str) -> BiPoly:
    """``value`` as a BiPoly of total degree <= 1, an int or ``Fraction``
    being a constant one; anything else, a bool, float or str included, is a
    ValueError with ``message``."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return BiPoly.const(value)
    if not (isinstance(value, BiPoly) and value.is_affine):
        raise ValueError(message)
    return value


def _product_rows(factors) -> list[list[int]]:
    """[p_0, p_1, ...] with p_0 = 1 and p_k = p_{k-1} * (a_k v + b_k) for the
    k-th (a_k, b_k) of ``factors``, each an int coefficient list in v, low
    degree first.  The one falling/rising-product kernel: it builds the
    binomial rows here and the defining-sum routes' factorial rows in
    ``dcore``."""
    rows = [[1]]
    for a, b in factors:
        row = rows[-1]
        rows.append([b * lo + a * hi for lo, hi in zip(row + [0], [0] + row)])
    return rows


def _binom_rows(linear, k: int):
    """(falling, weights, delta) for binom(linear, j), j <= k.

    The affine top is (alpha x + beta r + gamma) / delta with ints alpha,
    beta, gamma and delta > 0.  With l = alpha x + beta r,

        delta^j * j! * binom(linear, j) = prod_{i<j} (l + gamma - i*delta),

    so ``falling[j]`` is that product as an int coefficient list in l.
    ``weights[e]`` lists the ((a, e - a), C(e, a) alpha^a beta^(e-a)) of l^e
    that are not zero: a monomial x^a r^(e-a) drops out when alpha or beta
    is 0.
    """
    check_natural(k, "lower index")
    linear = _affine(linear, "a polynomial binomial needs an affine top argument")
    coeffs, delta = linear._coeffs, linear._den
    alpha, beta, gamma = coeffs.get((1, 0), 0), coeffs.get((0, 1), 0), coeffs.get((0, 0), 0)
    falling = _product_rows((1, gamma - i * delta) for i in range(k))
    weights = [
        [((a, e - a), w) for a in range(e + 1) if (w := comb(e, a) * alpha**a * beta ** (e - a))]
        for e in range(k + 1)
    ]
    return falling, weights, delta


def _binom_entry(row: list[int], weights, den: int) -> BiPoly:
    """The polynomial sum_e row[e] * l^e / den, mapped to (x, r) by ``weights``:
    each monomial comes from one power of l, so the map only assigns."""
    return BiPoly._raw({key: c * w for e, c in enumerate(row) if c for key, w in weights[e]}, den)


def binom_row(linear: BiPoly | int | Fraction, k: int) -> list[BiPoly]:
    """The binomial coefficients binom(linear, 0), ..., binom(linear, k).

    ``linear`` must be affine in x and r (an int or ``Fraction`` is a
    constant).  With the top written (l + gamma) / delta, l = alpha x +
    beta r, the falling products prod_{i<j} (l + gamma - i*delta) for every
    j <= k are one ``_product_rows`` call in the single variable l.  Entry
    j is product j over delta^j * j!, mapped to (x, r) by the multinomial
    l^e = sum_a C(e, a) alpha^a beta^(e-a) x^a r^(e-a): integer arithmetic
    throughout, and one reduction per entry.
    """
    falling, weights, delta = _binom_rows(linear, k)
    row, den = [], 1
    for j, p in enumerate(falling):
        row.append(_binom_entry(p, weights, den))
        den *= delta * (j + 1)
    return row


def binom_poly(linear: BiPoly | int | Fraction, k: int) -> BiPoly:
    """Binomial coefficient with a polynomial top argument.

    Computes linear*(linear-1)*...*(linear-k+1) / k! for an affine
    ``linear`` in x and r; the result has total degree k.  This is entry k
    of ``binom_row(linear, k)``, and only that entry is mapped to (x, r).
    """
    falling, weights, delta = _binom_rows(linear, k)
    return _binom_entry(falling[k], weights, delta**k * factorial(k))
