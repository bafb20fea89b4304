"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending; the zero polynomial is the empty tuple and
has degree NEG_INF (the documented sentinel for -infinity).

The ring operations work on the coefficients with Python operators, not
through Field methods.  Over F_p each output coefficient is reduced mod p
once (a product sums the integer convolution first); over Q a product
convolves the integer numerators over the lcm of each operand's
denominators, a division eliminates on integer numerators over one common
denominator, and each builds one Fraction per output coefficient.
"""

from fractions import Fraction
from math import lcm

NEG_INF = float("-inf")


class Poly:
    def __init__(self, field, coeffs=()):
        self.field = field
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(field):
        return Poly(field)

    @staticmethod
    def one(field):
        return Poly(field, (field.one,))

    @staticmethod
    def const(field, c):
        return Poly(field, (c,))

    @staticmethod
    def x(field):
        return Poly(field, (field.zero, field.one))

    @staticmethod
    def monomial(field, c, n):
        return Poly(field, (field.zero,) * n + (c,))

    @staticmethod
    def from_roots(field, roots):
        """prod (z - r) over the given roots (with multiplicity)."""
        p = Poly.one(field)
        for r in roots:
            p = p * Poly(field, (field.neg(r), field.one))
        return p

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self):
        """Leading coefficient; zero for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else self.field.zero

    def coeff(self, n):
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else self.field.zero

    def __add__(self, other):
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        if p is None:
            for i, y in enumerate(b):
                out[i] += y
        else:
            for i, y in enumerate(b):
                out[i] = (out[i] + y) % p
        return Poly(self.field, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        F = self.field
        p = F.p
        a, b = self.coeffs, other.coeffs
        out = list(a) + [F.zero] * (len(b) - len(a))
        if p is None:
            for i, y in enumerate(b):
                out[i] -= y
        else:
            for i, y in enumerate(b):
                out[i] = (out[i] - y) % p
        return Poly(F, out)

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F)
        p = F.p
        if p is None:
            # integer numerators over the common denominators da, db
            da = lcm(*(c.denominator for c in a))
            db = lcm(*(c.denominator for c in b))
            a = [c.numerator * (da // c.denominator) for c in a]
            b = [c.numerator * (db // c.denominator) for c in b]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        for j, c in enumerate(out):
            out[j] = Fraction(c, da * db) if p is None else c % p
        return Poly(F, out)

    def scale(self, c):
        p = self.field.p
        out = list(self.coeffs)
        for i, a in enumerate(out):
            out[i] = c * a if p is None else c * a % p
        return Poly(self.field, out)

    def shift(self, n):
        """Multiply by z^n."""
        if self.is_zero:
            return self
        return Poly(self.field, (self.field.zero,) * n + self.coeffs)

    def __pow__(self, n):
        out = Poly.one(self.field)
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        p = F.p
        if p is None:
            return self._divmod_q(other.coeffs)
        rem, b = list(self.coeffs), other.coeffs
        d = len(b) - 1
        inv_lc = F.inv(other.lc)
        quo = [F.zero] * max(len(rem) - d, 0)
        # rem[i] is reduced once: when it leads, or at the end
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c:
                q = c * inv_lc % p
                quo[i - d] = q
                for j, bj in enumerate(b[:d], i - d):
                    rem[j] -= q * bj
        return Poly(F, quo), Poly(F, [c % p for c in rem[:d]])

    def _divmod_q(self, b):
        """divmod over Q by the coefficients b, with self = R/s, b = B/e on
        integer numerators: a step takes the quotient coefficient
        R_i e / (s l), l = B[-1], and sets R to l R - R_i B z^(i-d) over s l."""
        F, d = self.field, len(b) - 1
        if len(self.coeffs) <= d:
            return Poly(F), self
        s = lcm(*(c.denominator for c in self.coeffs))
        e = lcm(*(c.denominator for c in b))
        R = [c.numerator * (s // c.denominator) for c in self.coeffs]
        B = [c.numerator * (e // c.denominator) for c in b]
        lead = B[-1]
        quo = [F.zero] * max(len(R) - d, 0)
        for i in range(len(R) - 1, d - 1, -1):
            c = R[i]
            if c:
                quo[i - d] = Fraction(c * e, s * lead)
                if lead != 1:
                    for j in range(i):
                        R[j] *= lead
                    s *= lead
                for j, bj in enumerate(B[:d], i - d):
                    R[j] -= c * bj
        return Poly(F, quo), Poly(F, [Fraction(c, s) for c in R[:d]])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lc))

    def eval(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def valuation_at(self, x):
        """The (z - x)-adic valuation; raises on the zero polynomial.

        Synthetic division by z - x in place on the coefficient list, until
        the remainder is nonzero.  Over Q it runs on integers: for x = a/b
        and D the lcm of the denominators, sum c_i D b^(n-i) w^i =
        D b^n self(w/b) has integer coefficients and vanishes at w = a to
        the same order."""
        if self.is_zero:
            raise ValueError("valuation of the zero polynomial")
        p, c = self.field.p, list(self.coeffs)
        if p is None:
            n, b = len(c) - 1, x.denominator
            D = lcm(*(q.denominator for q in c))
            c = [q.numerator * (D // q.denominator) * b ** (n - i) for i, q in enumerate(c)]
            x = x.numerator
        v = 0
        while True:
            # c becomes the quotient c[1:] and the remainder c[0]
            for i in range(len(c) - 2, -1, -1):
                c[i] = c[i] + x * c[i + 1] if p is None else (c[i] + x * c[i + 1]) % p
            if c[0]:
                return v
            del c[0]
            v += 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def to_list(self):
        return [self.field.to_json(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            cs = self.field.format(c)
            if i == 0:
                terms.append(cs)
            else:
                zi = "z" if i == 1 else f"z^{i}"
                terms.append(zi if cs == "1" else f"{cs}*{zi}")
        return " + ".join(terms)


def gcd_cofactor(a, b):
    """(u, s): u the monic gcd of a and b, gcd(0, 0) = 0, and s*a = u modulo
    b.  Euclid's algorithm, carrying the cofactor of a only."""
    F = a.field
    s, t = Poly.one(F), Poly.zero(F)
    while not b.is_zero:
        q, r = divmod(a, b)
        a, b, s, t = b, r, t, s - q * t
    if a.is_zero:
        return a, s
    c = F.inv(a.lc)
    return a.scale(c), s.scale(c)


def poly_gcd(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    return gcd_cofactor(a, b)[0]


# Over Q a divisor search is refused when the constant or leading numerator
# exceeds MAX_ROOT_SEARCH (listing the divisors of n takes sqrt(n) = 10^6
# trial divisions), or when the pairs (c, d) of their divisors exceed
# MAX_ROOT_CANDIDATES (each pair costs two evaluations of p).  Over F_p the
# search is refused once MAX_ROOT_CANDIDATES elements are tried.
MAX_ROOT_SEARCH = 10**12
MAX_ROOT_CANDIDATES = 10**5


def linear_roots(p):
    """All roots of the linear factors of p, returned as {root: multiplicity},
    plus the residual factor with no roots in the field.

    A residual of degree 1 gives its root directly; one of higher degree is
    searched.  Finite fields: the elements in turn, until the residual is
    linear or constant, so a residual of degree >= 2 left at the end has no
    root at all; a ValueError refuses the search when one is left after
    MAX_ROOT_CANDIDATES elements.  Rationals: rational-root extraction (no
    field extensions); the candidates c/d are searched by trial division,
    and a ValueError refuses the search when |c| or |d| would range over the
    divisors of a numerator above MAX_ROOT_SEARCH, or over more than
    MAX_ROOT_CANDIDATES pairs.
    """
    if p.is_zero:
        raise ValueError("root extraction from the zero polynomial")
    F = p.field
    roots = {}
    if F.is_finite:
        for x in F.elements():
            if p.degree <= 1:
                break
            if x == MAX_ROOT_CANDIDATES:
                raise ValueError(
                    f"root search over F_{F.p} refused: a factor of degree {p.degree} "
                    "is left after 10^5 elements"
                )
            while p.degree >= 2 and p.eval(x) == F.zero:
                roots[x] = roots.get(x, 0) + 1
                p = p.exact_div(Poly(F, (F.neg(x), F.one)))
    else:
        # rational roots r = c/d with c | constant term, d | leading
        # coefficient, after clearing denominators to an integer polynomial
        while p.degree >= 2:
            den = lcm(*(c.denominator for c in p.coeffs))
            ints = [int(c * den) for c in p.coeffs]
            lead = ints[-1]
            k = 0
            while ints[k] == 0:
                k += 1
            if k:
                roots[F.zero] = roots.get(F.zero, 0) + k
                p = p.exact_div(Poly.monomial(F, F.one, k))
                continue
            const = ints[0]
            if max(abs(const), abs(lead)) > MAX_ROOT_SEARCH:
                raise ValueError(
                    "rational root search refused: the constant or leading numerator "
                    "exceeds the bound 10^12 (over 10^6 trial divisions)"
                )
            cs, ds = _divisors(abs(const)), _divisors(abs(lead))
            if len(cs) * len(ds) > MAX_ROOT_CANDIDATES:
                raise ValueError(
                    f"rational root search refused: {len(cs) * len(ds)} candidate "
                    "roots exceed the bound 10^5"
                )
            found = None
            for c in cs:
                for d in ds:
                    for r in (F.parse(f"{c}/{d}"), F.parse(f"-{c}/{d}")):
                        if p.eval(r) == F.zero:
                            found = r
                            break
                    if found is not None:
                        break
                if found is not None:
                    break
            if found is None:
                break
            # every copy at once: a later search would find this root first again
            e = p.valuation_at(found)
            roots[found] = e
            p = p.exact_div(Poly.from_roots(F, [found] * e))
    if p.degree == 1:
        root = F.div(F.neg(p.coeffs[0]), p.coeffs[1])
        roots[root] = roots.get(root, 0) + 1
        p = Poly.const(F, p.coeffs[1])
    return roots, p


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
