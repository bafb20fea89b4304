"""Exact base fields: the rationals and prime fields F_p.

Rational elements are `fractions.Fraction`; prime-field elements are plain
ints in range(p).  All arithmetic is routed through a Field instance so that
polynomial and matrix code is field-agnostic.
"""

from fractions import Fraction

# Primality is tested by trial division up to sqrt(p): 10^6 divisions at
# the bound, under a second.  A larger characteristic is refused first.
MAX_CHARACTERISTIC = 10**12


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (p is None) or the prime field F_p."""

    def __init__(self, p=None):
        if p is not None and p > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} exceeds the bound 10^12")
        if p is not None and not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.is_finite = p is not None
        self.zero = 0 if p is not None else Fraction(0)
        self.one = 1 if p is not None else Fraction(1)

    def from_int(self, n):
        if self.p is not None:
            return n % self.p
        return Fraction(n)

    def add(self, a, b):
        if self.p is not None:
            return (a + b) % self.p
        return a + b

    def sub(self, a, b):
        if self.p is not None:
            return (a - b) % self.p
        return a - b

    def mul(self, a, b):
        if self.p is not None:
            return (a * b) % self.p
        return a * b

    def neg(self, a):
        if self.p is not None:
            return (-a) % self.p
        return -a

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        """All field elements (finite fields only)."""
        if self.p is None:
            raise ValueError("the rationals are not enumerable")
        return range(self.p)

    def format(self, a):
        if self.p is not None:
            return str(a % self.p)
        return str(a)

    def to_json(self, a):
        """JSON data for an element, inverse to `parse`: an int, or 'p/q' for
        a non-integral rational."""
        if self.p is not None or a.denominator == 1:
            return int(a)
        return str(a)

    def parse(self, s):
        """Parse a field element from JSON data: an int, or 'p/q' over Q.
        Exponent notation is refused: a short literal such as '1e99999999'
        would ask for an integer of hundreds of megabytes."""
        if isinstance(s, bool):
            raise ValueError(f"not a field element: {s!r}")
        if isinstance(s, int):
            return self.from_int(s)
        if isinstance(s, str):
            if self.p is not None:
                return int(s, 10) % self.p
            if "e" in s or "E" in s:
                raise ValueError(f"not a field element: {s!r}")
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise ValueError(f"not a field element: {s!r}") from None
        raise ValueError(f"not a field element: {s!r}")

    @property
    def code(self):
        """The wire code: 'Q' or 'Fp:<p>'."""
        return "Q" if self.p is None else f"Fp:{self.p}"

    @staticmethod
    def from_code(code):
        if code == "Q":
            return QQ
        if isinstance(code, str) and code.startswith("Fp:"):
            try:
                p = int(code[3:], 10)
            except ValueError:
                raise ValueError(f"bad field code {code!r}") from None
            try:
                return Field(p)
            except ValueError as e:
                raise ValueError(f"field code {code!r}: {e}") from None
        raise ValueError(f"bad field code {code!r}")

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


def GF(p):
    return Field(p)
