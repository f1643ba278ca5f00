"""Coefficient specifications: the integers, the rationals, or a prime field."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin with the first twelve primes as bases is exact for every
# n < 3.18e23 (Sorenson and Webster, Math. Comp. 86, 2017), which covers
# every modulus below _MAX_MODULUS
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_MODULUS = 2**64


def _is_prime(p):
    """Exact primality test for p < 3.18e23."""
    if p < 2:
        return False
    for b in _WITNESSES:
        if p % b == 0:
            return p == b
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _WITNESSES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CoeffSpec:
    """Tag for the coefficient ring: 'Z', 'Q', or 'Zp' with p prime."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zp"):
            raise ValueError("unknown coefficient kind %r" % (self.kind,))
        if self.kind == "Zp":
            # a float or bool modulus would let inexact values into Z/p
            if self.p is not None and type(self.p) is not int:
                raise ValueError("prime field modulus must be an int, got %r" % (self.p,))
            if self.p is not None and self.p >= _MAX_MODULUS:
                raise ValueError("prime field modulus must be below 2**64, got %r" % (self.p,))
            if self.p is None or not _is_prime(self.p):
                raise ValueError("prime field needs a prime modulus, got %r" % (self.p,))
        elif self.p is not None:
            raise ValueError("modulus only makes sense for prime fields")

    @property
    def is_field(self):
        return self.kind in ("Q", "Zp")

    def label(self):
        if self.kind == "Zp":
            return "Z/%d" % self.p
        return self.kind

    @classmethod
    def parse(cls, text):
        """Parse the CLI spelling: 'z', 'q', or 'zp:<p>'."""
        t = text.strip().lower()
        if t == "z":
            return Z
        if t == "q":
            return Q
        if t.startswith("zp:"):
            try:
                p = int(t[3:])
            except ValueError:
                raise ValueError("bad prime field spec %r" % (text,)) from None
            return cls("Zp", p)
        raise ValueError("unsupported coefficient spec %r" % (text,))

    def normalize(self, x):
        """Coerce a scalar into the canonical representation for this ring.

        Every scalar other than an int is read as an exact Fraction first, so
        2.5 is 5/2 (not an integer) and never truncates to 2."""
        if type(x) is int:
            # fast path: exact ints skip the (slow, ABC-based) Fraction check
            if self.kind == "Z":
                return x
            if self.kind == "Zp":
                return x % self.p
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if self.kind == "Z":
            if x.denominator != 1:
                raise ValueError("%r is not an integer" % (x,))
            return x.numerator
        if self.kind == "Q":
            return x
        if x.denominator % self.p == 0:
            raise ZeroDivisionError("denominator divisible by %d" % self.p)
        return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p


Z = CoeffSpec("Z")
Q = CoeffSpec("Q")


def prime_field(p):
    return CoeffSpec("Zp", p)
