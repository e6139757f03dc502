"""Exact arithmetic in two-level towers of finite fields.

A tower F_p < F_q < F_(q^m), with q = p^a, is built one level at a time.
Each level is K[x]/(f): K is the level below and f is the first monic
irreducible of degree [level : K] in the deterministic order of
:func:`wildgoppa.poly.find_irreducible`, so the same (p, a, m) always yields
the same field and the same element encoding. Elements are plain integers:
an element of F_(p^a) with power-basis coordinates (c_0, ..., c_(a-1)) over
F_p is encoded as sum(c_i * p^i), and an element of the top field with
coordinates (e_0, ..., e_(m-1)) over F_q is encoded as sum(enc(e_j) * q^j).
The overall encoding is therefore positional base p, and addition is
digitwise.

Construction multiplies in ``poly`` over K; afterwards all arithmetic goes
through full lookup tables (numpy arrays), which keeps both scalar work and
vectorised linear algebra exact and fast for the field sizes this library
targets (a few hundred elements). Towers whose top field would exceed
``ORDER_CAP`` elements are rejected.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

__all__ = [
    "Field",
    "FieldElement",
    "build_tower",
    "ORDER_CAP",
]

# Tables are order x order; 1024 keeps the worst case (int16 entries) at 2 MB
# per table and admits F_1024, the largest field the benchmark and tests build.
ORDER_CAP = 1024

_TABLE_DTYPE = np.int16


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending; n is prime iff this is [n]."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def digits(k: int, base: int, count: int) -> list[int]:
    """The ``count`` lowest base-``base`` digits of k >= 0, low digit first,
    as plain ints."""
    out = []
    for _ in range(count):
        k, d = divmod(k, base)
        out.append(d)
    return out


def digit_array(codes, base: int, count: int) -> np.ndarray:
    """The ``count`` lowest base-``base`` digits of every entry of an
    integer array, low digit first, on a new last axis, as int64."""
    powers = base ** np.arange(count, dtype=np.int64)
    return np.asarray(codes, dtype=np.int64)[..., None] // powers % base


class Field:
    """A finite field presented as a two-level tower F_p < F_q < F_(q^m).

    Construct through :func:`build_tower`, which caches instances. The field
    of scalars F_q is itself a Field (``self.subfield``), so matrices over
    either level share one code path. For m == 1 the tower is degenerate and
    the field is its own scalar level.

    Each level is K[x]/(f): K is the level below (F_q under F_(q^m), F_p
    under F_q, the integers mod p at the bottom) and f is the monic
    irreducible that :func:`wildgoppa.poly.find_irreducible` returns over K.
    Construction multiplies in ``poly`` over K only to find the generator and
    fill the lookup tables; after that the tables are the only arithmetic.

    Attributes of interest: ``p``, ``a``, ``m``, ``q = p**a``,
    ``order = q**m``, ``base_modulus_coeffs`` (the degree-a modulus over F_p,
    as a tuple of ints), ``top_modulus_coeffs`` (the degree-m modulus over
    F_q, as a tuple of F_q codes). A degree-1 modulus is x, ``(0, 1)``.
    """

    def __init__(self, p: int, a: int, m: int):
        if prime_factors(p) != [p]:
            raise ValueError(f"p must be prime, got {p}")
        if a < 1 or m < 1:
            raise ValueError("tower degrees must be >= 1")
        order = p ** (a * m)
        if order > ORDER_CAP:
            raise ValueError(
                f"field with {order} elements exceeds the table-backed "
                f"cap of {ORDER_CAP}"
            )
        self.p = p
        self.a = a
        self.m = m
        self.q = q = p**a
        self.order = order

        self.base_modulus_coeffs: tuple[int, ...] = (0, 1)
        self.top_modulus_coeffs: tuple[int, ...] = (0, 1)
        if a * m == 1:
            mul = lambda x, y: x * y % p
            power = lambda x, e: pow(x, e, p)
        else:
            from . import poly  # poly imports this module at load time

            K = build_tower(p, a, 1) if m > 1 else build_tower(p, 1, 1)
            f = poly.find_irreducible(K, m if m > 1 else a)
            if m > 1:
                self.base_modulus_coeffs = K.base_modulus_coeffs
                self.top_modulus_coeffs = f.coeffs
            else:
                self.base_modulus_coeffs = f.coeffs
            # A code is the element whose base-|K| digits are its coordinates.
            r, d = K.order, int(f.degree)
            lift = lambda x: poly.Polynomial(K, digits(x, r, d))
            code = lambda g: sum(c * r**i for i, c in enumerate(g.coeffs))
            mul = lambda x, y: code(lift(x) * lift(y) % f)
            power = lambda x, e: code(poly.pow_mod(lift(x), e, f))

        # Multiplicative generator: smallest code whose order is order - 1.
        n1 = order - 1
        gen = 1
        if n1 > 1:
            checks = [n1 // ell for ell in prime_factors(n1)]
            for cand in range(2, order):
                if all(power(cand, e) != 1 for e in checks):
                    gen = cand
                    break
            else:
                raise RuntimeError("no generator found; unreachable")
        self.generator_code = gen

        # Discrete exp/log, then the dense tables.
        exp = np.zeros(n1, dtype=np.int64)
        exp[0] = 1
        acc = 1
        for i in range(1, n1):
            acc = mul(acc, gen)
            exp[i] = acc
        log = np.zeros(order, dtype=np.int64)
        log[exp] = np.arange(n1)
        self._exp = exp
        self._log = log

        codes = np.arange(order, dtype=np.int64)
        if p == 2:  # digitwise addition mod 2 is the XOR of codes
            add_t = codes[:, None] ^ codes[None, :]
        else:
            add_t = np.zeros((order, order), dtype=np.int64)
            for k in range(a * m):
                dk = (codes // p**k) % p
                add_t += ((dk[:, None] + dk[None, :]) % p) * p**k
        self.add_table = add_t.astype(_TABLE_DTYPE)

        mul_t = exp[(log[:, None] + log[None, :]) % n1]
        mul_t[0, :] = 0
        mul_t[:, 0] = 0
        self.mul_table = mul_t.astype(_TABLE_DTYPE)

        self.neg_table = self.mul_table[p - 1].copy()  # code p - 1 is -1

        inv = np.zeros(order, dtype=np.int64)
        inv[exp] = exp[(-np.arange(n1)) % n1]
        self.inv_table = inv.astype(_TABLE_DTYPE)  # inv[0] is a dummy 0

        # x -> x^q, and the trace / norm down to F_q.
        frob = exp[(log * q) % n1]
        frob[0] = 0
        self.frobenius_table = frob.astype(_TABLE_DTYPE)

        tr = codes.copy()
        nrm = codes.copy()
        cur = codes.copy()
        for _ in range(m - 1):
            cur = frob[cur]
            tr = add_t[tr, cur]
            nrm = mul_t[nrm, cur]
        if not (tr < q).all() or not (nrm < q).all():
            raise RuntimeError("trace/norm left the scalar level; unreachable")
        self.trace_table = tr.astype(_TABLE_DTYPE)
        self.norm_table = nrm.astype(_TABLE_DTYPE)

        for t in (
            self.add_table,
            self.mul_table,
            self.neg_table,
            self.inv_table,
            self.frobenius_table,
            self.trace_table,
            self.norm_table,
        ):
            t.setflags(write=False)

    # Python nested lists, faster than numpy for scalar-at-a-time work, built
    # on first use: vectorised work never reads them.
    _add_py = functools.cached_property(lambda self: self.add_table.tolist())
    _mul_py = functools.cached_property(lambda self: self.mul_table.tolist())
    _neg_py = functools.cached_property(lambda self: self.neg_table.tolist())
    _inv_py = functools.cached_property(lambda self: self.inv_table.tolist())

    # -- identity ----------------------------------------------------------

    @property
    def params(self) -> tuple[int, int, int]:
        return (self.p, self.a, self.m)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Field) and self.params == other.params)

    def __hash__(self) -> int:
        return hash(("Field", self.params))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, a={self.a}, m={self.m})"

    # -- structure ---------------------------------------------------------

    @property
    def subfield(self) -> "Field":
        """The scalar level F_q; for m == 1 this is the field itself."""
        if self.m == 1:
            return self
        return build_tower(self.p, self.a, 1)

    @property
    def norm_exponent(self) -> int:
        """(order - 1)/(q - 1): x -> x**norm_exponent is the norm to F_q."""
        return (self.order - 1) // (self.q - 1)

    # -- elements ----------------------------------------------------------

    def element(self, code: int) -> "FieldElement":
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range for {self!r}")
        return FieldElement(self, code)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def gen(self) -> "FieldElement":
        """Class of the variable of the top modulus (code q); for m == 1 the
        class of the level-1 variable (code p)."""
        if self.m > 1:
            return FieldElement(self, self.q)
        return FieldElement(self, self.p if self.a > 1 else 1)

    def elements(self) -> Iterator["FieldElement"]:
        for c in range(self.order):
            yield FieldElement(self, c)

    def embed(self, x: "FieldElement | int") -> "FieldElement":
        """Image of an F_q element in the top field (same code by encoding)."""
        if isinstance(x, FieldElement):
            if x.field != self.subfield:
                raise ValueError(f"{x!r} is not in the scalar level of {self!r}")
            return FieldElement(self, x.code)
        code = int(x)
        if not 0 <= code < self.q:
            raise ValueError(f"scalar code {code} out of range for F_{self.q}")
        return FieldElement(self, code)


class FieldElement:
    """An element of a :class:`Field`, identified by its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise ValueError(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field._add_py[self.code][other.code])

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        return FieldElement(f, f._add_py[self.code][f._neg_py[other.code]])

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field._neg_py[self.code])

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field._mul_py[self.code][other.code])

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        if other.code == 0:
            raise ZeroDivisionError("division by the zero element")
        f = self.field
        return FieldElement(f, f._mul_py[self.code][f._inv_py[other.code]])

    def inverse(self) -> "FieldElement":
        if self.code == 0:
            raise ZeroDivisionError("zero has no inverse")
        return FieldElement(self.field, self.field._inv_py[self.code])

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        if self.code == 0:
            if e < 0:
                raise ZeroDivisionError("zero has no inverse")
            return f.one if e == 0 else f.zero
        n1 = f.order - 1
        if n1 == 0:
            return f.one
        return FieldElement(f, int(f._exp[(int(f._log[self.code]) * e) % n1]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.code == self.code
        )

    def __hash__(self) -> int:
        return hash((self.field.params, self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def __int__(self) -> int:
        return self.code

    def __repr__(self) -> str:
        return f"<{self.code} in GF({self.field.order})>"

    # -- tower structure ----------------------------------------------------

    def coordinates(self) -> tuple["FieldElement", ...]:
        """Coordinates over F_q, low power first, as subfield elements."""
        f = self.field
        sub = f.subfield
        return tuple(FieldElement(sub, c) for c in digits(self.code, f.q, f.m))

    @property
    def in_subfield(self) -> bool:
        """Whether the element lies in F_q (fixed by x -> x^q; by the
        encoding this is exactly code < q)."""
        return self.code < self.field.q

    def frobenius(self) -> "FieldElement":
        """x -> x^q."""
        return FieldElement(self.field, int(self.field.frobenius_table[self.code]))

    def trace(self) -> "FieldElement":
        """Trace to F_q: sum of x^(q^i) for 0 <= i < m."""
        return FieldElement(self.field.subfield, int(self.field.trace_table[self.code]))

    def norm(self) -> "FieldElement":
        """Norm to F_q: product of x^(q^i) for 0 <= i < m; equals
        x^((q^m-1)/(q-1)) on nonzero x."""
        return FieldElement(self.field.subfield, int(self.field.norm_table[self.code]))


@functools.lru_cache(maxsize=None)
def build_tower(p: int, a: int, m: int) -> Field:
    """The tower F_p < F_(p^a) < F_(p^(a*m)) with deterministic moduli.

    Instances are cached by (p, a, m); equality on Field compares those
    parameters, so a cache-bypassing rebuild still compares equal.
    """
    return Field(p, a, m)
