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
digitwise. There is no element type: :func:`element_code` checks a code
passed in as an argument.

Construction works in batched passes over K (see :class:`Field`);
afterwards all arithmetic goes through full lookup tables (numpy arrays),
which keeps both scalar work and vectorised linear algebra exact and fast
for the field sizes this library targets. Towers whose top field would
exceed ``ORDER_CAP`` elements are rejected. Scalar work reads nested-list
mirrors of the tables, each row of a 2-d mirror built on first touch.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Field",
    "build_tower",
    "ORDER_CAP",
]

# Tables are order x order; 1024 keeps the worst case (int16 entries) at 2 MB
# per table and admits F_1024, the largest field the benchmark and tests build.
ORDER_CAP = 1024

_TABLE_DTYPE = np.int16
# Cells one batched pass writes at a time: construction's blocks of table
# rows here, and the candidate scans, products and enumerations built on it.
_CHUNK_CELLS = 1 << 17


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
    integer array, low digit first, on a new last axis, in the array's
    integer dtype when base**count fits it and as int64 otherwise: one
    contiguous pass per digit, the digit axis moved last only in the view."""
    codes = np.asarray(codes)
    dt = codes.dtype
    if dt.kind != "i" or base**count > np.iinfo(dt).max:
        dt = np.dtype(np.int64)
    powers = base ** np.arange(count, dtype=dt).reshape((-1,) + (1,) * codes.ndim)
    digs = codes.astype(dt, copy=False) // powers % base
    return digs.transpose(*range(1, digs.ndim), 0)


class _Row:
    """Row x of a table's nested-list mirror until it is first read: the
    first lookup puts table[x].tolist() in its place in the mirror."""

    __slots__ = ("mirror", "table", "x")

    def __init__(self, mirror: list, table: np.ndarray, x: int):
        self.mirror, self.table, self.x = mirror, table, x

    def __getitem__(self, y: int) -> int:
        return self.tolist()[y]

    def tolist(self) -> list[int]:
        row = self.mirror[self.x]
        if row is self:
            row = self.mirror[self.x] = self.table[self.x].tolist()
        return row


def _mirror(table: np.ndarray) -> list:
    """The nested-list mirror of a 2-d table, each row a :class:`_Row`
    until first read."""
    rows: list = []
    rows.extend(_Row(rows, table, x) for x in range(len(table)))
    return rows


def mirror_row(mirror: list, x: int) -> list[int]:
    """Row x of a nested-list mirror as a list, for a caller that keeps the
    row across a loop."""
    row = mirror[x]
    return row if row.__class__ is list else row.tolist()


class Field:
    """A finite field presented as a two-level tower F_p < F_q < F_(q^m).

    Construct through :func:`build_tower`, which caches instances. The field
    of scalars F_q is itself a Field (``self.subfield``), so matrices over
    either level share one code path. For m == 1 the tower is degenerate and
    the field is its own scalar level.

    Each level is K[x]/(f): K is the level below (F_q under F_(q^m), F_p
    under F_q, the integers mod p at the bottom) and f is the monic
    irreducible that :func:`wildgoppa.poly.find_irreducible` returns over K.
    Construction multiplies in ``poly`` over K, a batch of residues at a
    time, only to find the generator and fill exp: the generator is the
    smallest code of order ``order - 1``, and exp its powers, built by
    doubling (gen^(s+i) = gen^s gen^i is one batched product whose last
    entry is the next gen^s), which also tests each candidate. The add
    table (digitwise; the XOR of codes in characteristic 2) and the mul
    table (a take from exp twice over at log x + log y, in int32) are
    written into int16 a block of rows at a time, so no order x order
    temporary exists. After that the tables are the only arithmetic.

    Attributes of interest: ``p``, ``a``, ``m``, ``q = p**a``,
    ``order = q**m``, ``base_modulus_coeffs`` (the degree-a modulus over F_p,
    as a tuple of ints), ``top_modulus_coeffs`` (the degree-m modulus over
    F_q, as a tuple of F_q codes). A degree-1 modulus is x, ``(0, 1)``.
    """

    def __init__(self, p: int, a: int, m: int):
        if a < 1 or m < 1:
            raise ValueError("tower degrees must be >= 1")
        # sized before p is factored: p^(a m) >= 2^((bits of p - 1) a m) is
        # formed only when that bound is at most 2^64, so it stays small
        order = p ** (a * m) if (p.bit_length() - 1) * a * m <= 64 else None
        if p > 1 and (order is None or order > ORDER_CAP):
            raise ValueError(
                f"field with {order or f'{p}^{a * m}'} elements exceeds the "
                f"table-backed cap of {ORDER_CAP}"
            )
        if prime_factors(p) != [p]:
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.a = a
        self.m = m
        self.q = q = p**a
        self.order = order

        self.base_modulus_coeffs: tuple[int, ...] = (0, 1)
        self.top_modulus_coeffs: tuple[int, ...] = (0, 1)
        # Elements in batched passes are rows of d digits base r over the
        # level below, K; a prime field is rows of one int64 digit mod p.
        if a * m == 1:
            r, d, dt = p, 1, np.int64
            mul = lambda X, Y: X * Y % p
        else:
            from . import poly  # poly imports this module at load time

            K = build_tower(p, a, 1) if m > 1 else build_tower(p, 1, 1)
            f = poly.find_irreducible(K, m if m > 1 else a)
            if m > 1:
                self.base_modulus_coeffs = K.base_modulus_coeffs
                self.top_modulus_coeffs = f.coeffs
            else:
                self.base_modulus_coeffs = f.coeffs
            r, d, dt = K.order, int(f.degree), _TABLE_DTYPE
            f_low = np.array([f.coeffs[:-1]], dtype=dt)
            mul = lambda X, Y: poly.batch_mul_mod(K, X, Y, np.broadcast_to(f_low, X.shape))
        # A code is the element whose base-r digits are its coordinates.
        lift = lambda code: np.array(digits(code, r, d), dtype=dt)
        weights = r ** np.arange(d, dtype=np.int64)

        # The generator is the smallest code of order n1 = order - 1, and exp
        # its powers, found together by doubling: with gen^0 .. gen^s known,
        # gen^(s+1) .. gen^(2s) are gen^1 .. gen^s times gen^s, one batched
        # product whose last entry is the next gen^s. A candidate is dropped
        # as soon as 1 is among its powers; codes below r lie in K and have
        # smaller order when d > 1, so the candidates start at r.
        n1 = order - 1
        gen = 1 if n1 == 1 else 2 if d == 1 else r
        rows = np.zeros((n1, d), dtype=dt)
        rows[0, 0] = 1
        rows[1:2] = lift(gen)  # empty for F_2, whose only unit is 1
        s = 1
        while s < n1 - 1:
            top = min(2 * s, n1 - 1)
            rows[s + 1 : top + 1] = mul(rows[1 : top - s + 1], rows[s : s + 1])
            if (rows[s + 1 : top + 1] @ weights == 1).any():
                gen, s = gen + 1, 1
                if gen == order:
                    raise RuntimeError("no generator found; unreachable")
                rows[1] = lift(gen)
            else:
                s = top
        self.generator_code = gen
        # exp in int16 codes, log in int32: a sum of up to 2^21 logs fits
        exp = (rows @ weights).astype(_TABLE_DTYPE)
        log = np.zeros(order, dtype=np.int32)
        log[exp] = np.arange(n1)
        self._exp = exp
        self._log = log

        # The order x order tables, written straight into int16 a block of
        # rows at a time: add is digitwise (the XOR of codes when p == 2), and
        # mul[x, y] = gen^(log x + log y) is a take from exp twice over.
        codes = np.arange(order, dtype=_TABLE_DTYPE)
        add_t = np.empty((order, order), dtype=_TABLE_DTYPE)
        mul_t = np.empty((order, order), dtype=_TABLE_DTYPE)
        exp2 = np.concatenate([exp, exp])
        digs = digit_array(codes, p, a * m) if p > 2 else None
        step = max(1, _CHUNK_CELLS // order)
        for lo in range(0, order, step):
            block = slice(lo, lo + step)
            if p == 2:
                np.bitwise_xor(codes[block, None], codes, out=add_t[block])
            else:
                acc = add_t[block]
                acc[...] = 0
                for k in range(a * m):
                    dk = digs[:, k]
                    acc += (dk[block, None] + dk) % p * p**k
            np.take(exp2, log[block, None] + log, out=mul_t[block])
        mul_t[0, :] = 0
        mul_t[:, 0] = 0
        self.add_table = add_t
        self.mul_table = mul_t

        self.neg_table = mul_t[p - 1].copy()  # code p - 1 is -1

        inv = np.zeros(order, dtype=_TABLE_DTYPE)  # inv[0] is a dummy 0
        inv[exp] = exp[(-np.arange(n1)) % n1]
        self.inv_table = inv

        # x -> x^q, and the trace / norm down to F_q.
        frob = exp[(log * q) % n1]
        frob[0] = 0
        self.frobenius_table = frob

        tr = codes.copy()
        nrm = codes.copy()
        cur = codes.copy()
        for _ in range(m - 1):
            cur = frob[cur]
            tr = add_t[tr, cur]
            nrm = mul_t[nrm, cur]
        if not (tr < q).all() or not (nrm < q).all():
            raise RuntimeError("trace/norm left the scalar level; unreachable")
        self.trace_table = tr
        self.norm_table = nrm

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
    # on first use (the 2-d ones a row at a time): vectorised work never
    # reads them.
    _add_py = functools.cached_property(lambda self: _mirror(self.add_table))
    _mul_py = functools.cached_property(lambda self: _mirror(self.mul_table))
    _neg_py = functools.cached_property(lambda self: self.neg_table.tolist())
    _inv_py = functools.cached_property(lambda self: self.inv_table.tolist())

    @functools.cached_property
    def _lanes(self) -> tuple:
        """(dtype, mul, neg, add) in the lanes of ``linalg``'s elimination:
        uint8 when a lane value, a code or over a prime field a sum of two
        (up to 2p - 2), fits a byte, else uint16. ``add``, flat, only for an
        odd extension field, which adds by a take (else None)."""
        prime = self.a * self.m == 1
        top = 2 * self.p - 2 if prime else self.order - 1
        dt = np.uint8 if top <= 0xFF else np.uint16
        add = None if prime or self.p == 2 else self.add_table.astype(dt).ravel()
        return dt, self.mul_table.astype(dt), self.neg_table.astype(dt), add

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


@functools.lru_cache(maxsize=None)
def build_tower(p: int, a: int, m: int) -> Field:
    """The tower F_p < F_(p^a) < F_(p^(a*m)) with deterministic moduli.

    Instances are cached by (p, a, m); equality on Field compares those
    parameters, so a cache-bypassing rebuild still compares equal.
    """
    return Field(p, a, m)


def element_code(field: Field, c, what: str, where: str = "") -> int:
    """c as a code of ``field``: ValueError unless it is an int or numpy
    integer with 0 <= c < order. ``what`` names the argument in the message,
    and ``where`` the field (its repr when empty)."""
    if not isinstance(c, (int, np.integer)):
        raise ValueError(f"{what} {c!r} is not an integer")
    code = int(c)
    if not 0 <= code < field.order:
        raise ValueError(f"{what} {code} out of range for {where or repr(field)}")
    return code
