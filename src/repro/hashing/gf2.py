"""Arithmetic in the finite field GF(2^m).

The pairwise-independent hash family of Theorem 2.4 is instantiated over
GF(2^m) (Section 2.2 of the paper; [Vad12]).  Field elements are represented
as integers in ``[0, 2^m)`` whose bits are the coefficients of a polynomial
over GF(2); multiplication is carry-less multiplication modulo a fixed
irreducible polynomial of degree m.

The irreducible modulus is *searched* at construction time (lexicographically
smallest candidate) and certified with Rabin's irreducibility test, so there
is no dependence on a hand-maintained polynomial table being correct.
Instances are cached per ``m``.

Multiplication is provided both for Python ints and vectorized over numpy
arrays, which is what the derandomization engine uses to evaluate hash
values for every seed candidate at once.  Two vectorized kernels exist:

* **log/antilog tables** (default for ``m <= _LOG_TABLE_MAX_M``): discrete
  logarithms with respect to a generator of the multiplicative group are
  precomputed once per field (lazily, on first vector multiply), so an
  array multiply is one integer add plus one table gather — ``exp[log[a] +
  log[b]]`` with zero operands masked.  The antilog table is doubled in
  length so the exponent sum never needs a ``mod (2^m - 1)`` reduction.
* **shift-and-add "Russian peasant"** (``mul_vec_peasant``): O(m) masked
  XOR passes per array multiply.  This is the fallback for large ``m``
  (table memory is O(2^m)) and the reference the tables are property-tested
  against.

Both kernels are exact integer arithmetic over the same modulus, so they
agree bit-for-bit on every operand pair — switching kernels can never
change a hash value, a seed choice, or a coloring downstream.

:meth:`GF2m.power_tables` returns the discrete-log order itself (g^i and
log).  The seed sweep enumerates s1 in that order, whichever multiply
kernel is selected: up to ``_LOG_TABLE_MAX_M`` it reads the shared tables,
above it the order is built afresh for each call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["GF2m", "poly_mul_mod", "is_irreducible", "find_irreducible"]

#: Largest field degree for which the log/antilog tables are built by
#: default.  The tables take O(2^m) int64 entries (24 MiB at m = 20);
#: beyond this the peasant kernel is used.
_LOG_TABLE_MAX_M = 20

#: Module-level memo of the log/antilog tables keyed by ``(m, modulus)``.
#: The tables are a pure function of the field parameters, but only
#: :func:`get_field` instances were shared — every directly constructed
#: ``GF2m`` (repeated small solves, benchmarks flipping ``use_tables``)
#: paid the full generator search and table fill again.  Entries are read-only arrays shared by
#: every instance of the same field.
_TABLE_CACHE: dict = {}


def _poly_mul(a: int, b: int) -> int:
    """Carry-less (polynomial) multiplication of two GF(2)[x] polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def _poly_mod(a: int, modulus: int) -> int:
    """Reduce polynomial ``a`` modulo ``modulus`` over GF(2)."""
    deg_m = modulus.bit_length() - 1
    while a.bit_length() - 1 >= deg_m:
        a ^= modulus << (a.bit_length() - 1 - deg_m)
    return a


def poly_mul_mod(a: int, b: int, modulus: int) -> int:
    """``a * b mod modulus`` in GF(2)[x]."""
    return _poly_mod(_poly_mul(a, b), modulus)


def _poly_gcd(a: int, b: int) -> int:
    """GCD of two polynomials over GF(2)."""
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _poly_pow_x(exponent_log2: int, modulus: int) -> int:
    """Compute ``x^(2^exponent_log2) mod modulus`` by repeated squaring.

    Squaring a GF(2) polynomial spreads its bits: ``(Σ c_i x^i)^2 =
    Σ c_i x^{2i}``.
    """
    value = 0b10  # the polynomial x
    for _ in range(exponent_log2):
        spread = 0
        v = value
        i = 0
        while v:
            if v & 1:
                spread |= 1 << (2 * i)
            v >>= 1
            i += 1
        value = _poly_mod(spread, modulus)
    return value


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(poly: int) -> bool:
    """Rabin's irreducibility test for a degree-m polynomial over GF(2).

    ``poly`` is irreducible iff ``x^(2^m) ≡ x (mod poly)`` and for every
    prime divisor q of m, ``gcd(x^(2^(m/q)) - x, poly) = 1``.
    """
    m = poly.bit_length() - 1
    if m <= 0:
        return False
    if _poly_pow_x(m, poly) != _poly_mod(0b10, poly):
        return False
    for q in _prime_factors(m):
        h = _poly_pow_x(m // q, poly) ^ _poly_mod(0b10, poly)
        if _poly_gcd(poly, h) != 1:
            return False
    return True


def find_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree ``m``."""
    if m < 1:
        raise ValueError(f"field degree must be >= 1, got {m}")
    for candidate in range(1 << m, 1 << (m + 1)):
        if candidate & 1 == 0:
            continue  # divisible by x
        if is_irreducible(candidate):
            return candidate
    raise RuntimeError(f"no irreducible polynomial of degree {m} found")  # pragma: no cover


class GF2m:
    """The field GF(2^m) with scalar and numpy-vectorized operations."""

    def __init__(self, m: int, use_tables: bool | None = None):
        if not (1 <= m <= 48):
            raise ValueError(f"supported field degrees are 1..48, got {m}")
        self.m = m
        self.order = 1 << m
        self.modulus = find_irreducible(m)
        # Reduction constant: x^m ≡ modulus - x^m (mod modulus), i.e. the low
        # m bits of the modulus.  Used by the vectorized multiply.
        self._reduction = self.modulus ^ (1 << m)
        #: Whether vector multiplies go through the log/antilog tables.
        #: ``None`` selects automatically by degree; both kernels are exact
        #: integer arithmetic and agree bit-for-bit, so this is a speed
        #: knob only (benchmarks flip it to time the reference kernel).
        if use_tables and m > _LOG_TABLE_MAX_M:
            raise ValueError(
                f"log/antilog tables need O(2^m) memory and are only "
                f"supported for m <= {_LOG_TABLE_MAX_M}, got m={m}"
            )
        self.use_tables = (
            m <= _LOG_TABLE_MAX_M if use_tables is None else bool(use_tables)
        )
        self._log: np.ndarray | None = None
        self._exp: np.ndarray | None = None
        self.generator: int | None = None

    # ------------------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        """Scalar field multiplication."""
        self._check(a)
        self._check(b)
        return poly_mul_mod(a, b, self.modulus)

    def add(self, a: int, b: int) -> int:
        """Field addition (XOR)."""
        self._check(a)
        self._check(b)
        return a ^ b

    def pow(self, a: int, e: int) -> int:
        """Field exponentiation by squaring."""
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        """Multiplicative inverse (a != 0), via a^(2^m - 2)."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        return self.pow(a, self.order - 2)

    def _check(self, a: int) -> None:
        if not (0 <= a < self.order):
            raise ValueError(f"{a} is not an element of GF(2^{self.m})")

    # ------------------------------------------------------------------
    def _find_generator(self) -> int:
        """Smallest generator of the multiplicative group GF(2^m)^*.

        An element g generates the cyclic group of order 2^m - 1 iff
        ``g^((2^m-1)/q) != 1`` for every prime divisor q of 2^m - 1.
        """
        group_order = self.order - 1
        if group_order == 1:
            return 1
        factors = _prime_factors(group_order)
        for g in range(2, self.order):
            if all(self.pow(g, group_order // q) != 1 for q in factors):
                return g
        raise RuntimeError(
            f"no generator found for GF(2^{self.m})"
        )  # pragma: no cover

    def _build_tables(self) -> tuple:
        """``(g, exp, log)``: the smallest generator g, ``exp[i] = g^i`` for
        i in [0, 2^m - 1) and ``log[exp[i]] = i``.  The exp table is filled
        by repeated block doubling (``exp[k:2k] = exp[:k] · g^k``) using the
        peasant kernel, so the tables inherit its exactness."""
        group_order = self.order - 1
        g = self._find_generator()
        exp = np.empty(group_order, dtype=np.int64)
        exp[0] = 1
        filled = 1
        power = g  # g^filled, maintained across doublings
        while filled < group_order:
            take = min(filled, group_order - filled)
            exp[filled:filled + take] = self.mul_vec_peasant(
                np.full(1, power, dtype=np.int64), exp[:take]
            )
            filled += take
            if filled < group_order:
                power = self.mul(power, power)
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(group_order, dtype=np.int64)
        return g, exp, log

    def _ensure_tables(self) -> None:
        """Build the discrete-log / antilog tables (lazily, once).

        ``exp[i] = g^i`` for i in [0, 2·(2^m - 1)) — doubled so the index
        ``log[a] + log[b] <= 2·(2^m - 2)`` never needs a modular reduction —
        and ``log[exp[i]] = i`` for i in [0, 2^m - 1).
        """
        if self._exp is not None:
            return
        # Re-checked here (not just in __init__) because `use_tables` is a
        # plain mutable flag the benchmarks flip at runtime.
        if self.m > _LOG_TABLE_MAX_M:
            raise ValueError(
                f"log/antilog tables need O(2^m) memory and are only "
                f"supported for m <= {_LOG_TABLE_MAX_M}, got m={self.m}"
            )
        cached = _TABLE_CACHE.get((self.m, self.modulus))
        if cached is None:
            g, exp, log = self._build_tables()
            exp = np.concatenate([exp, exp])
            # Shared read-only across all instances of this field — mul_vec
            # only ever gathers from the tables.
            exp.setflags(write=False)
            log.setflags(write=False)
            cached = _TABLE_CACHE[(self.m, self.modulus)] = (g, exp, log)
        self.generator, self._exp, self._log = cached

    def power_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(exp, log)`` with ``exp[i] = g^i`` for i in [0, 2^m - 1) and
        ``log[exp[i]] = i``: the discrete-log order of GF(2^m)^*.

        For ``m <= _LOG_TABLE_MAX_M`` these are views of the shared tables,
        whatever ``use_tables`` says (the multiply kernel is a separate
        choice); above it they are built afresh and not kept, O(2^m) each.
        """
        if self.m > _LOG_TABLE_MAX_M:
            self.generator, exp, log = self._build_tables()
            return exp, log
        self._ensure_tables()
        return self._exp[:self.order - 1], self._log

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise field multiplication of numpy int64 arrays.

        Dispatches to the log/antilog tables (one add + one gather) when
        ``use_tables`` is set, else to :meth:`mul_vec_peasant`; the two
        kernels agree bit-for-bit on every operand pair.
        """
        if not self.use_tables:
            return self.mul_vec_peasant(a, b)
        self._ensure_tables()
        a = np.atleast_1d(np.asarray(a, dtype=np.int64)) % self.order
        b = np.atleast_1d(np.asarray(b, dtype=np.int64)) % self.order
        a, b = np.broadcast_arrays(a, b)
        out = self._exp[self._log[a] + self._log[b]]
        out[(a == 0) | (b == 0)] = 0
        return out

    def mul_vec_peasant(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Reference shift-and-add kernel (m masked XOR passes).

        Shift-and-add over the m bits of ``b`` with modular reduction folded
        into every shift of ``a``, so intermediate values stay below 2^m and
        int64 never overflows (m <= 48).
        """
        a = np.atleast_1d(np.asarray(a, dtype=np.int64)) % self.order
        b = np.atleast_1d(np.asarray(b, dtype=np.int64)) % self.order
        a, b = np.broadcast_arrays(a, b)
        acc = np.zeros(a.shape, dtype=np.int64)
        shifted = a.copy()
        high_bit = 1 << (self.m - 1)
        for bit in range(self.m):
            take = ((b >> bit) & 1).astype(bool)
            acc[take] ^= shifted[take]
            if bit + 1 < self.m:
                overflow = (shifted & high_bit) != 0
                shifted = (shifted << 1) & (self.order - 1)
                shifted[overflow] ^= self._reduction
        return acc

    def mul_outer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Outer-product multiply: ``out[i, j] = a[i] ⊙ b[j]``.

        On the table path the discrete logs are gathered on the 1-D
        operands *before* broadcasting, so the (len(a) × len(b)) matrix
        costs one broadcast add and one gather instead of two full-matrix
        log lookups.
        """
        a = np.atleast_1d(np.asarray(a, dtype=np.int64)) % self.order
        b = np.atleast_1d(np.asarray(b, dtype=np.int64)) % self.order
        if not self.use_tables:
            return self.mul_vec_peasant(a[:, None], b[None, :])
        self._ensure_tables()
        out = self._exp[self._log[a][:, None] + self._log[b][None, :]]
        out[a == 0, :] = 0
        out[:, b == 0] = 0
        return out

    def mul_scalar_vec(self, scalar: int, values: np.ndarray) -> np.ndarray:
        """Multiply every array element by a fixed field scalar."""
        self._check(scalar)
        return self.mul_vec(np.full(1, scalar, dtype=np.int64), values)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GF2m(m={self.m}, modulus={bin(self.modulus)})"


@lru_cache(maxsize=None)
def get_field(m: int) -> GF2m:
    """Cached field instance for degree ``m``."""
    return GF2m(m)
