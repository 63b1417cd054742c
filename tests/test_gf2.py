"""GF(2^m) arithmetic: field axioms, irreducibility, vectorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.gf2 as gf2
from repro.hashing.gf2 import GF2m, find_irreducible, get_field, is_irreducible


class TestIrreducibility:
    def test_known_irreducible(self):
        assert is_irreducible(0b111)  # x^2 + x + 1
        assert is_irreducible(0b1011)  # x^3 + x + 1
        assert is_irreducible(0b10011)  # x^4 + x + 1

    def test_known_reducible(self):
        assert not is_irreducible(0b101)  # x^2 + 1 = (x+1)^2
        assert not is_irreducible(0b110)  # divisible by x
        assert not is_irreducible(0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)

    @pytest.mark.parametrize("m", list(range(1, 17)))
    def test_find_irreducible_has_right_degree(self, m):
        poly = find_irreducible(m)
        assert poly.bit_length() - 1 == m
        assert is_irreducible(poly)

    def test_count_of_degree_4_irreducibles(self):
        # There are exactly 3 irreducible polynomials of degree 4 over GF(2).
        count = sum(
            1 for p in range(1 << 4, 1 << 5) if is_irreducible(p)
        )
        assert count == 3


class TestFieldAxioms:
    @pytest.fixture(params=[2, 3, 5, 8])
    def field(self, request):
        return get_field(request.param)

    def test_multiplicative_identity(self, field):
        for a in range(field.order):
            assert field.mul(a, 1) == a

    def test_zero_annihilates(self, field):
        for a in range(field.order):
            assert field.mul(a, 0) == 0

    def test_commutativity_exhaustive_small(self):
        field = get_field(4)
        for a in range(16):
            for b in range(16):
                assert field.mul(a, b) == field.mul(b, a)

    def test_associativity_exhaustive_small(self):
        field = get_field(3)
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    assert field.mul(field.mul(a, b), c) == field.mul(
                        a, field.mul(b, c)
                    )

    def test_distributivity_exhaustive_small(self):
        field = get_field(3)
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)

    def test_inverses(self, field):
        for a in range(1, field.order):
            assert field.mul(a, field.inv(a)) == 1

    def test_multiplication_is_a_bijection(self, field):
        for a in range(1, field.order):
            images = {field.mul(a, b) for b in range(field.order)}
            assert images == set(range(field.order))

    def test_pow_matches_repeated_mul(self):
        field = get_field(5)
        a = 7
        acc = 1
        for e in range(10):
            assert field.pow(a, e) == acc
            acc = field.mul(acc, a)


class TestLogTables:
    """Table kernel vs peasant kernel vs scalar reference, bit-for-bit."""

    @given(
        st.integers(min_value=1, max_value=13),
        st.integers(min_value=0, max_value=2**31),
        st.lists(
            st.integers(min_value=0, max_value=2**31), min_size=1, max_size=60
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_table_equals_peasant_equals_scalar(self, m, seed, values):
        from repro.hashing.gf2 import poly_mul_mod

        field = get_field(m)
        rng = np.random.default_rng(seed)
        a = np.array([v % field.order for v in values], dtype=np.int64)
        b = rng.integers(0, field.order, size=len(a)).astype(np.int64)
        table = field.mul_vec(a, b)
        peasant = field.mul_vec_peasant(a, b)
        assert np.array_equal(table, peasant)
        for x, y, got in zip(a, b, table):
            assert got == poly_mul_mod(int(x), int(y), field.modulus)

    def test_mul_outer_matches_pairwise(self):
        field = get_field(7)
        rng = np.random.default_rng(5)
        a = rng.integers(0, field.order, size=30).astype(np.int64)
        b = rng.integers(0, field.order, size=40).astype(np.int64)
        outer = field.mul_outer(a, b)
        assert outer.shape == (30, 40)
        assert np.array_equal(outer, field.mul_vec_peasant(a[:, None], b[None, :]))

    def test_zero_operands_masked(self):
        field = get_field(6)
        a = np.array([0, 5, 0, 9], dtype=np.int64)
        b = np.array([7, 0, 0, 3], dtype=np.int64)
        out = field.mul_vec(a, b)
        assert out[0] == out[1] == out[2] == 0
        assert out[3] == field.mul(9, 3)
        outer = field.mul_outer(a, b)
        assert (outer[0] == 0).all() and (outer[:, 1] == 0).all()

    def test_generator_has_full_order(self):
        for m in (2, 4, 6, 10):
            field = GF2m(m)
            field._ensure_tables()
            g = field.generator
            seen = set()
            x = 1
            for _ in range(field.order - 1):
                seen.add(x)
                x = field.mul(x, g)
            assert x == 1 and len(seen) == field.order - 1

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_power_tables_are_the_discrete_log_order(self, m):
        field = GF2m(m)
        exp, log = field.power_tables()
        g = field.generator
        assert exp.tolist() == [field.pow(g, i) for i in range(field.order - 1)]
        assert np.array_equal(log[exp], np.arange(field.order - 1))
        # The shared tables back them below the cap.
        assert np.shares_memory(exp, field._exp)

    def test_power_tables_above_the_cap_are_built_and_not_kept(self, monkeypatch):
        monkeypatch.setattr(gf2, "_LOG_TABLE_MAX_M", 4)
        field = GF2m(6)
        assert not field.use_tables
        exp, log = field.power_tables()
        assert field._exp is None and field._log is None
        g = field.generator
        assert exp.tolist() == [field.pow(g, i) for i in range(field.order - 1)]
        assert np.array_equal(log[exp], np.arange(field.order - 1))

    def test_fallback_boundary(self):
        from repro.hashing.gf2 import _LOG_TABLE_MAX_M

        below = GF2m(_LOG_TABLE_MAX_M - 15)  # small, cheap to build
        assert below.use_tables
        above = GF2m(_LOG_TABLE_MAX_M + 1)
        assert not above.use_tables
        # The large-m fallback still agrees with the scalar reference.
        rng = np.random.default_rng(0)
        a = rng.integers(0, above.order, size=50).astype(np.int64)
        b = rng.integers(0, above.order, size=50).astype(np.int64)
        out = above.mul_vec(a, b)
        for x, y, got in zip(a, b, out):
            assert got == above.mul(int(x), int(y))

    def test_table_opt_in_above_cap_fails_fast(self):
        from repro.hashing.gf2 import _LOG_TABLE_MAX_M

        with pytest.raises(ValueError):
            GF2m(_LOG_TABLE_MAX_M + 10, use_tables=True)
        # Flipping the mutable flag after construction must not bypass
        # the memory cap either.
        field = GF2m(_LOG_TABLE_MAX_M + 10)
        field.use_tables = True
        with pytest.raises(ValueError):
            field.mul_vec(np.array([1], dtype=np.int64), np.array([1], dtype=np.int64))

    def test_explicit_table_opt_out(self):
        forced = GF2m(8, use_tables=False)
        assert not forced.use_tables
        rng = np.random.default_rng(1)
        a = rng.integers(0, forced.order, size=100).astype(np.int64)
        b = rng.integers(0, forced.order, size=100).astype(np.int64)
        assert np.array_equal(forced.mul_vec(a, b), get_field(8).mul_vec(a, b))


class TestVectorized:
    @given(
        st.integers(min_value=2, max_value=12),
        st.lists(st.integers(min_value=0, max_value=4000), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=4000),
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_vec_matches_scalar(self, m, values, scalar):
        field = get_field(m)
        xs = np.array([v % field.order for v in values], dtype=np.int64)
        s = scalar % field.order
        vec = field.mul_scalar_vec(s, xs)
        for x, got in zip(xs, vec):
            assert got == field.mul(s, int(x))

    def test_mul_vec_broadcasting(self):
        field = get_field(6)
        a = np.arange(8, dtype=np.int64)[:, None]
        b = np.arange(5, dtype=np.int64)[None, :]
        out = field.mul_vec(a, b)
        assert out.shape == (8, 5)
        assert out[3, 4] == field.mul(3, 4)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            GF2m(0)
        with pytest.raises(ValueError):
            GF2m(64)

    def test_scalar_range_checked(self):
        field = get_field(4)
        with pytest.raises(ValueError):
            field.mul(16, 1)
        with pytest.raises(ZeroDivisionError):
            field.inv(0)
