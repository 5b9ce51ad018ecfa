from fractions import Fraction

import numpy as np
import pytest

from acbound.bound_engine import Refinement, reference_length, upper_limit
from acbound.entropy_model import ComponentKind, ParameterError
from acbound.quantization import (
    K1_LUMINANCE,
    K2_CHROMINANCE,
    annex_k_table,
    pow2_table,
    quantize,
    scale_table,
    scaled_annex_k,
    QuantTable,
)
from references import zigzag_unscan

SF_GRID = [Fraction(s) for s in ("1/64", "1/16", "1/8", "1/6", "1/4", "1/2", "1")]


class TestScaleTable:
    def test_finest_scale_all_ones(self, component):
        q = scaled_annex_k(component, Fraction(1, 64))
        assert set(q.q) == {1}

    def test_identity_scale(self, component):
        base = annex_k_table(component)
        assert scale_table(base, 1).q == base.q

    def test_exact_arithmetic(self):
        base = annex_k_table(ComponentKind.LUMINANCE)
        half = scale_table(base, Fraction(1, 2))
        assert half.factor(1) == base.factor(1) // 2
        # 1/6 of 99 must truncate to 16, not round to 17
        sixth = scale_table(annex_k_table(ComponentKind.CHROMINANCE), Fraction(1, 6))
        assert sixth.q[-1] == 16

    @pytest.mark.parametrize("sf", ["1/128", "0", "2", "65/64"])
    def test_rejects_out_of_range(self, sf):
        base = annex_k_table(ComponentKind.LUMINANCE)
        with pytest.raises(ParameterError):
            scale_table(base, Fraction(sf))

    @pytest.mark.parametrize("sf", [Fraction(1, 10**5000), Fraction(10**5000 + 1, 10**5000)])
    def test_refuses_a_long_fraction_without_showing_it(self, sf):
        # str() of these would pass int's 4300-digit limit and raise ValueError
        base = annex_k_table(ComponentKind.LUMINANCE)
        with pytest.raises(ParameterError,
                           match=r"^scale factor \(over 64 bits\) outside \[1/64, 1\]$"):
            scale_table(base, sf)

    def test_rejects_base_entries_above_255(self):
        base = QuantTable(ComponentKind.LUMINANCE, (256,) + (1,) * 62)
        with pytest.raises(ParameterError, match="^base table entries must lie in 1..255$"):
            scale_table(base, 1)

    def test_records_sf(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 4))
        assert q.sf == Fraction(1, 4)


class TestPow2Table:
    def test_worked_example_exponents(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        c = pow2_table(q)
        for k in range(1, 64):
            if k in (1, 2, 3, 4, 5, 7, 8):
                assert c[k - 1] == 4
            elif k in (6, 9, 12):
                assert c[k - 1] == 5
            else:
                assert c[k - 1] == 6

    def test_all_ones(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 64))
        assert set(pow2_table(q)) == {0}

    def test_no_float_log_boundaries(self):
        # every exact power of two must map to its own exponent
        for e in range(7):
            table = QuantTable(ComponentKind.LUMINANCE, (2**e,) * 63)
            assert set(pow2_table(table)) == {e}

    def test_121_maps_to_6(self):
        table = QuantTable(ComponentKind.LUMINANCE, (121,) * 63)
        assert set(pow2_table(table)) == {6}

    def test_pow2_never_exceeds_factor(self, component):
        for sf in SF_GRID:
            q = scaled_annex_k(component, sf)
            c = pow2_table(q)
            assert all(2 ** e <= v for e, v in zip(c, q.q))

    def test_rejects_large_factors(self):
        # every factor of 64..127 has exponent 6, and a limit refuses 128,
        # whose exponent is 7, through its exponent check alone
        def table(v):
            return QuantTable(ComponentKind.LUMINANCE, (v,) * 63)

        best = Refinement.MAXCONFIG
        assert upper_limit(ComponentKind.LUMINANCE, table(64), best).limit == 313
        for v in (122, 127):
            assert set(pow2_table(table(v))) == {6}
            assert upper_limit(ComponentKind.LUMINANCE, table(v), best).limit == 313
        assert set(pow2_table(table(128))) == {7}
        with pytest.raises(ParameterError,
                           match=r"^exponents must lie in 0\.\.6 \(reference sizes >= 2\)$"):
            upper_limit(ComponentKind.LUMINANCE, table(128), best)

    def test_numpy_integer_factors_are_stored_as_ints(self):
        table = QuantTable(ComponentKind.LUMINANCE, tuple(np.full(63, 3)))
        assert all(type(v) is int for v in table.q)
        assert table == QuantTable(ComponentKind.LUMINANCE, (3,) * 63)
        assert set(pow2_table(table)) == {1}
        assert upper_limit(ComponentKind.LUMINANCE, table).limit == upper_limit(
            ComponentKind.LUMINANCE, QuantTable(ComponentKind.LUMINANCE, (3,) * 63)).limit

    @pytest.mark.parametrize("q", [(1.5,) * 63, (3.0,) * 63, ("3",) * 63])
    def test_rejects_non_integer_factors(self, q):
        with pytest.raises(ParameterError, match="must be integers"):
            QuantTable(ComponentKind.LUMINANCE, q)

    @pytest.mark.parametrize("q, match", [
        ((1,) * 62, "^expected 63 AC factors, got 62$"),
        ((0,) + (1,) * 62, "^quantization factors must be >= 1$"),
    ], ids=["62-factors", "ac-factor-0"])
    def test_rejects_factor_counts_and_zeros(self, q, match):
        with pytest.raises(ParameterError, match=match):
            QuantTable(ComponentKind.LUMINANCE, q)


class TestInterdependenceRelations:
    def test_factor_and_exponent_relations_on_sf_grid(self, component):
        # preceding factors never exceed twice the current one (plus one)
        base = annex_k_table(component)
        for i in range(1, 65):
            sf = Fraction(i, 64)
            q = scale_table(base, sf)
            c = pow2_table(q)
            for k in range(2, 64):
                for l in range(1, k):
                    assert q.factor(l) <= 2 * q.factor(k) + 1, (sf, l, k)
                    assert c[l - 1] <= c[k - 1] + 1, (sf, l, k)


class TestQuantize:
    @pytest.mark.parametrize("value,q,expected", [
        (-17, 10, -1),
        (255, 1, 255),
        (127.9, 16, 7),
        (-127.9, 16, -7),
        (Fraction(99, 2), 2, 24),
        (15, 2, 7),
    ])
    def test_truncation(self, value, q, expected):
        assert quantize(value, q) == expected

    def test_rejects_bad_factor(self):
        with pytest.raises(ParameterError):
            quantize(1, 0)


def reference_sizes(component, sf):
    """The quantized sizes of the size-8 reference under the reduced table."""
    return reference_length(component, pow2_table(scaled_annex_k(component, sf))).sbar


class TestQuantizedSizes:
    def test_worked_example_reference_sizes(self):
        sizes = reference_sizes(ComponentKind.CHROMINANCE, 1)
        assert sizes.count(4) == 7
        assert sizes.count(3) == 3
        assert sizes.count(2) == 53

    def test_identity_when_exponents_zero(self):
        assert reference_sizes(ComponentKind.LUMINANCE, Fraction(1, 64)) == (8,) * 63

    def test_reference_floor_of_two(self, component):
        for sf in SF_GRID:
            assert min(reference_sizes(component, sf)) >= 2


class TestReducedConstruction:
    def test_pow2_reduction_preserves_quantized_values(self, component, rng):
        # scaling a reduced coefficient by Q2/Q keeps its quantized value
        for sf in (Fraction(1), Fraction(1, 6), Fraction(1, 2)):
            q = scaled_annex_k(component, sf)
            c = pow2_table(q)
            for _ in range(2000):
                k = int(rng.integers(1, 64))
                s = int(rng.integers(1, 11))
                coeff = q.factor(k) * 2 ** (s - 1)
                scaled = Fraction(2 ** c[k - 1], q.factor(k)) * coeff
                assert quantize(coeff, q.factor(k)) == quantize(scaled, 2 ** c[k - 1])


class TestAnnexK:
    @pytest.mark.parametrize("component, raster", [
        (ComponentKind.LUMINANCE, K1_LUMINANCE), (ComponentKind.CHROMINANCE, K2_CHROMINANCE),
    ], ids=["lum", "chroma"])
    def test_zigzag_layout_matches_source(self, component, raster):
        q = annex_k_table(component)
        # the DC factor, which no limit reads, is taken from the source
        assert zigzag_unscan([raster[0], *q.q]).ravel().tolist() == list(raster)

    def test_luminance_walks_the_top_left_corner(self):
        # the zigzag walk of the source's top-left corner
        q = annex_k_table(ComponentKind.LUMINANCE)
        assert q.q[:9] == (11, 12, 14, 12, 10, 16, 14, 13, 14)
