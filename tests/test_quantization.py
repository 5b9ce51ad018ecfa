from fractions import Fraction

import numpy as np
import pytest

from acbound.entropy_model import ComponentKind, ParameterError
from acbound.quantization import (
    K1_LUMINANCE,
    annex_k_table,
    coefficient_size,
    load_quant_table,
    pow2_table,
    quantize,
    quantized_sizes,
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
        assert q.q00 == 1

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
            table = QuantTable(ComponentKind.LUMINANCE, (2**e,) * 63, q00=1)
            assert set(pow2_table(table)) == {e}

    def test_121_maps_to_6(self):
        table = QuantTable(ComponentKind.LUMINANCE, (121,) * 63, q00=1)
        assert set(pow2_table(table)) == {6}

    def test_pow2_never_exceeds_factor(self, component):
        for sf in SF_GRID:
            q = scaled_annex_k(component, sf)
            c = pow2_table(q)
            assert all(2 ** e <= v for e, v in zip(c, q.q))

    def test_rejects_large_factors(self):
        table = QuantTable(ComponentKind.LUMINANCE, (122,) * 63, q00=1)
        with pytest.raises(ParameterError):
            pow2_table(table)


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


class TestCoefficientSize:
    @pytest.mark.parametrize("a,s", [(0, 0), (-1, 1), (1, 1), (2, 2), (255, 8),
                                     (256, 9), (-1023, 10), (2047, 11)])
    def test_values(self, a, s):
        assert coefficient_size(a) == s

    def test_range_error(self):
        with pytest.raises(ParameterError):
            coefficient_size(2048)


class TestQuantizedSizes:
    def test_worked_example_reference_sizes(self):
        c = pow2_table(scaled_annex_k(ComponentKind.CHROMINANCE, 1))
        sizes = quantized_sizes([8] * 63, c)
        assert sizes.count(4) == 7
        assert sizes.count(3) == 3
        assert sizes.count(2) == 53

    def test_zero_vector(self):
        c = pow2_table(scaled_annex_k(ComponentKind.LUMINANCE, 1))
        assert quantized_sizes([0] * 63, c) == [0] * 63

    def test_identity_when_exponents_zero(self):
        c = pow2_table(scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 64)))
        assert quantized_sizes([8] * 63, c) == [8] * 63

    def test_reference_floor_of_two(self, component):
        for sf in SF_GRID:
            c = pow2_table(scaled_annex_k(component, sf))
            assert min(quantized_sizes([8] * 63, c)) >= 2


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


def table_text(order, values):
    """A table file: the order header, then the 64 integers 8 per line."""
    rows = np.reshape(values, (8, 8)).tolist()
    return "\n".join([f"order: {order}"] + [" ".join(map(str, row)) for row in rows]) + "\n"


class TestTableFiles:
    def test_round_trip_both_orders(self, tmp_path, component):
        q = scaled_annex_k(component, Fraction(1, 2))
        zigzag = [q.q00, *q.q]
        for order, values in (("zigzag", zigzag), ("raster", zigzag_unscan(zigzag))):
            path = tmp_path / f"table-{order}.txt"
            path.write_text(table_text(order, values))
            loaded = load_quant_table(path, component)
            assert loaded.q == q.q
            assert loaded.q00 == q.q00

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(" ".join(["1"] * 64))
        with pytest.raises(ParameterError):
            load_quant_table(path, ComponentKind.LUMINANCE)

    def test_annex_k_raster_matches_source(self, tmp_path):
        q = annex_k_table(ComponentKind.LUMINANCE)
        path = tmp_path / "k1.txt"
        path.write_text(table_text("raster", K1_LUMINANCE))
        loaded = load_quant_table(path, ComponentKind.LUMINANCE)
        assert (loaded.q00, loaded.q) == (q.q00, q.q)
        # the zigzag walk of the source's top-left corner
        assert loaded.q[:9] == (11, 12, 14, 12, 10, 16, 14, 13, 14)
