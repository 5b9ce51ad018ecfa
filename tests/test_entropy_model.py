import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acbound.entropy_model import (
    AC_POSITIONS,
    MAX_RUNLENGTH,
    MAX_SIZE,
    ComponentKind,
    ParameterError,
    crude_bound,
    sequence_length,
    symbolize,
    table_for,
)
from references import ac_bits_from_sizes, desymbolize

CHROMA = table_for(ComponentKind.CHROMINANCE)
LUM = table_for(ComponentKind.LUMINANCE)


class TestCodeLength:
    def test_known_cells(self):
        assert CHROMA.code_length(4, 1) == 7
        assert CHROMA.code_length(0, 2) == 5
        assert CHROMA.code_length(1, 3) == 11
        assert CHROMA.code_length(2, 2) == 10
        assert CHROMA.code_length(2, 3) == 13
        assert LUM.code_length(0, 2) == 4
        assert LUM.code_length(0, 8) == 18
        assert LUM.code_length(0, 7) == 15
        assert CHROMA.code_length(0, 8) == 17
        assert CHROMA.code_length(0, 7) == 14

    @pytest.mark.parametrize("table", [LUM, CHROMA])
    def test_lengths_array(self, table):
        lengths = table.lengths
        assert lengths.dtype == np.int16
        assert lengths.shape == (MAX_RUNLENGTH + 1, MAX_SIZE + 1)
        assert not lengths[:, 0].any()
        for r in range(MAX_RUNLENGTH + 1):
            for s in range(1, MAX_SIZE + 1):
                assert lengths[r, s] == table.code_length(r, s)
        with pytest.raises(ValueError):
            lengths[0, 1] = 0

    def test_eob_and_zrl(self):
        assert LUM.eob_bits == 4
        assert CHROMA.eob_bits == 2
        assert LUM.zrl_bits == 11
        assert CHROMA.zrl_bits == 10

    def test_zrl_extension(self):
        # 20 zeros then size 1: one 16-zero extension plus symbol (4, 1)
        assert CHROMA.code_length(20, 1) == 10 + 7
        assert CHROMA.code_length(36, 1) == 2 * 10 + 7
        assert LUM.code_length(62, 10) == 3 * 11 + LUM.grid[9][14]

    def test_size_monotonicity(self):
        for table in (CHROMA, LUM):
            for r in range(16):
                column = [table.grid[s - 1][r] for s in range(1, 11)]
                assert all(a < b for a, b in zip(column, column[1:])), (table.component, r)

    def test_all_cells_at_most_26(self):
        for table in (CHROMA, LUM):
            assert max(max(row) for row in table.grid) <= 26

    def test_runlength_weakly_monotone(self):
        for table in (CHROMA, LUM):
            for s in range(1, 11):
                row = table.grid[s - 1]
                assert all(a <= b for a, b in zip(row, row[1:]))

    @pytest.mark.parametrize("r,s", [(-1, 1), (63, 1), (0, 0), (0, 11)])
    def test_out_of_range(self, r, s):
        with pytest.raises(ParameterError):
            CHROMA.code_length(r, s)


class TestSymbolize:
    def test_single_coefficient_after_run(self):
        sizes = [0, 0, 0, 0, 1] + [0] * 58
        seq = symbolize(sizes)
        assert seq.symbols == ((4, 1),)
        assert seq.has_eob

    def test_all_zero(self):
        seq = symbolize([0] * 63)
        assert seq.symbols == ()
        assert seq.has_eob

    def test_all_nonzero(self):
        seq = symbolize([1] * 63)
        assert len(seq.symbols) == 63
        assert all(r == 0 for r, _ in seq.symbols)
        assert not seq.has_eob

    def test_long_run_kept_single(self):
        sizes = [0] * 62 + [5]
        seq = symbolize(sizes)
        assert seq.symbols == ((62, 5),)
        assert not seq.has_eob

    @given(st.lists(st.integers(0, 10), min_size=63, max_size=63))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, sizes):
        assert desymbolize(symbolize(sizes)) == sizes

    @pytest.mark.parametrize("size", [1.5, 1.0, "1", None])
    def test_rejects_a_non_integer_size(self, size):
        with pytest.raises(ParameterError):
            symbolize([size] + [0] * 62)

    @pytest.mark.parametrize("sizes, match", [
        ([0] * 62, "^expected 63 sizes, got 62$"),
        ([11] + [0] * 62, "^size 11 outside 0..10$"),
    ], ids=["62-sizes", "size-11"])
    def test_rejects_a_vector_outside_the_contract(self, sizes, match):
        with pytest.raises(ParameterError, match=match):
            symbolize(sizes)

    def test_numpy_integer_sizes(self):
        sizes = np.array([3, 0, 0, 7] + [0] * 59, dtype=np.uint8)
        seq = symbolize(sizes)
        assert seq.symbols == ((0, 3), (2, 7))
        assert seq.has_eob
        assert sequence_length(LUM, seq) == sequence_length(LUM, symbolize(sizes.tolist()))


class TestSequenceLength:
    def test_empty_block(self):
        assert sequence_length(CHROMA, symbolize([0] * 63)) == 2
        assert sequence_length(LUM, symbolize([0] * 63)) == 4

    def test_high_cost_profile(self):
        sizes = [8] * 18 + [7] * 45
        seq = symbolize(sizes)
        assert sequence_length(LUM, seq) == 18 * 18 + 45 * 15 == 999
        assert sequence_length(CHROMA, seq) == 18 * 17 + 45 * 14 == 936

    def test_single_run_example(self):
        sizes = [0, 0, 0, 0, 1] + [0] * 58
        assert sequence_length(CHROMA, symbolize(sizes)) == 7 + 2

    @given(st.lists(st.integers(0, 10), min_size=63, max_size=63))
    @settings(max_examples=300, deadline=None)
    def test_additivity_against_direct_walk(self, sizes):
        # independent accumulation straight off the size vector
        for table in (CHROMA, LUM):
            run = 0
            total = 0
            for s in sizes:
                if s == 0:
                    run += 1
                else:
                    total += table.code_length(run, s)
                    run = 0
            if run:
                total += table.eob_bits
            assert total == sequence_length(table, symbolize(sizes))


class TestBulkInvariants:
    def test_round_trip_and_additivity_at_volume(self):
        rng = np.random.default_rng(9)
        # skew toward zeros so realistic run structures occur
        raw = rng.integers(0, 14, size=(10_000, AC_POSITIONS))
        vectors = np.where(raw <= 3, 0, raw - 3)
        batch = {t: ac_bits_from_sizes(vectors, t.component) for t in (CHROMA, LUM)}
        for i, vector in enumerate(vectors):
            sizes = [int(s) for s in vector]
            seq = symbolize(sizes)
            assert desymbolize(seq) == sizes
            for table in (CHROMA, LUM):
                assert sequence_length(table, seq) == batch[table][i]


class TestBounds:
    def test_crude_bound_value(self):
        assert crude_bound() == 63 * (16 + 10) + 4 == 1642

    @given(st.lists(st.integers(0, 10), min_size=63, max_size=63))
    @settings(max_examples=200, deadline=None)
    def test_crude_bound_dominates_any_sequence(self, sizes):
        for table in (CHROMA, LUM):
            assert sequence_length(table, symbolize(sizes)) <= crude_bound()


def test_table_for():
    assert table_for(ComponentKind.LUMINANCE) is LUM
    assert table_for(ComponentKind.CHROMINANCE) is CHROMA
