import dataclasses
import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acbound import verification
from acbound.bound_engine import Refinement
from acbound.entropy_model import (
    MAX_SIZE, ComponentKind, ParameterError, SymbolSequence, sequence_length, symbolize, table_for,
)
from acbound.quantization import quantize, scaled_annex_k
from acbound.transform import forward_dct, level_shift, zigzag_scan
from acbound.verification import (
    CLIMB_WINDOW,
    HIGH_COST_SEED_BLOCK,
    MAX_ITERATIONS,
    MAX_RESTARTS,
    MAX_TRIALS,
    SearchConfig,
    ac_bits_batch,
    adversarial_search,
    encode_block,
    soundness_fuzz,
    structured_extreme_blocks,
    toy_oracle,
)
from acbound.verification import _ac_sizes, _mutations
from references import ac_bits_from_sizes, random_reduced_sizes


class TestEncodeBlock:
    def test_seed_block_luminance(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 64))
        report = encode_block(level_shift(HIGH_COST_SEED_BLOCK), q, ComponentKind.LUMINANCE)
        assert report.ac_bits == 999
        assert report.quantized_sizes.count(8) == 18
        assert report.quantized_sizes.count(7) == 45
        assert not report.symbols.has_eob
        assert report.slack == report.limit - 999 >= 0

    def test_seed_block_chrominance(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, Fraction(1, 64))
        report = encode_block(level_shift(HIGH_COST_SEED_BLOCK), q, ComponentKind.CHROMINANCE)
        assert report.ac_bits == 936

    def test_constant_block_is_eob_only(self, component):
        q = scaled_annex_k(component, Fraction(1, 2))
        block = np.full((8, 8), 55, dtype=np.int64)
        report = encode_block(block, q, component)
        expected = 4 if component is ComponentKind.LUMINANCE else 2
        assert report.ac_bits == expected
        assert report.symbols.symbols == ()

    def test_component_mismatch(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        with pytest.raises(ParameterError):
            encode_block(np.zeros((8, 8), dtype=np.int64), q, ComponentKind.LUMINANCE)

    def test_json_payload(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 64))
        payload = encode_block(level_shift(HIGH_COST_SEED_BLOCK), q,
                               ComponentKind.LUMINANCE).to_json_dict()
        assert payload["ac_bits"] == 999
        assert payload["has_eob"] is False
        assert len(payload["quantized_sizes"]) == 63
        assert len(payload["block"]) == 8


def stage_sizes(block, q) -> list[int]:
    """Quantized AC sizes through the public stage functions, one by one."""
    zig = zigzag_scan(forward_dct(block))
    return [abs(quantize(float(zig[k]), q.factor(k))).bit_length() for k in range(1, 64)]


def stage_bits(block, q, component) -> int:
    return sequence_length(table_for(component), symbolize(stage_sizes(block, q)))


class TestBatchAgreement:
    """The vectorized costing path against the public stage functions."""

    def test_batch_matches_single_path(self, component, rng):
        for sf in (Fraction(1, 64), Fraction(1, 6), Fraction(1)):
            q = scaled_annex_k(component, sf)
            blocks = rng.integers(-128, 128, size=(400, 8, 8), dtype=np.int64)
            batch = ac_bits_batch(blocks, q)
            for i in range(0, 400, 7):
                report = encode_block(blocks[i], q, component)
                assert report.quantized_sizes == tuple(stage_sizes(blocks[i], q))
                assert batch[i] == report.ac_bits == stage_bits(blocks[i], q, component)

    def test_batch_on_structured_blocks(self, component):
        q = scaled_annex_k(component, Fraction(1, 4))
        blocks = structured_extreme_blocks()
        batch = ac_bits_batch(blocks, q)
        for block, bits in zip(blocks, batch):
            assert stage_bits(block, q, component) == bits

    def test_size_rows_at_the_edges(self, component):
        table = table_for(component)
        empty = ac_bits_from_sizes(np.zeros((0, 63), dtype=np.int64), component)
        assert empty.shape == (0,)
        rows = [
            [0] * 62 + [5],                    # one coefficient after a 62-zero run
            [s % 10 + 1 for s in range(63)],   # every position nonzero: no EOB
            [10] * 63,
            [0] * 63,                          # EOB only, as the last row
        ]
        bits = ac_bits_from_sizes(np.array(rows), component)
        assert bits.tolist() == [sequence_length(table, symbolize(row)) for row in rows]

    def test_float_product_witness(self):
        # F(4, 0) of block 1 is exactly 64, but the float product gives one
        # ulp less; every path truncates that value alike, to size 6
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 64))
        blocks = np.random.default_rng(5).integers(-128, 128, size=(2, 8, 8))
        assert forward_dct(blocks[1])[4, 0] == 63.99999999999999
        assert ac_bits_batch(blocks, q).tolist() == [793, 778]
        assert [encode_block(b, q, ComponentKind.LUMINANCE).ac_bits for b in blocks] == [793, 778]
        assert [stage_bits(b, q, ComponentKind.LUMINANCE) for b in blocks] == [793, 778]
        chroma = scaled_annex_k(ComponentKind.CHROMINANCE, Fraction(1, 64))
        assert ac_bits_batch(blocks, chroma).tolist() == [
            encode_block(b, chroma, chroma.component).ac_bits for b in blocks
        ]

    @pytest.mark.parametrize("shape", [(8, 8), (3, 64), (2, 8, 8, 1), (2, 4, 16)])
    def test_batch_rejects_shapes_outside_the_contract(self, component, shape):
        q = scaled_annex_k(component, Fraction(1, 64))
        with pytest.raises(ValueError, match=r"shape \(N, 8, 8\)"):
            ac_bits_batch(np.zeros(shape, dtype=np.int64), q)

    def test_batch_rejects_sizes_past_max_size(self, component):
        # a +-1000 checkerboard codes F(7, 7) at size 13: its flat index
        # would read the EOB column or the next run's cells
        q = scaled_annex_k(component, Fraction(1, 64))
        board = 1000 * (-1) ** np.add.outer(np.arange(8), np.arange(8))
        assert _ac_sizes(board[None], q).max() > MAX_SIZE
        with pytest.raises(ParameterError, match=r"outside 0\.\.10"):
            ac_bits_batch(board[None], q)

    def test_search_report_matches_stages(self, component):
        q = scaled_annex_k(component, Fraction(1, 6))
        cfg = SearchConfig(component, Fraction(1, 6), iterations=200, restarts=2, seed=7)
        report = adversarial_search(cfg, q)
        sizes = stage_sizes(report.block, q)
        assert report.quantized_sizes == tuple(sizes)
        assert report.symbols == symbolize(sizes)
        assert report.ac_bits == sequence_length(table_for(component), report.symbols)
        assert report.slack == report.limit - report.ac_bits
        assert report.sf == Fraction(1, 6)


def scalar_bits(row, component) -> int:
    """Coded bits of one size row of any width through the scalar reference:
    zero-padded to 63 for ``symbolize``, with an EOB only if the row ends in 0."""
    symbols = symbolize(list(row) + [0] * (63 - len(row))).symbols
    return sequence_length(table_for(component), SymbolSequence(symbols, row[-1] == 0))


@st.composite
def size_matrices(draw):
    """A width in 1..63 and rows built from (zero run, size) symbols: runs of
    16 or more (ZRL), an all-zero row, and rows that end nonzero (no EOB)."""
    width = draw(st.integers(1, 63))
    rows = [[0] * width]
    for _ in range(draw(st.integers(0, 6))):
        symbols = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, MAX_SIZE)),
                                max_size=width))
        row = list(itertools.chain.from_iterable([0] * run + [s] for run, s in symbols))
        row = (row + [0] * width)[:width]
        if draw(st.booleans()):
            row[-1] = draw(st.integers(1, MAX_SIZE))
        rows.append(row)
    return draw(st.permutations(rows))


class TestDenseKernel:
    """``ac_bits_from_sizes`` against the scalar symbol path at every width."""

    @given(size_matrices(), st.sampled_from(list(ComponentKind)))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, rows, component):
        bits = ac_bits_from_sizes(np.array(rows), component)
        assert bits.tolist() == [scalar_bits(row, component) for row in rows]

    def test_every_width(self, component):
        for width in range(1, 64):
            rows = [[0] * width, [0] * (width - 1) + [MAX_SIZE], [1] * width,
                    ([0] * 17 + [3]) * 4, [5] + [0] * 62]
            rows = [row[:width] for row in rows]
            bits = ac_bits_from_sizes(np.array(rows), component)
            assert bits.tolist() == [scalar_bits(row, component) for row in rows]
            empty = ac_bits_from_sizes(np.zeros((0, width), dtype=np.int64), component)
            assert empty.shape == (0,) and empty.dtype == np.int64

    @pytest.mark.parametrize("bad", [MAX_SIZE + 1, -1])
    @pytest.mark.parametrize("column", [0, 30, 62])
    def test_rejects_sizes_out_of_range(self, component, bad, column):
        # without the check a flat lookup of 11 reads the next run's cell
        # and one of -1 the previous run's size-10 cell, silently
        sizes = np.zeros((3, 63), dtype=np.int64)
        sizes[1, column] = bad
        with pytest.raises(ValueError, match="outside 0..10"):
            ac_bits_from_sizes(sizes, component)
        with pytest.raises(ValueError, match="outside 0..10"):  # the bad cell last
            ac_bits_from_sizes(sizes[1:2, :column + 1], component)

    @pytest.mark.parametrize("sizes", [
        np.zeros((1, 0), dtype=np.int64),
        np.zeros(63, dtype=np.int64),
        np.zeros((1, 64), dtype=np.int64),
        np.ones((1, 64), dtype=np.int64),
    ], ids=["no-columns", "one-dimensional", "zeros-64", "ones-64"])
    def test_rejects_shapes_outside_the_contract(self, component, sizes):
        # a 64th column has no run in the table: all zeros index past its
        # end, and all ones were costed as 192 bits without an error
        with pytest.raises(ValueError, match=r"shape \(N, 1..63\)"):
            ac_bits_from_sizes(sizes, component)


class TestAdversarialSearch:
    def test_seeded_search_reaches_seed_block_cost(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 64))
        cfg = SearchConfig(ComponentKind.LUMINANCE, Fraction(1, 64),
                           iterations=50, restarts=1, seed=3)
        report = adversarial_search(cfg, q)
        assert report.ac_bits >= 999
        assert report.ac_bits <= report.limit

    def test_deterministic(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, Fraction(1, 2))
        cfg = SearchConfig(ComponentKind.CHROMINANCE, Fraction(1, 2),
                           iterations=120, restarts=2, seed=11)
        first = adversarial_search(cfg, q)
        second = adversarial_search(cfg, q)
        assert first.ac_bits == second.ac_bits
        assert (first.block == second.block).all()

    def test_start_blocks_are_built_once_and_read_only(self):
        starts = verification._climb_starts()
        assert starts is verification._climb_starts()
        assert not starts.flags.writeable
        with pytest.raises(ValueError):
            starts[0, 0, 0] = 0
        expected = [level_shift(HIGH_COST_SEED_BLOCK)] + list(structured_extreme_blocks()[3:9])
        assert starts.tolist() == np.stack(expected).tolist()

    @pytest.mark.parametrize("iterations", [1, 100])
    def test_repeated_calls_give_identical_reports(self, component, iterations):
        # 9 restarts: every cached start block, then two random ones
        q = scaled_annex_k(component, Fraction(1, 64))
        cfg = SearchConfig(component, Fraction(1, 64), iterations=iterations, restarts=9, seed=2)
        first = adversarial_search(cfg, q)
        payload = first.to_json_dict()
        first.block[...] = 0  # a caller's edit must not reach the next call's starts
        assert adversarial_search(cfg, q).to_json_dict() == payload
        assert verification._climb_starts()[0].tolist() == level_shift(HIGH_COST_SEED_BLOCK).tolist()

    def test_stays_under_limit(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        cfg = SearchConfig(ComponentKind.CHROMINANCE, Fraction(1),
                           iterations=150, restarts=2, seed=5)
        report = adversarial_search(cfg, q)
        assert report.ac_bits <= 349

    def test_component_mismatch_is_refused_before_any_block(self, monkeypatch):
        # upper_limit states the rule; the search asks for its limit first
        def started(*args):
            raise AssertionError("the search started")

        for name in ("_climb_starts", "_mutations", "ac_bits_batch"):
            monkeypatch.setattr(verification, name, started)
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        cfg = SearchConfig(ComponentKind.LUMINANCE, Fraction(1), iterations=1, restarts=1)
        with pytest.raises(ParameterError, match="^component and quantization table disagree$"):
            adversarial_search(cfg, q)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SearchConfig(ComponentKind.LUMINANCE, iterations=0)
        with pytest.raises(ParameterError):
            SearchConfig(ComponentKind.LUMINANCE, mutation="teleport")
        with pytest.raises(ParameterError, match="seed -1"):
            SearchConfig(ComponentKind.LUMINANCE, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("iterations", 2.5), ("restarts", 1.5), ("seed", 1.5), ("seed", "3"),
    ])
    def test_config_refuses_non_integer_counts(self, field, value):
        with pytest.raises(ParameterError, match=field):
            SearchConfig(ComponentKind.LUMINANCE, **{field: value})

    def test_config_stores_numpy_counts_as_ints(self):
        cfg = SearchConfig(ComponentKind.LUMINANCE, iterations=np.int64(20),
                           restarts=np.uint8(2), seed=np.int32(5))
        assert all(type(v) is int for v in (cfg.iterations, cfg.restarts, cfg.seed))
        assert cfg == SearchConfig(ComponentKind.LUMINANCE, iterations=20, restarts=2, seed=5)

    def test_config_bounds_sizes_before_allocating(self):
        SearchConfig(ComponentKind.LUMINANCE, iterations=MAX_ITERATIONS, restarts=MAX_RESTARTS)
        for huge in (MAX_ITERATIONS + 1, 10**12):
            with pytest.raises(ParameterError, match="iterations"):
                SearchConfig(ComponentKind.LUMINANCE, iterations=huge)
        for huge in (MAX_RESTARTS + 1, 10**12):
            with pytest.raises(ParameterError, match="restarts"):
                SearchConfig(ComponentKind.LUMINANCE, restarts=huge)


def reference_climb(cfg, q):
    """The climb one candidate at a time, each move drawn when it is made."""
    starts = [level_shift(HIGH_COST_SEED_BLOCK)] + list(structured_extreme_blocks()[3:9])
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_bits, best_block = -1, None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(children[restart])
        if restart < len(starts):
            block = starts[restart].copy()
        else:
            block = rng.integers(-128, 128, size=(8, 8), dtype=np.int64)
        bits = ac_bits_batch(block[None], q)[0]
        for _ in range(cfg.iterations):
            candidate = block.copy()
            n_pixels = 1 if cfg.mutation == "single_pixel" else int(rng.integers(1, 3))
            for _ in range(n_pixels):
                r, c = rng.integers(0, 8, size=2)
                candidate[r, c] = rng.integers(-128, 128)
            cand_bits = ac_bits_batch(candidate[None], q)[0]
            if cand_bits >= bits:
                block, bits = candidate, cand_bits
        if bits > best_bits or (
            bits == best_bits and tuple(block.ravel()) < tuple(best_block.ravel())
        ):
            best_bits, best_block = bits, block
    return dataclasses.replace(encode_block(best_block, q, cfg.component), sf=cfg.sf)


def first_restart_acceptances(cfg, q):
    """The accepted moves of the first restart, replayed one at a time from
    what ``_mutations`` draws: (move, start of the climb's window holding
    it, pixels it changed, pixels it set) each."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    pixels, values = _mutations(rng, cfg.iterations, cfg.mutation)
    block = level_shift(HIGH_COST_SEED_BLOCK).ravel()
    bits = ac_bits_batch(block.reshape(1, 8, 8), q)[0]
    window, accepted = 0, []
    for move in range(cfg.iterations):
        if move - window == CLIMB_WINDOW:
            window = move
        candidate = block.copy()
        for pixel, value in zip(pixels[move], values[move]):
            candidate[pixel] = value
        cand_bits = ac_bits_batch(candidate.reshape(1, 8, 8), q)[0]
        if cand_bits >= bits:
            changed = np.flatnonzero(candidate != block).tolist()
            accepted.append((move, window, changed, pixels[move].tolist()))
            if changed:  # the climb's next window starts after it
                window, block, bits = move + 1, candidate, cand_bits
    return accepted


class TestSpeculativeClimb:
    """The windowed climb against the one-candidate-at-a-time reference."""

    @pytest.mark.parametrize("mutation", ["single_pixel", "pixel_pair"])
    @pytest.mark.parametrize("sf", [Fraction(1, 64), Fraction(1, 8), Fraction(1)],
                             ids=["sf1_64", "sf1_8", "sf1"])
    def test_matches_reference_climb(self, component, sf, mutation):
        q = scaled_annex_k(component, sf)
        # 9 restarts: the seed block, 6 structured starts, then random blocks;
        # the iteration counts sit on and around the window edges
        for iterations in (1, CLIMB_WINDOW - 1, CLIMB_WINDOW, CLIMB_WINDOW + 1, 400):
            cfg = SearchConfig(component, sf, iterations=iterations, restarts=9,
                               seed=iterations, mutation=mutation)
            assert adversarial_search(cfg, q).to_json_dict() == \
                reference_climb(cfg, q).to_json_dict()

    def test_no_op_acceptance_inside_a_window(self, component):
        # a window whose first accepted move changes nothing accepts a later move
        q = scaled_annex_k(component, Fraction(1, 64))
        cfg = SearchConfig(component, Fraction(1, 64), iterations=100, restarts=1, seed=26)
        accepted = first_restart_acceptances(cfg, q)
        assert any(not changed and any(w == window and later for _, w, later, _ in accepted)
                   for _, window, changed, _ in accepted)
        assert adversarial_search(cfg, q).to_json_dict() == reference_climb(cfg, q).to_json_dict()

    def test_pair_move_that_keeps_its_first_pixel(self):
        # accepted, it changes the block although its first pixel kept its value
        q = scaled_annex_k(ComponentKind.CHROMINANCE, Fraction(1))
        cfg = SearchConfig(ComponentKind.CHROMINANCE, Fraction(1), iterations=64, restarts=1,
                           seed=24)
        assert any(first != second and changed == [second]
                   for _, _, changed, (first, second) in first_restart_acceptances(cfg, q))
        assert adversarial_search(cfg, q).to_json_dict() == reference_climb(cfg, q).to_json_dict()

    @pytest.mark.parametrize("mutation", ["single_pixel", "pixel_pair"])
    def test_bulk_draws_match_per_move_draws(self, mutation):
        # fails first if numpy ever changes how it draws bounded integers
        for seed in range(200):
            bulk, step = np.random.default_rng(seed), np.random.default_rng(seed)
            for gen in (bulk, step):
                if seed % 3 == 1:  # a random-start restart draws its block first
                    gen.integers(-128, 128, size=(8, 8), dtype=np.int64)
                elif seed % 3 == 2:  # half of a 64-bit word already used
                    gen.integers(0, 8)
            pixels, values = _mutations(bulk, 50, mutation)
            moves = []
            for _ in range(50):
                n_pixels = 1 if mutation == "single_pixel" else int(step.integers(1, 3))
                move = []
                for _ in range(n_pixels):
                    r, c = step.integers(0, 8, size=2)
                    move.append((int(8 * r + c), int(step.integers(-128, 128))))
                moves.append(move if n_pixels == 2 else move * 2)
            assert pixels.tolist() == [[p for p, _ in move] for move in moves]
            assert values.tolist() == [[v for _, v in move] for move in moves]


class TestToyOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_engine_dominates_exact_max(self, component, n):
        exact, limit = toy_oracle(n, component)
        assert limit >= exact

    def test_single_position_chrominance(self):
        exact, limit = toy_oracle(1, ComponentKind.CHROMINANCE)
        assert exact == 17  # size 8 is the largest fitting the budget
        assert limit >= 17

    def test_exponent_vector(self, component):
        exact, limit = toy_oracle(2, component, (0, 1))
        assert limit >= exact

    def test_refuses_large_instances(self):
        with pytest.raises(ParameterError):
            toy_oracle(0, ComponentKind.LUMINANCE)
        with pytest.raises(ParameterError):
            toy_oracle(64, ComponentKind.LUMINANCE)
        with pytest.raises(ParameterError):
            toy_oracle(2, ComponentKind.LUMINANCE, (0, 1, 0))

    def test_refuses_a_float_position_count(self):
        with pytest.raises(ParameterError, match="positions"):
            toy_oracle(2.0, ComponentKind.LUMINANCE)

    @pytest.mark.parametrize("exponents", [[1, 1.9, 0], [1, 2.0, 0], [1, "3", 0], [1.9, 2.5, 0.2]])
    def test_refuses_non_integer_exponents(self, exponents):
        with pytest.raises(ParameterError):
            toy_oracle(3, ComponentKind.LUMINANCE, exponents)

    def test_accepts_numpy_integer_exponents(self, component):
        exponents = np.array([1, 2, 0], dtype=np.int8)
        assert toy_oracle(3, component, exponents) == toy_oracle(3, component, [1, 2, 0])

    def test_refinement_ordering_is_checked(self, monkeypatch):
        solve_limit = verification.solve_limit

        def raised_maxconfig(ref, refinement):
            result = solve_limit(ref, refinement)
            if refinement is Refinement.MAXCONFIG:
                return dataclasses.replace(result, limit=result.limit + 1000)
            return result

        monkeypatch.setattr(verification, "solve_limit", raised_maxconfig)
        with pytest.raises(AssertionError, match="^refinement ordering violated: "):
            toy_oracle(2, ComponentKind.LUMINANCE)

    # vectors with loss rows that lengthen the block, which no promotion
    # forces: the limit must charge them too
    @pytest.mark.parametrize("n, component, exponents", [
        (2, ComponentKind.LUMINANCE, (6, 2)),
        (2, ComponentKind.CHROMINANCE, (6, 2)),
        (4, ComponentKind.LUMINANCE, (1, 1, 4, 2)),
    ], ids=["lum-6-2", "chroma-6-2", "lum-1-1-4-2"])
    def test_engine_dominates_exact_maximum_where_losses_lengthen(self, n, component, exponents):
        exact, limit = toy_oracle(n, component, exponents)
        assert limit >= exact

    def test_engine_dominates_exact_maximum_at_every_short_vector(self, component):
        # every exponent vector of up to 3 positions, negative loss rows included
        for n in (1, 2, 3):
            for exponents in itertools.product(range(7), repeat=n):
                exact, limit = toy_oracle(n, component, exponents)
                assert limit >= exact, exponents

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, component, n):
        rng = np.random.default_rng(n)
        sizes = np.array(list(itertools.product(range(11), repeat=n)))
        draws = [rng.integers(0, 7, n).tolist() for _ in range(3)]
        # ascending vectors put the costliest positions last, where ending
        # the block in zeros (EOB) can be the longest choice
        for exponents in [[0] * n] + draws + [sorted(d) for d in draws]:
            # energy of quantized size s at exponent C: 4**(s - 1 + C), size 0 free
            costs = np.array([[0] + [4 ** (s - 1 + c) for s in range(1, 11)]
                              for c in exponents])
            energy = costs[np.arange(n), sizes].sum(axis=1)
            feasible = sizes[energy < (n + 1) << 14]
            brute = int(ac_bits_from_sizes(feasible, component).max())
            assert toy_oracle(n, component, exponents)[0] == brute

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_exact_maximum_never_rises_with_an_exponent(self, data):
        n = data.draw(st.integers(1, 12))
        exponents = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        k = data.draw(st.integers(0, n - 1))
        component = data.draw(st.sampled_from(list(ComponentKind)))
        raised = exponents[:k] + [exponents[k] + 1] + exponents[k + 1:]
        assert toy_oracle(n, component, raised)[0] <= toy_oracle(n, component, exponents)[0]

    @given(st.lists(st.integers(0, 6), min_size=63, max_size=63),
           st.sampled_from(list(ComponentKind)))
    @settings(max_examples=8, deadline=None)
    def test_engine_dominates_exact_maximum_at_63_positions(self, exponents, component):
        exact, limit = toy_oracle(63, component, exponents)
        assert exact <= limit


class TestSoundnessFuzz:
    def test_small_run(self, component):
        q = scaled_annex_k(component, Fraction(1, 8))
        summary = soundness_fuzz(3000, q, seed=12)
        assert summary["min_slack"] >= 0
        assert summary["max_bits"] <= summary["limit"]
        assert summary["trials"] == 3000

    def test_chunked_draws_match_one_draw(self):
        # 45,000 trials span three 20,000-block noise chunks; the longest
        # block (146 bits, reached twice) is drawn in the second one
        component = ComponentKind.CHROMINANCE
        q = scaled_annex_k(component, 1)
        summary = soundness_fuzz(45_000, q, seed=1)
        worst = summary.pop("worst_block")
        assert summary == {"trials": 45_000, "limit": 349, "max_bits": 146, "min_slack": 203}
        extremes = structured_extreme_blocks()
        rng = np.random.default_rng(1)
        blocks = np.concatenate([
            extremes,
            rng.integers(-128, 128, size=(45_000 - len(extremes), 8, 8), dtype=np.int64),
        ])
        bits = ac_bits_batch(blocks, q)
        assert int(bits.argmax()) == 39_562
        assert (worst == blocks[39_562]).all()

    def test_reports_a_violation_instead_of_raising(self, monkeypatch):
        monkeypatch.setattr(verification, "upper_limit", lambda *args: SimpleNamespace(limit=100))
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        summary = soundness_fuzz(300, q)
        assert summary["max_bits"] == 225
        assert summary["min_slack"] == -125
        assert ac_bits_batch(summary["worst_block"][None], q)[0] == 225

    def test_rejects_zero_trials(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        with pytest.raises(ParameterError):
            soundness_fuzz(0, q)

    @pytest.mark.parametrize("trials, seed, field", [
        (2.5, 0, "trials"), ("100", 0, "trials"), (100, 1.5, "seed"), (100, None, "seed"),
    ])
    def test_rejects_non_integer_counts_before_any_limit(self, monkeypatch, trials, seed, field):
        monkeypatch.setattr(verification, "upper_limit", None)  # a call would fail
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        with pytest.raises(ParameterError, match=field):
            soundness_fuzz(trials, q, seed)

    def test_numpy_trials_are_reported_as_an_int(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        assert type(soundness_fuzz(np.int64(10), q)["trials"]) is int

    def test_rejects_a_negative_seed_before_any_limit(self, monkeypatch):
        monkeypatch.setattr(verification, "upper_limit", None)  # a call would fail
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        with pytest.raises(ParameterError, match="seed -1"):
            soundness_fuzz(10, q, seed=-1)

    def test_bounds_trials_before_any_limit_or_block(self, monkeypatch):
        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(verification, "upper_limit", started)
        monkeypatch.setattr(verification, "structured_extreme_blocks", started)
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        for huge in (MAX_TRIALS + 1, 10**12):
            with pytest.raises(ParameterError, match="trials"):
                soundness_fuzz(huge, q)
        # the bound itself passes the check and starts the run
        with pytest.raises(Started):
            soundness_fuzz(MAX_TRIALS, q)


class TestRandomReduced:
    def test_vectors_satisfy_ball_and_exponent_floor(self, component, rng):
        from acbound.bound_engine import reference_length
        from acbound.quantization import pow2_table

        q = scaled_annex_k(component, Fraction(1, 2))
        ref = reference_length(component, pow2_table(q))
        budget = 64 << 14
        for _ in range(500):
            sizes = random_reduced_sizes(rng, ref)
            energy = sum(1 << (2 * s - 2) for s in sizes if s > 0)
            assert energy < budget
            for s, c in zip(sizes, ref.exponents):
                assert s == 0 or s > c
