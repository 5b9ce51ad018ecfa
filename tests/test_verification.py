import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acbound import verification
from acbound.entropy_model import ComponentKind, sequence_length, symbolize, table_for
from acbound.quantization import quantize, scaled_annex_k
from acbound.transform import forward_dct, level_shift, zigzag_scan
from acbound.verification import (
    HIGH_COST_SEED_BLOCK,
    SearchConfig,
    ac_bits_batch,
    ac_bits_from_sizes,
    adversarial_search,
    encode_block,
    random_reduced_sizes,
    soundness_fuzz,
    structured_extreme_blocks,
    toy_oracle,
)


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
        with pytest.raises(ValueError):
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
            batch = ac_bits_batch(blocks, q, component)
            for i in range(0, 400, 7):
                report = encode_block(blocks[i], q, component)
                assert report.quantized_sizes == tuple(stage_sizes(blocks[i], q))
                assert batch[i] == report.ac_bits == stage_bits(blocks[i], q, component)

    def test_batch_on_structured_blocks(self, component):
        q = scaled_annex_k(component, Fraction(1, 4))
        blocks = structured_extreme_blocks()
        batch = ac_bits_batch(blocks, q, component)
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

    def test_stays_under_limit(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        cfg = SearchConfig(ComponentKind.CHROMINANCE, Fraction(1),
                           iterations=150, restarts=2, seed=5)
        report = adversarial_search(cfg, q)
        assert report.ac_bits <= 349

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(ComponentKind.LUMINANCE, iterations=0)
        with pytest.raises(ValueError):
            SearchConfig(ComponentKind.LUMINANCE, mutation="teleport")


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
        with pytest.raises(ValueError):
            toy_oracle(0, ComponentKind.LUMINANCE)
        with pytest.raises(ValueError):
            toy_oracle(64, ComponentKind.LUMINANCE)
        with pytest.raises(ValueError):
            toy_oracle(2, ComponentKind.LUMINANCE, (0, 1, 0))

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
        summary = soundness_fuzz(3000, q, component, seed=12)
        assert summary["min_slack"] >= 0
        assert summary["max_bits"] <= summary["limit"]
        assert summary["trials"] == 3000

    def test_chunked_draws_match_one_draw(self):
        # 45,000 trials span three 20,000-block noise chunks; the longest
        # block (146 bits, reached twice) is drawn in the second one
        component = ComponentKind.CHROMINANCE
        q = scaled_annex_k(component, 1)
        summary = soundness_fuzz(45_000, q, component, seed=1)
        worst = summary.pop("worst_block")
        assert summary == {"trials": 45_000, "limit": 349, "max_bits": 146, "min_slack": 203}
        extremes = structured_extreme_blocks()
        rng = np.random.default_rng(1)
        blocks = np.concatenate([
            extremes,
            rng.integers(-128, 128, size=(45_000 - len(extremes), 8, 8), dtype=np.int64),
        ])
        bits = ac_bits_batch(blocks, q, component)
        assert int(bits.argmax()) == 39_562
        assert (worst == blocks[39_562]).all()

    def test_reports_a_violation_instead_of_raising(self, monkeypatch):
        monkeypatch.setattr(verification, "upper_limit", lambda *args: SimpleNamespace(limit=100))
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        summary = soundness_fuzz(300, q, ComponentKind.LUMINANCE)
        assert summary["max_bits"] == 225
        assert summary["min_slack"] == -125
        assert ac_bits_batch(summary["worst_block"][None], q, ComponentKind.LUMINANCE)[0] == 225

    def test_rejects_zero_trials(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        with pytest.raises(ValueError):
            soundness_fuzz(0, q, ComponentKind.LUMINANCE)


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
