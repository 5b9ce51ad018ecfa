import dataclasses
import gc
import heapq
import math
import weakref
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acbound import bound_engine, cli, entropy_model, quantization, transform, verification
from acbound.bound_engine import (
    SCALE,
    DeltaEntry,
    LossSetExhaustedError,
    OpKind,
    Refinement,
    build_sets,
    decompose,
    enumerate_deltas,
    recompose_length,
    reference_config,
    reference_length,
    refine_capacity,
    refine_maxconfig,
    solve_limit,
    upper_limit,
)
from acbound.entropy_model import (
    AC_POSITIONS,
    ComponentKind,
    ParameterError,
    sequence_length,
    symbolize,
    table_for,
)
from acbound.quantization import (
    QuantTable,
    pow2_table,
    scaled_annex_k,
)
from acbound.verification import toy_oracle
from references import (
    ac_bits_from_sizes, builder_decompose, by_value, gain_rows, prefix_sums,
    random_reduced_sizes,
)

SF_GRID = [Fraction(s) for s in ("1/64", "1/16", "1/8", "1/6", "1/4", "1/2", "1")]
KIND_ORDER = sorted(OpKind, key=lambda kind: kind.value)  # kind rank -> kind
GAIN_KINDS = frozenset({OpKind.OP5A, OpKind.OP5B, OpKind.OP6A, OpKind.OP6B})


def chroma_sf1_sets(refinement=Refinement.BASE):
    q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
    ref = reference_length(ComponentKind.CHROMINANCE, pow2_table(q))
    return ref, build_sets(ref, refinement)


def footprint(kind, position, run, n):
    """Positions an operation assigns copies to (1-indexed, inclusive):
    a run demotion its zeros and coefficient, a kept coefficient its
    zeros, an EOB the tail behind it, any other kind its own position."""
    if kind is OpKind.OP2:
        return range(position - run, position + 1)
    if kind is OpKind.OP3:
        return range(position - run, position)
    if kind is OpKind.OP4:
        return range(position + 1, n + 1)
    return range(position, position + 1)


def find(entries, op_kind, position, runlength=None, size=None):
    out = [
        e for e in entries
        if e.op_kind is op_kind and e.position == position
        and (runlength is None or e.runlength == runlength)
        and (size is None or e.size == size)
    ]
    return out


class TestReferenceLength:
    def test_worked_example(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        ref = reference_length(ComponentKind.CHROMINANCE, pow2_table(q))
        assert ref.ref_len == 7 * 9 + 3 * 7 + 53 * 5 == 349
        assert all(s >= 2 for s in ref.sbar)

    def test_unit_tables(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, Fraction(1, 64))
        ref = reference_length(ComponentKind.CHROMINANCE, pow2_table(q))
        assert ref.ref_len == 63 * 17 == 1071
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 64))
        ref = reference_length(ComponentKind.LUMINANCE, pow2_table(q))
        assert ref.ref_len == 63 * 18 == 1134

    def test_rejects_exponent_seven(self):
        with pytest.raises(ParameterError):
            reference_config(ComponentKind.LUMINANCE, (7,) * 63)

    def test_rejects_more_than_63_positions(self):
        with pytest.raises(ParameterError):
            reference_config(ComponentKind.LUMINANCE, (0,) * 64)

    def test_rejects_an_empty_vector(self):
        with pytest.raises(ParameterError):
            reference_config(ComponentKind.LUMINANCE, ())

    def test_full_table_needs_63_exponents(self):
        with pytest.raises(ParameterError, match="^expected 63 exponents, got 62$"):
            reference_length(ComponentKind.LUMINANCE, (0,) * 62)

    @pytest.mark.parametrize("exponents", [
        [1, 1.9, 0], [1, 2.0, 0], [1, "3", 0], [1.9, 2.5, 0.2], ["3", "2"],
    ])
    def test_rejects_non_integer_exponents(self, exponents):
        with pytest.raises(ParameterError):
            reference_config(ComponentKind.LUMINANCE, exponents)

    def test_accepts_numpy_integer_exponents(self):
        ref = reference_config(ComponentKind.LUMINANCE, np.array([1, 2, 0], dtype=np.int8))
        assert ref == reference_config(ComponentKind.LUMINANCE, [1, 2, 0])
        assert all(type(c) is int for c in ref.exponents)

    def test_state_is_freed_with_the_reference(self):
        ref = reference_config(ComponentKind.LUMINANCE, [k // 10 for k in range(63)])
        for refinement in Refinement:
            solve_limit(ref, refinement)
        alive = weakref.ref(ref)
        del ref
        gc.collect()
        assert alive() is None


class TestAdmissiblePairs:
    def test_cardinality_and_extremes(self):
        pairs = bound_engine._admissible(AC_POSITIONS)[0]
        assert len(pairs) == 40
        assert (15, 0) in pairs and (3, 3) in pairs
        assert (16, 0) not in pairs and (0, 4) not in pairs
        assert max(3 * a + 15 * b for a, b in pairs) == 54

    def test_generalized_instance(self):
        assert bound_engine._admissible(6)[0] == ((0, 0), (1, 0))


class TestWorkedExampleDeltas:
    def test_single_demotion_one_step_is_two_bits(self):
        ref, sets = chroma_sf1_sets()
        for p in range(1, 64):
            entry = find(sets.losses, OpKind.OP1, p, size=ref.sbar[p - 1] - 1)
            assert len(entry) == 1
            assert Fraction(entry[0].value, SCALE) == 2

    def test_run_keep_loss_at_twelve(self):
        _, sets = chroma_sf1_sets()
        (entry,) = find(sets.losses, OpKind.OP3, 12, runlength=1)
        assert Fraction(entry.value, SCALE) == 1
        assert entry.multiplicity == 1

    def test_run_demotion_half_losses(self):
        _, sets = chroma_sf1_sets()
        (entry,) = find(sets.losses, OpKind.OP2, 63, runlength=1, size=1)
        assert Fraction(entry.value, SCALE) == Fraction(5, 2)
        assert entry.multiplicity == 2
        (entry,) = find(sets.losses, OpKind.OP2, 7, runlength=1, size=3)
        assert Fraction(entry.value, SCALE) == Fraction(5, 2)

    def test_run_promotion_gain_at_sixteen(self):
        _, sets = chroma_sf1_sets()
        (entry,) = find(sets.gains9, OpKind.OP6A, 16, runlength=2)
        assert Fraction(entry.value, SCALE) == 13 - 10 == 3

    def test_tail_eob_loss(self):
        _, sets = chroma_sf1_sets()
        (entry,) = find(sets.losses, OpKind.OP4, 62)
        assert Fraction(entry.value, SCALE) == 3
        assert entry.multiplicity == 1

    def test_loss_function_values(self):
        _, sets = chroma_sf1_sets()
        losses, _, _ = prefix_sums(sets, (54, 0, 0))
        assert losses == (0,) + tuple((2 * n - 1) * SCALE for n in range(1, 55))

    def test_gain_function_values(self):
        _, sets = chroma_sf1_sets()
        _, gains9, gains10 = prefix_sums(sets, (0, 15, 3))
        assert gains9 == tuple(3 * a * SCALE for a in range(16))
        assert gains10 == tuple(6 * b * SCALE for b in range(4))


class TestCensus:
    def test_case_budget(self, component):
        for sf in SF_GRID:
            q = scaled_annex_k(component, sf)
            ref = reference_length(component, pow2_table(q))
            sets = enumerate_deltas(ref)
            assert sets.census == {
                "op1": 441, "op2": 13671, "op3": 1953, "op4": 62,
                "op5a": 63, "op5b": 63, "op6a": 1953, "op6b": 1953,
            }
            assert sum(sets.census.values()) == 20159


class TestSignStructure:
    def test_loss_and_gain_signs(self, component):
        for sf in SF_GRID:
            q = scaled_annex_k(component, sf)
            ref = reference_length(component, pow2_table(q))
            sets = enumerate_deltas(ref)
            for e in sets.losses:
                if e.op_kind in (OpKind.OP1, OpKind.OP2):
                    assert Fraction(e.value, SCALE) > 0, e
                else:
                    assert Fraction(e.value, SCALE) >= 0, e
            for e in sets.gains9 + sets.gains10:
                assert Fraction(e.value, SCALE) > 0, e

    def test_every_promotion_costs_a_bit_per_step(self, component):
        # any gain row of any reference, not only the paper cells': at every
        # run, a reference size 2..8 promoted by 1 or 2 sizes codes at least
        # that many bits longer, so every capacity walk over a gain set stops
        # as soon as it holds its count
        table = table_for(component)
        for r in range(AC_POSITIONS):
            for v in range(2, 9):
                for step in (1, 2):
                    assert table.code_length(r, v + step) - table.code_length(r, v) >= step

    def test_promotion_sizes_capped(self, component):
        for sf in SF_GRID:
            q = scaled_annex_k(component, sf)
            ref = reference_length(component, pow2_table(q))
            sets = enumerate_deltas(ref)
            assert all(e.size == ref.sbar[e.position - 1] + 1 for e in sets.gains9)
            assert all(e.size == ref.sbar[e.position - 1] + 2 for e in sets.gains10)
            assert all(e.size <= 10 for e in sets.gains9 + sets.gains10)


class TestUpperLimit:
    def test_worked_example_base(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        result = upper_limit(ComponentKind.CHROMINANCE, q, Refinement.BASE)
        assert result.limit == 349
        assert result.argmax == (0, 0)
        assert result.ref_len == 349
        assert result.objective[(0, 0)] == 0

    def test_unit_table_limits(self):
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 64))
        assert upper_limit(ComponentKind.LUMINANCE, q).limit == 1134
        q = scaled_annex_k(ComponentKind.CHROMINANCE, Fraction(1, 2))
        assert upper_limit(ComponentKind.CHROMINANCE, q).limit == 468

    def test_limit_at_least_reference(self, component):
        for sf in SF_GRID:
            q = scaled_annex_k(component, sf)
            for refinement in Refinement:
                result = upper_limit(component, q, refinement)
                assert result.objective[(0, 0)] == 0
                assert result.limit >= result.ref_len

    def test_refinement_ordering(self, component):
        for sf in SF_GRID:
            q = scaled_annex_k(component, sf)
            base = upper_limit(component, q, Refinement.BASE).limit
            capped = upper_limit(component, q, Refinement.CAPACITY).limit
            tight = upper_limit(component, q, Refinement.MAXCONFIG).limit
            assert tight <= capped <= base

    def test_levels_of_one_cell_enumerate_once(self, monkeypatch):
        # the three levels share one head enumeration and never need the full sets
        calls = []
        enumerate_head = bound_engine.enumerate_deltas

        def counting_enumeration(ref, head=None):
            calls.append(head)
            return enumerate_head(ref, head)

        monkeypatch.setattr(bound_engine, "enumerate_deltas", counting_enumeration)
        upper_limit.cache_clear()
        bound_engine._cell_reference.cache_clear()
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 8))
        for refinement in Refinement:
            upper_limit(ComponentKind.LUMINANCE, q, refinement)
        assert calls == [bound_engine._LOSS_HEAD]

    @pytest.mark.parametrize("refinement, maxconfig, capacity", [
        (Refinement.BASE, 0, 0), (Refinement.CAPACITY, 0, 1), (Refinement.MAXCONFIG, 1, 1),
    ])
    def test_limit_runs_the_public_stages(self, monkeypatch, refinement, maxconfig, capacity):
        # a cold limit enumerates the head once, then runs only the pruning
        # stages its level names, the capacity walks stopping at 54 loss
        # copies, 15 size-9 gains and 3 size-10 gains
        calls = {"enumerate_deltas": [], "refine_maxconfig": [], "refine_capacity": []}
        for name, seen in calls.items():
            def counting(*args, stage=getattr(bound_engine, name), seen=seen):
                seen.append(args[1:])
                return stage(*args)

            monkeypatch.setattr(bound_engine, name, counting)
        upper_limit.cache_clear()
        bound_engine._cell_reference.cache_clear()
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 8))
        upper_limit(ComponentKind.LUMINANCE, q, refinement)
        assert calls["enumerate_deltas"] == [(bound_engine._LOSS_HEAD,)]
        assert len(calls["refine_maxconfig"]) == maxconfig
        assert calls["refine_capacity"] == [((54, 15, 3),)] * capacity

    def test_component_mismatch(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        with pytest.raises(ParameterError):
            upper_limit(ComponentKind.LUMINANCE, q)

    def test_unsupported_user_table(self):
        q = QuantTable(ComponentKind.LUMINANCE, (150,) * 63)
        with pytest.raises(ParameterError):
            upper_limit(ComponentKind.LUMINANCE, q)

    def test_user_table_within_regime(self):
        q = QuantTable(ComponentKind.LUMINANCE, (3,) * 63)
        result = upper_limit(ComponentKind.LUMINANCE, q)
        ref = reference_length(ComponentKind.LUMINANCE, pow2_table(q))
        assert result.limit >= ref.ref_len

    def test_objective_matches_fraction_recount(self, component, rng):
        # recount every objective cell in Fraction arithmetic off the paper table
        def per_position(e):
            return Fraction(e.value, SCALE)

        for _ in range(10):
            ref = reference_config(component, rng.integers(0, 7, size=63))
            for refinement in Refinement:
                result = solve_limit(ref, refinement)
                sets = build_sets(ref, refinement)
                # the 54 smallest copies lie in the 54 smallest entries, and
                # every negative copy in the negative entries
                negative = sum(e.value < 0 for e in sets.losses)
                entries = heapq.nsmallest(max(54, negative), sets.losses, key=per_position)
                losses = list(accumulate(sorted(
                    per_position(e) for e in entries for _ in range(e.multiplicity)
                ), initial=0))
                gains9 = heapq.nlargest(15, map(per_position, sets.gains9))
                gains10 = heapq.nlargest(3, map(per_position, sets.gains10))
                for (a, b), value in result.objective.items():
                    # the least loss sum over at least the 3a + 15b forced copies
                    expected = sum(gains9[:a]) + sum(gains10[:b]) - min(losses[3 * a + 15 * b:])
                    assert value == expected, (refinement, a, b)
                best = max(result.objective.values())
                assert result.limit == ref.ref_len + math.ceil(best)
                assert result.objective[result.argmax] == best

    @pytest.mark.parametrize("exponents", [(6, 2), (6, 0) * 31 + (6,)])
    def test_limit_charges_every_negative_copy(self, component, exponents):
        # k, the copies of the negative loss rows: the loss prefix runs to
        # max(54, k) copies, is least at k, and each pair is charged
        # max(3a + 15b, k) copies
        ref = reference_config(component, exponents)
        for refinement in Refinement:
            k = sum(e.multiplicity for e in build_sets(ref, refinement).losses if e.value < 0)
            result = solve_limit(ref, refinement)
            losses = result.loss_prefix
            assert k > 0 and len(losses) == max(limit_stops(ref)[0], k) + 1
            assert losses.index(min(losses)) == k
            for (a, b), value in result.scaled_objective.items():
                charged = losses[max(3 * a + 15 * b, k)]
                assert value == result.gain9_prefix[a] + result.gain10_prefix[b] - charged

    def test_json_payload(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        payload = upper_limit(ComponentKind.CHROMINANCE, q).to_json_dict()
        assert payload["component"] == "chrominance"
        assert payload["sf"] == "1"
        assert payload["limit"] == 349
        assert payload["argmax"] == [0, 0]
        assert len(payload["objective_table"]) == 40


class TestRefinements:
    def test_capacity_caps_copies_per_position(self):
        ref, base = chroma_sf1_sets()
        capped = refine_capacity(base)
        n = ref.n_positions
        # the three overlapping two-position run demotions at the tail carry
        # six copies before pruning and at most four (one per position) after
        def tail_copies(sets):
            return sum(
                e.multiplicity for e in sets.losses
                if e.op_kind is OpKind.OP2 and e.runlength == 1 and e.size == 1
                and e.position >= 61
            )

        assert tail_copies(base) == 6
        assert tail_copies(capped) <= 4
        # per value tier, retained copies never exceed the covered positions
        copies = {}
        covered = {}
        for e in capped.losses:
            v = Fraction(e.value, SCALE)
            copies[v] = copies.get(v, 0) + e.multiplicity
            covered.setdefault(v, set()).update(footprint(e.op_kind, e.position, e.runlength, n))
        for v, count in copies.items():
            assert count <= len(covered[v])
            assert count <= n

    def test_capacity_is_subset(self):
        ref, base = chroma_sf1_sets()
        capped = refine_capacity(base)
        capped_losses, capped9, _ = prefix_sums(capped, (54, 15, 0))
        base_losses, base9, _ = prefix_sums(base, (54, 15, 0))
        for n in (1, 10, 37, 54):
            assert capped_losses[n] >= base_losses[n]
        for a in (1, 7, 15):
            assert capped9[a] <= base9[a]
        assert capped.refinement is Refinement.CAPACITY

    def test_maxconfig_keeps_small_sizes(self):
        ref, base = chroma_sf1_sets()
        tight = refine_maxconfig(base, ref)
        kept = {
            (e.op_kind, e.position, e.runlength, e.size)
            for e in tight.losses + tight.gains9 + tight.gains10
        }
        for e in base.losses + base.gains9 + base.gains10:
            if e.size <= 2:
                assert (e.op_kind, e.position, e.runlength, e.size) in kept

    def test_maxconfig_raises_losses(self):
        ref, base = chroma_sf1_sets()
        tight = refine_capacity(refine_maxconfig(base, ref))
        tight_losses, _, _ = prefix_sums(tight, (54, 0, 0))
        base_losses, _, _ = prefix_sums(base, (54, 0, 0))
        for n in (1, 20, 54):
            assert tight_losses[n] >= base_losses[n]
        assert tight.refinement is Refinement.MAXCONFIG


def scalar_dominated(ref, p, r, s):
    """The replacement test, one pattern at a time from ``code_length``.

    True when demoting the size-s coefficient at p (unquantized size S)
    to S - 1 and raising j = 1..3 zeros at the end or at the start of its
    run of r zeros to S - 1 gives a strictly longer code.
    """
    if s <= 2 or r < 1:
        return False
    table = table_for(ref.component)
    C = ref.exponents

    def alone(size):
        return table.code_length(0, size)

    S = s + C[p - 1]
    target = table.code_length(r, s)
    for j in range(1, min(3, r) + 1):
        sizes = [S - 1 - C[k - 1] for k in range(p - j, p)]
        if all(1 <= t <= 10 for t in sizes):
            if j < r:
                length = table.code_length(r - j, sizes[0]) + sum(map(alone, sizes[1:]))
            else:
                length = sum(map(alone, sizes))
            if length + alone(s - 1) > target:
                return True
        sizes = [S - 1 - C[k - 1] for k in range(p - r, p - r + j)]
        if all(1 <= t <= 10 for t in sizes):
            length = sum(map(alone, sizes))
            length += table.code_length(r - j, s - 1) if j < r else alone(s - 1)
            if length > target:
                return True
    return False


def set_dedup_losses(entries, n):
    """Capacity pruning of a loss set with one position set per value tier."""
    covered = {}
    out = []
    for e in entries:
        positions = covered.setdefault(e.value, set())
        fresh = [
            q for q in footprint(e.op_kind, e.position, e.runlength, n) if q not in positions
        ]
        if fresh:
            positions.update(fresh)
            out.append(dataclasses.replace(e, multiplicity=len(fresh)))
    return tuple(out)


def seen_dedup_gains(entries):
    """Capacity pruning of a gain set: the first entry per (value, position)."""
    seen = set()
    out = []
    for e in entries:
        if (e.value, e.position) not in seen:
            seen.add((e.value, e.position))
            out.append(e)
    return tuple(out)


def first_copies(entries, stop, run_on=False):
    """The shortest start of ``entries`` holding ``stop`` copies, and with
    ``run_on`` every entry of negative value, or all."""
    held = 0
    for k, e in enumerate(entries):
        if held >= stop and not (run_on and e.value < 0):
            return entries[:k]
        held += e.multiplicity
    return entries


def oracle_references(rng):
    """The 14 paper cells, seeded random 63-vectors and short instances."""
    refs = [
        reference_length(component, pow2_table(scaled_annex_k(component, sf)))
        for component in ComponentKind for sf in SF_GRID
    ]
    for component in ComponentKind:
        refs += [reference_config(component, rng.integers(0, 7, size=63)) for _ in range(6)]
        refs += [
            reference_config(component, rng.integers(0, 7, size=n)) for n in range(1, 21)
        ]
    return refs


class TestDominanceTable:
    def test_table_matches_scalar_replacement_test(self, rng):
        # all-6 and alternating 0/6 vectors put replacement sizes at the
        # edges of their validity window
        edges = [
            reference_config(component, vector)
            for component in ComponentKind
            for vector in ([6] * 63, [0, 6] * 31 + [0])
        ]
        for ref in oracle_references(rng) + edges:
            n = ref.n_positions
            count = 0
            for p in range(1, n + 1):
                for r in range(p):
                    for s in range(11):
                        expected = scalar_dominated(ref, p, r, s)
                        cell = ref.dominance[p, r, s]
                        assert cell == expected, (ref.exponents, p, r, s)
                        count += expected
            # nothing is marked outside the 0 <= r < p patterns
            assert ref.dominance.sum() == count
            assert ref.dominance.shape == (n + 1, n, 11)
            assert not ref.dominance.flags.writeable

    def test_escape_gains_dropped_exactly_when_dominated(self, component, rng):
        table = table_for(component)
        for _ in range(3):
            ref = reference_config(component, rng.integers(0, 7, size=63))
            sets = enumerate_deltas(ref)
            kept = {(e.position, e.runlength, e.size) for e in sets.gains9 + sets.gains10}
            for p in range(2, 64):
                for r in range(1, p):
                    for size in (ref.sbar[p - 1] + 1, ref.sbar[p - 1] + 2):
                        dropped = (
                            table.huffman_length(r, size) >= 15
                            and scalar_dominated(ref, p, r, size)
                        )
                        assert ((p, r, size) in kept) is not dropped, (p, r, size)


    def test_escape_grid_matches_the_huffman_lengths(self, component):
        table = table_for(component)
        expected = [[s > 0 and table.huffman_length(r, s) >= 15 for s in range(11)]
                    for r in range(63)]
        assert bound_engine._escape_grid(component).tolist() == expected


class TestCapacityBitmask:
    def test_matches_set_based_pruning(self, component, rng):
        for _ in range(4):
            ref = reference_config(component, rng.integers(0, 7, size=63))
            base = build_sets(ref, Refinement.BASE)
            for sets in (base, refine_maxconfig(base, ref)):
                assert_capped_like_the_set_rules(ref, sets)

    def test_matches_on_short_instances(self, rng):
        for n in range(1, 21):
            ref = reference_config(ComponentKind.LUMINANCE, rng.integers(0, 7, size=n))
            assert_capped_like_the_set_rules(ref, build_sets(ref, Refinement.BASE))


def assert_capped_like_the_set_rules(ref, sets):
    """``refine_capacity`` of ``sets`` against the set-based rules, whole
    and with walks stopped at a limit's counts or at small ones."""
    whole = (set_dedup_losses(sets.losses, ref.n_positions),
             seen_dedup_gains(sets.gains9), seen_dedup_gains(sets.gains10))
    capped = refine_capacity(sets)
    assert (capped.losses, capped.gains9, capped.gains10) == whole
    for stops in (limit_stops(ref), (1, 1, 1), (7, 0, 2)):
        capped = refine_capacity(sets, stops)
        expected = tuple(map(first_copies, whole, stops, (True, False, False)))
        assert (capped.losses, capped.gains9, capped.gains10) == expected, stops


EXPONENT_VECTORS = st.lists(st.integers(0, 6), min_size=1, max_size=63)


def columnar_examples(test):
    """All-0, all-6 and ascending vectors, full-length and short."""
    for n in (63, 17, 4):
        for vector in ([0] * n, [6] * n, [k * 7 // n for k in range(n)]):
            test = example(vector, ComponentKind.LUMINANCE)(test)
    return test


def limit_stops(ref):
    """(loss copies, size-9 gains, size-10 gains) a limit of ``ref`` reads."""
    pairs = bound_engine._admissible(ref.n_positions)[0]
    return (
        max(3 * a + 15 * b for a, b in pairs),
        max(a for a, _ in pairs),
        max(b for _, b in pairs),
    )


def assert_limit_reads_a_prefix(ref, stops=None):
    """At every level, each set ``build_sets`` returns with the stops a
    limit reads, or with ``stops``, is the first rows of that set without
    stops, byte for byte, and holds its stop's copies or every row."""
    stops = limit_stops(ref) if stops is None else stops
    for refinement in Refinement:
        full = build_sets(ref, refinement)
        stopped = build_sets(ref, refinement, stops)
        assert stopped.refinement is full.refinement
        for name, stop in zip(("loss_rows", "gain9_rows", "gain10_rows"), stops):
            rows, whole = getattr(stopped, name), getattr(full, name)
            case = (ref.exponents, refinement, name)
            assert whole.tobytes()[:rows.nbytes] == rows.tobytes(), case
            assert int(rows["multiplicity"].sum()) >= stop or len(rows) == len(whole), case


def scalar_enumeration(ref):
    """The base sets, one operation instance at a time from the code-length
    table and prefix sums of the reference costs, sorted as exact tuples:
    losses ascending, gains descending."""
    table = table_for(ref.component)
    dominance = ref.dominance
    n, sbar, scale = ref.n_positions, ref.sbar, bound_engine.SCALE
    prefix = list(accumulate((table.code_length(0, s) for s in sbar), initial=0))

    def cost(first, last):  # reference cost of positions first..last
        return prefix[last] - prefix[first - 1]

    def promotion(p, r, size):  # per-position value of an OP5/OP6
        return (table.code_length(r, size) - table.code_length(r, sbar[p - 1])) * scale

    losses, gains9, gains10 = [], [], []
    for p in range(1, n + 1):
        sb = sbar[p - 1]
        losses += [
            ((cost(p, p) - table.code_length(0, s)) * scale, OpKind.OP1, p, 0, s, 1)
            for s in range(1, min(sb, 8))
        ]
        gains9.append((promotion(p, 0, sb + 1), OpKind.OP5A, p, 0, sb + 1, 1))
        gains10.append((promotion(p, 0, sb + 2), OpKind.OP5B, p, 0, sb + 2, 1))
        for r in range(1, p):
            losses += [
                ((cost(p - r, p) - table.code_length(r, s)) * (scale // (r + 1)),
                 OpKind.OP2, p, r, s, r + 1)
                for s in range(1, min(sb, 8))
            ]
            losses.append((
                (cost(p - r, p) - table.code_length(r, sb)) * (scale // r),
                OpKind.OP3, p, r, sb, r,
            ))
            for kind, size, gains in ((OpKind.OP6A, sb + 1, gains9),
                                      (OpKind.OP6B, sb + 2, gains10)):
                if not (table.huffman_length(r, size) >= 15 and dominance[p, r, size]):
                    gains.append((promotion(p, r, size), kind, p, r, size, 1))
    losses += [
        ((cost(p + 1, n) - table.eob_bits) * (scale // (n - p)), OpKind.OP4, p, 0, 0, n - p)
        for p in range(1, n)
    ]

    def entries(rows, descending=False):
        rows.sort(key=lambda row: (row[0], row[1].value) + row[2:], reverse=descending)
        return tuple(DeltaEntry(kind, p, r, s, value, m) for value, kind, p, r, s, m in rows)

    return entries(losses), entries(gains9, True), entries(gains10, True)


class TestValueKey:
    def test_tier_orders_like_the_exact_fraction(self):
        # every bit total a builder can produce: at most the cost of 63
        # reference coefficients, at least minus one code length
        lengths = np.stack([table_for(component).lengths for component in ComponentKind])
        lo, hi = -int(lengths.max()), AC_POSITIONS * int(lengths[:, 0].max())
        for component in ComponentKind:
            for sf in SF_GRID:
                ref = reference_length(component, pow2_table(scaled_annex_k(component, sf)))
                sets = enumerate_deltas(ref)
                for rows in (sets.loss_rows, sets.gain9_rows, sets.gain10_rows):
                    assert lo <= rows["bits"].min() and rows["bits"].max() <= hi
        bits, width = np.meshgrid(np.arange(lo, hi + 1), np.arange(1, AC_POSITIONS + 1))
        rows = np.zeros(bits.size, bound_engine._ROW)
        rows["bits"], rows["width"] = bits.ravel(), width.ravel()
        tiers = bound_engine._tier(rows["bits"], rows["width"])
        order = np.argsort(tiers)
        tiers = tiers[order].tolist()
        values = [Fraction(b, w) for b, w in zip(rows["bits"][order].tolist(),
                                                 rows["width"][order].tolist())]
        for k in range(1, len(values)):
            if tiers[k - 1] == tiers[k]:
                assert values[k - 1] == values[k], (values[k - 1], values[k])
            else:
                assert values[k - 1] < values[k], (values[k - 1], values[k])

    def test_ties_break_by_kind_position_run_and_size(self, rng):
        # field extremes under few values, so most rows tie on value
        fields = np.array([
            (kind, p, r, size)
            for kind in range(8) for p in (0, 1, 62, 63) for r in (0, 1, 61, 62)
            for size in (0, 1, 9, 10)
        ])
        rows = np.zeros(len(fields), bound_engine._ROW)
        for k, name in enumerate(("kind", "position", "run", "size")):
            rows[name] = fields[:, k]
        rows["width"] = rng.choice([1, 2, 62, 63], size=len(rows))
        rows["bits"] = rng.integers(-3, 4, size=len(rows))
        exact = sorted(
            (Fraction(bits, width), kind, p, r, size)
            for kind, p, r, size, _, width, bits, _ in rows.tolist()
        )
        assert [
            (Fraction(bits, width), kind, p, r, size)
            for kind, p, r, size, _, width, bits, _ in by_value(rows).tolist()
        ] == exact

    def test_keys_round_trip_to_their_rows(self, rng):
        # every 63-position template row, costed by a reference with
        # negative rows, and a grid of field extremes
        names = ("kind", "position", "run", "size", "start", "width", "bits")
        cases = []
        for component in ComponentKind:
            t = bound_engine._loss_template(component, AC_POSITIONS)
            low = t.low.astype(np.int64)
            columns = [low >> shift & mask for shift, mask in
                       ((28, 7), (22, 63), (16, 63), (12, 15), (6, 63), (0, 63))]
            assert np.array_equal(bound_engine._low_key(*columns), t.low)
            ref = reference_config(component, rng.integers(0, 7, size=AC_POSITIONS))
            bits = bound_engine._loss_bits(ref.prefix, t.hi, t.lo, t.sub)
            assert (bits < 0).any()
            cases.append((*columns, bits))
        cases.append(np.array(list(product(
            range(8), (0, 63), (0, 62), (0, 10), (0, 63), (1, 63), (-32768, -1, 0, 1, 32767),
        ))).T)
        for case in cases:
            expected = np.zeros(len(case[0]), bound_engine._ROW)
            for name, column in zip(names, case):
                expected[name] = column
            expected["multiplicity"] = expected["width"]
            key = bound_engine._sort_key(case[-1], bound_engine._low_key(*case[:-1]))
            assert bound_engine._key_rows(key).tobytes() == expected.tobytes()

    def test_sort_ignores_the_input_order(self, rng):
        # a shuffled set sorts back to the same bytes, a gain set read
        # largest first: the key is unique
        for ref in oracle_references(rng)[::4]:
            sets = enumerate_deltas(ref)
            for rows, descending in (
                (sets.loss_rows, False), (sets.gain9_rows, True), (sets.gain10_rows, True),
            ):
                for order in (rng.permutation(len(rows)), np.arange(len(rows))[::-1]):
                    assert by_value(rows[order], descending).tobytes() == rows.tobytes()


class TestColumnarSets:
    def test_enumeration_matches_the_scalar_loop(self, rng):
        for ref in oracle_references(rng):
            sets = enumerate_deltas(ref)
            assert (sets.losses, sets.gains9, sets.gains10) == scalar_enumeration(ref)

    @given(EXPONENT_VECTORS, st.sampled_from(list(ComponentKind)))
    @settings(max_examples=25, deadline=None)
    @columnar_examples
    def test_stopping_walk_reads_the_full_walk_prefixes(self, exponents, component):
        assert_limit_reads_a_prefix(reference_config(component, exponents))

    def test_limit_sets_are_prefixes_of_build_sets(self, rng):
        # the paper cells, 50 random 63-vectors and short instances
        refs = oracle_references(rng) + [
            reference_config(list(ComponentKind)[k % 2], rng.integers(0, 7, size=63))
            for k in range(38)
        ]
        for ref in refs:
            assert_limit_reads_a_prefix(ref)

    def test_gain_stops_past_a_short_set_read_the_whole_set(self, rng):
        # every gain set of n positions holds at most n(n + 1)/2 rows, so
        # stops of 63**2 gains walk each set to its end
        for n in range(1, 21):
            for component in ComponentKind:
                ref = reference_config(component, rng.integers(0, 7, size=n))
                assert len(ref.base_sets.gain9_rows) < AC_POSITIONS ** 2
                assert_limit_reads_a_prefix(
                    ref, (limit_stops(ref)[0], AC_POSITIONS ** 2, AC_POSITIONS ** 2))

    def test_limit_prefixes_equal_the_full_sets(self, rng):
        # the sums a limit maximized, against the entries of build_sets:
        # the paper cells, 50 random 63-vectors and short instances
        refs = oracle_references(rng) + [
            reference_config(list(ComponentKind)[k % 2], rng.integers(0, 7, size=63))
            for k in range(38)
        ]
        for ref in refs:
            counts = limit_stops(ref)
            for refinement in Refinement:
                try:
                    result = solve_limit(ref, refinement)
                except LossSetExhaustedError:
                    assert ref.n_positions < AC_POSITIONS
                    continue  # see test_exhaustion_on_short_instances
                assert (result.loss_prefix, result.gain9_prefix, result.gain10_prefix) == (
                    prefix_sums(build_sets(ref, refinement), counts)
                ), (ref.exponents, refinement)

    @given(EXPONENT_VECTORS, st.sampled_from(list(ComponentKind)))
    @settings(max_examples=15, deadline=None)
    @columnar_examples
    def test_entries_follow_the_exact_value_order(self, exponents, component):
        # the integer sort key must agree with exact (value, kind, p, r, s) order
        ref = reference_config(component, exponents)
        # losses ascending, gains descending
        for refinement in Refinement:
            sets = build_sets(ref, refinement)
            for rows, entries, descending in (
                (sets.loss_rows, sets.losses, False),
                (sets.gain9_rows, sets.gains9, True),
                (sets.gain10_rows, sets.gains10, True),
            ):
                exact = sorted(
                    ((Fraction(bits, width), kind, p, r, s, m)
                     for kind, p, r, s, _, width, bits, m in rows.tolist()),
                    reverse=descending,
                )
                assert [
                    (Fraction(e.value, SCALE), KIND_ORDER.index(e.op_kind), e.position,
                     e.runlength, e.size, e.multiplicity)
                    for e in entries
                ] == exact

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=20),
           st.sampled_from(list(ComponentKind)))
    @settings(max_examples=25, deadline=None)
    @example([6], ComponentKind.CHROMINANCE)
    @example([0] * 5, ComponentKind.LUMINANCE)
    def test_exhaustion_on_short_instances(self, exponents, component):
        ref = reference_config(component, exponents)
        loss_stop, stop9, stop10 = limit_stops(ref)
        for refinement in Refinement:
            sets = build_sets(ref, refinement)
            copies = sum(e.multiplicity for e in sets.losses)
            short = (
                copies < loss_stop or len(sets.gains9) < stop9 or len(sets.gains10) < stop10
            )
            if short:
                with pytest.raises(LossSetExhaustedError):
                    solve_limit(ref, refinement)
            else:
                assert solve_limit(ref, refinement) == solve_limit(ref, sets=sets)

    @pytest.mark.parametrize("field, stop",
                             [("gain9_rows", 15), ("gain10_rows", 3), ("loss_rows", 54)])
    def test_gain_exhaustion_on_cut_sets(self, field, stop):
        # the sets the engine builds always hold the copies a limit reads, so
        # only sets a caller cuts short reach either half of this check
        ref, sets = chroma_sf1_sets()
        assert ref.n_positions == 63 and limit_stops(ref) == (54, 15, 3)
        rows = getattr(sets, field)
        assert (rows["multiplicity"][:stop] == 1).all()  # one copy per row
        if field == "loss_rows":
            match = f"^needed {stop} loss copies, have {stop - 1}$"
        else:
            match = "^gain sets too small for the admissible pairs$"
        with pytest.raises(LossSetExhaustedError, match=match):
            solve_limit(ref, sets=dataclasses.replace(sets, **{field: rows[:stop - 1]}))
        assert solve_limit(ref, sets=dataclasses.replace(sets, **{field: rows[:stop]})) == (
            solve_limit(ref)
        )

    @pytest.mark.parametrize("exponents", [[0] * 63, [6] * 63, [k // 10 for k in range(63)]])
    def test_limit_path_builds_no_entry(self, monkeypatch, exponents):
        built = []

        def counting_entry(*args):
            built.append(args)
            return DeltaEntry(*args)

        monkeypatch.setattr(bound_engine, "DeltaEntry", counting_entry)
        ref = reference_config(ComponentKind.CHROMINANCE, exponents)
        for refinement in Refinement:
            solve_limit(ref, refinement)
        assert built == []
        # the stand-in does count: reading the entry tuples builds them
        assert len(build_sets(ref, Refinement.BASE).losses) == len(built) > 0

    @pytest.mark.parametrize("exponents", [[0] * 63, [6] * 63, [k // 10 for k in range(63)]])
    def test_limit_path_builds_no_fraction_and_no_full_sets(self, monkeypatch, exponents):
        built = []

        def counting_fraction(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(bound_engine, "Fraction", counting_fraction)
        ref = reference_config(ComponentKind.LUMINANCE, exponents)
        results = [solve_limit(ref, refinement) for refinement in Refinement]
        assert built == []
        assert "base_sets" not in ref.__dict__
        # the stand-in does count: reading an objective builds its Fractions
        assert len(results[0].objective) == len(built) == 40
        assert results[0].objective == {
            pair: Fraction(v, SCALE) for pair, v in results[0].scaled_objective.items()
        }

    def test_row_bytes_are_deterministic(self):
        row_bytes = []
        for _ in range(2):
            ref = reference_config(ComponentKind.LUMINANCE, [k // 10 for k in range(63)])
            levels = [build_sets(ref, refinement) for refinement in Refinement]
            row_bytes.append([
                rows.tobytes()
                for sets in levels for rows in (sets.loss_rows, sets.gain9_rows, sets.gain10_rows)
            ])
        assert row_bytes[0] == row_bytes[1]
        dtype = levels[0].loss_rows.dtype
        used = {
            byte for field, offset in dtype.fields.values()
            for byte in range(offset, offset + field.itemsize)
        }
        padding = [byte for byte in range(dtype.itemsize) if byte not in used]
        assert padding
        for sets in levels:
            for rows in (sets.loss_rows, sets.gain9_rows, sets.gain10_rows):
                raw = np.frombuffer(rows.tobytes(), np.uint8).reshape(len(rows), dtype.itemsize)
                assert not raw[:, padding].any()


PAPER_LEVEL_LIMITS = {
    ComponentKind.LUMINANCE: dict(zip(SF_GRID, (1134, 956, 812, 715, 654, 517, 447))),
    ComponentKind.CHROMINANCE: dict(zip(SF_GRID, (1071, 797, 666, 603, 593, 468, 349))),
}


def limit_or_exhaustion(ref, refinement, sets=None):
    try:
        return solve_limit(ref, refinement, sets=sets).to_json_dict()
    except LossSetExhaustedError as exc:
        return str(exc)


class TestLossHead:
    """A limit orders only the smallest ``_LOSS_HEAD`` loss rows and makes
    its level from the full order only when a walk runs past them; tiny
    heads force that."""

    @pytest.mark.parametrize("head", [1, 8])
    def test_small_heads_keep_the_paper_limits(self, monkeypatch, head):
        monkeypatch.setattr(bound_engine, "_LOSS_HEAD", head)
        for component, limits in PAPER_LEVEL_LIMITS.items():
            for sf, limit in limits.items():
                exponents = pow2_table(scaled_annex_k(component, sf))
                ref = reference_length(component, exponents)
                for refinement in Refinement:
                    result = solve_limit(ref, refinement)
                    assert result.limit == limit, (component, sf, refinement)
                    assert result == solve_limit(reference_length(component, exponents),
                                                 refinement, sets=build_sets(ref, refinement))

    @pytest.mark.parametrize("head", [1, 8, None])
    def test_random_vectors_match_the_full_sets(self, monkeypatch, rng, head):
        if head is not None:
            monkeypatch.setattr(bound_engine, "_LOSS_HEAD", head)
        fell_back = 0
        for k in range(12):
            exponents = rng.integers(0, 7, size=63)
            ref = reference_config(list(ComponentKind)[k % 2], exponents)
            for refinement in Refinement:
                full = reference_config(ref.component, exponents)
                expected = solve_limit(full, refinement, sets=build_sets(full, refinement))
                assert solve_limit(ref, refinement) == expected
            fell_back += "base_sets" in ref.__dict__
        # a head of 1 or 8 rows is too short for the capacity walks, 256 is not
        assert fell_back == (0 if head is None else 12)

    def test_a_head_ending_in_a_negative_row_falls_back(self, monkeypatch):
        # (6, 0) repeated has 62 negative loss rows, 93 copies: a head of 54
        # rows holds 77 of them, more than the 54 a limit's walk stops at
        monkeypatch.setattr(bound_engine, "_LOSS_HEAD", 54)
        exponents = (6, 0) * 31 + (6,)
        for component in ComponentKind:
            ref = reference_config(component, exponents)
            head = ref.head_sets.loss_rows
            assert head["bits"][-1] < 0 and head["multiplicity"].sum() > 54
            for refinement in Refinement:
                full = reference_config(component, exponents)
                expected = solve_limit(full, refinement, sets=build_sets(full, refinement))
                assert solve_limit(ref, refinement) == expected, (component, refinement)
            assert "base_sets" in ref.__dict__

    @pytest.mark.parametrize("head", [1, 8, None])
    def test_short_instances_exhaust_where_the_full_sets_do(self, monkeypatch, rng, head):
        if head is not None:
            monkeypatch.setattr(bound_engine, "_LOSS_HEAD", head)
        for n in range(1, 21):
            for component in ComponentKind:
                exponents = rng.integers(0, 7, size=n)
                for refinement in Refinement:
                    full = reference_config(component, exponents)
                    expected = limit_or_exhaustion(full, refinement, build_sets(full, refinement))
                    ref = reference_config(component, exponents)
                    assert limit_or_exhaustion(ref, refinement) == expected, (exponents, refinement)

    @pytest.mark.parametrize("head", [1, 8, None])
    def test_head_is_the_start_of_the_full_order(self, monkeypatch, rng, head):
        if head is not None:
            monkeypatch.setattr(bound_engine, "_LOSS_HEAD", head)
        vectors = [
            (component, pow2_table(scaled_annex_k(component, sf)))
            for component in ComponentKind for sf in SF_GRID
        ] + [(list(ComponentKind)[k % 2], rng.integers(0, 7, size=63)) for k in range(10)]
        for component, exponents in vectors:
            ref = reference_config(component, exponents)
            head_sets, full = ref.head_sets, build_sets(ref, Refinement.BASE)
            assert len(head_sets.loss_rows) == min(bound_engine._LOSS_HEAD, len(full.loss_rows))
            assert head_sets.loss_rows.tobytes() == (
                full.loss_rows[:len(head_sets.loss_rows)].tobytes()
            )
            for rows in ("gain9_rows", "gain10_rows"):
                assert getattr(head_sets, rows).tobytes() == getattr(full, rows).tobytes()
            assert head_sets.census == full.census

    @pytest.mark.parametrize("exponents", [[0] * 63, [k // 10 for k in range(63)], [3] * 9])
    def test_sets_without_a_stop_never_order_a_head(self, exponents):
        ref = reference_config(ComponentKind.LUMINANCE, exponents)
        for refinement in Refinement:
            build_sets(ref, refinement)
        assert "head_sets" not in ref.__dict__
        assert "base_sets" in ref.__dict__

    def test_template_is_cached_read_only_and_narrow(self):
        n = 63
        template = bound_engine._loss_template(ComponentKind.LUMINANCE, n)
        assert bound_engine._loss_template(ComponentKind.LUMINANCE, n) is template
        rows = 7 * n * (n + 1) // 2 + 7 * n * (n - 1) // 2 + n - 1
        for name, array in vars(template).items():
            assert not array.flags.writeable, name
            if name == "blocks_at":
                assert array.shape == (n, 15)
            else:
                assert array.shape == (rows,), name
                # only the packed key bits need 32 bits; the rest fit 8 or 16
                allowed = (np.int32,) if name == "low" else (np.uint8, np.int16)
                assert array.dtype.type in allowed, name


def run_bound_vectors(rng):
    """The 14 paper cells, and random vectors of 12, 20 and 63 positions."""
    return [
        (component, pow2_table(scaled_annex_k(component, sf)))
        for component in ComponentKind for sf in SF_GRID
    ] + [(list(ComponentKind)[k % 2], rng.integers(0, 7, size=n))
         for n in (12, 20, 63) for k in range(8)]


def count_cuts(monkeypatch):
    """Count the heads ``_loss_rows`` cuts at the long-run floor: heads
    with fewer rows than asked for, though the full order holds them."""
    cuts = []
    loss_rows = bound_engine._loss_rows

    def recording(ref, head=None):
        rows = loss_rows(ref, head)
        if head is not None:
            cuts.append(len(rows) < min(head, len(loss_rows(ref))))
        return rows

    monkeypatch.setattr(bound_engine, "_loss_rows", recording)
    return lambda: sum(cuts)


def scalar_floor(ref, bound):
    """``_long_run_floor`` recounted per run and kind: the cheapest window
    of r + 1 positions less the longest code of run r over the sizes the
    reference can take there, demoted below its largest size V or kept at
    most V."""
    lengths = table_for(ref.component).lengths
    prefix = ref.prefix.tolist()
    largest = max(ref.sbar)
    floors = {}
    for r in range(bound + 1, ref.n_positions):
        least = min(prefix[p] - prefix[p - r - 1] for p in range(r + 1, ref.n_positions + 1))
        floors[r] = (
            ((least - max(int(lengths[r, s]) for s in range(1, largest))) << 12) // (r + 1),
            ((least - max(int(lengths[r, s]) for s in range(2, largest + 1))) << 12) // r,
        )
    return floors


def held_arrays(value) -> list:
    """Every numpy array ``value`` holds, through tuples and dataclass fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in held_arrays(item)]
    return []


class TestRunBound:
    """A loss head orders only the rows with runs of at most
    ``_RUN_BOUND`` and keeps those below the long-run floor: a prefix of
    the full order."""

    @pytest.mark.parametrize("head", [8, 54, 256])
    def test_head_equals_the_full_order_head(self, monkeypatch, rng, head):
        cuts = count_cuts(monkeypatch)
        for component, exponents in run_bound_vectors(rng):
            ref = reference_config(component, exponents)
            full = bound_engine._loss_rows(ref)  # without a head: the full order
            before = cuts()
            rows = bound_engine._loss_rows(ref, head)
            assert len(rows) <= head
            assert rows.tobytes() == full[:len(rows)].tobytes(), (component, exponents)
            # a short instance's head reaches far up its few rows and may be
            # cut; no 63-position head is
            if len(exponents) == AC_POSITIONS:
                assert cuts() == before, (component, exponents)

    @pytest.mark.parametrize("bound", [0, 1])
    def test_cut_heads_keep_every_limit(self, monkeypatch, rng, bound):
        monkeypatch.setattr(bound_engine, "_RUN_BOUND", bound)
        cuts = count_cuts(monkeypatch)
        for component, exponents in run_bound_vectors(rng):
            ref = reference_config(component, exponents)
            for refinement in Refinement:
                full = reference_config(component, exponents)
                assert limit_or_exhaustion(ref, refinement) == limit_or_exhaustion(
                    full, refinement, build_sets(full, refinement)), (exponents, refinement)
            head = ref.head_sets.loss_rows
            base = build_sets(ref, Refinement.BASE).loss_rows
            assert head.tobytes() == base[:len(head)].tobytes()
        assert cuts() > 0

    @pytest.mark.parametrize("bound", [1, 10])
    def test_floor_bounds_every_longer_run(self, rng, bound):
        for component, exponents in run_bound_vectors(rng):
            ref = reference_config(component, exponents)
            floor = bound_engine._long_run_floor(ref, bound)
            if ref.n_positions <= bound + 1:
                assert floor is None
                continue
            floors = scalar_floor(ref, bound)
            assert floor == min(map(min, floors.values()))
            rows = bound_engine._loss_rows(ref)
            tiers = bound_engine._tier(rows["bits"], rows["width"])
            for (kind, _, r, *_), tier in zip(rows.tolist(), tiers.tolist()):
                if r > bound:
                    demoted, kept = floors[r]
                    assert tier >= (kept if KIND_ORDER[kind] is OpKind.OP3 else demoted)

    def test_small_sizes_lift_the_floor_above_the_head(self):
        # the luminance sf 1 reference has sizes 2..5, so its longer runs
        # are charged codes of size 5 at most: the floor, tier 10,240,
        # clears the 256th short-run row at tier 9,216, and no row is cut
        exponents = pow2_table(scaled_annex_k(ComponentKind.LUMINANCE, 1))
        ref = reference_length(ComponentKind.LUMINANCE, exponents)
        full = bound_engine._loss_rows(ref)
        short = full[full["run"] <= bound_engine._RUN_BOUND]
        floor = bound_engine._long_run_floor(ref, bound_engine._RUN_BOUND)
        last = short[bound_engine._LOSS_HEAD - 1]
        assert floor > bound_engine._tier(last["bits"], last["width"])
        assert len(ref.head_sets.loss_rows) == bound_engine._LOSS_HEAD

    @pytest.mark.parametrize("n", [1, 12, 40, 63])
    def test_held_rows_are_the_rows_the_sizes_pick(self, rng, n):
        sizes = 8 - rng.integers(0, 7, size=n)
        t = bound_engine._loss_template(ComponentKind.CHROMINANCE, n)
        # the kind, position, run and size fields of each row's key
        low = t.low.astype(np.intp)
        kind = np.array(KIND_ORDER)[low >> 28]
        position, run, size = low >> 22 & 63, low >> 16 & 63, low >> 12 & 15
        v = sizes[position - 1]
        eob = kind == OpKind.OP4
        kept = kind == OpKind.OP3
        picked = eob | np.where(kept, size == v, size < v)
        for bound in (0, 10, n):
            held = bound_engine._held(t, sizes, bound)
            expected = np.flatnonzero(picked & (eob | (run <= bound)))
            assert np.array_equal(np.sort(held), expected), bound

    def test_caches_are_read_only(self):
        # every cached builder of the package, with the arguments to build one
        component = ComponentKind.CHROMINANCE
        q = scaled_annex_k(component, 1)
        builders = {
            bound_engine._admissible: (63,),
            bound_engine._escape_grid: (component,),
            bound_engine._replacement_terms: (component, 63),
            bound_engine._loss_template: (component, 63),
            bound_engine._short_runs: (63, 10),
            bound_engine._long_runs: (component, 63, 10),
            bound_engine._gain_terms: (component, 63),
            bound_engine.upper_limit: (component, q),
            bound_engine._cell_reference: (component, pow2_table(q)),
            verification._factor_row: (q.q,),
            verification._code_lengths: (component,),
            verification._columns: (63,),
            verification._climb_starts: (),
        }
        cached = {
            value for module in (bound_engine, verification, entropy_model, quantization,
                                 transform, cli)
            for value in vars(module).values() if hasattr(value, "cache_info")
        }
        assert cached == set(builders)
        ref = bound_engine._cell_reference(*builders[bound_engine._cell_reference])
        arrays = [ref.sbar_array, ref.prefix, ref.dominance, table_for(component).lengths]
        for sets in (ref.head_sets, ref.base_sets):
            arrays += [sets.loss_rows, sets.gain9_rows, sets.gain10_rows]
        for builder, args in builders.items():
            value = builder(*args)
            assert builder(*args) is value, builder
            arrays += held_arrays(value)
        assert len(arrays) > 40
        for array in arrays:
            assert not array.flags.writeable


class TestGainTerms:
    def test_gain_rows_match_the_per_reference_builder(self, rng):
        refs = oracle_references(rng) + [
            reference_config(component, rng.integers(0, 7, size=n))
            for component in ComponentKind for n in (21, 40, 62, 63)
        ]
        for ref in refs:
            gains = bound_engine._gain_sets(ref)
            for step, rows in zip((1, 2), gains):
                assert rows.tobytes() == gain_rows(ref, step).tobytes(), (ref.exponents, step)

    def test_terms_are_cached_and_read_only(self):
        terms = bound_engine._gain_terms(ComponentKind.LUMINANCE, 63)
        assert bound_engine._gain_terms(ComponentKind.LUMINANCE, 63) is terms
        for array in (*terms.keys, *terms.escapes, terms.at, terms.pick, terms.position,
                      terms.cell):
            assert not array.flags.writeable
            assert len(array) in (7 * 63, 63 * 64 // 2)


class TestGeneralizedInstances:
    def test_small_instance_reference(self):
        ref = reference_config(ComponentKind.CHROMINANCE, (0, 0, 0, 0))
        assert ref.ref_len == 4 * 17
        result = solve_limit(ref, Refinement.BASE)
        assert result.limit == 68


class TestDecompose:
    def test_reference_target_is_identity(self):
        ref, _ = chroma_sf1_sets()
        rows = decompose([8] * 63, ref)
        assert len(rows) == 0
        assert recompose_length(ref, rows) == ref.ref_len

    def test_all_zero_target(self):
        ref, _ = chroma_sf1_sets()
        rows = decompose([0] * 63, ref)
        assert len(rows) == 1
        assert KIND_ORDER[rows["kind"][0]] is OpKind.OP4
        assert recompose_length(ref, rows) == table_for(ref.component).eob_bits

    def test_returns_rows_carrying_all_their_copies(self, rng):
        ref, _ = chroma_sf1_sets()
        for _ in range(50):
            rows = decompose(random_reduced_sizes(rng, ref), ref)
            assert rows.dtype == bound_engine._ROW
            assert (rows["multiplicity"] == rows["width"]).all()
            assert type(recompose_length(ref, rows)) is int

    def test_rejects_ball_violation(self):
        ref, _ = chroma_sf1_sets()
        with pytest.raises(ParameterError):
            decompose([10] * 63, ref)

    @pytest.mark.parametrize("n", [62, 64])
    def test_rejects_the_wrong_number_of_sizes(self, n):
        ref, _ = chroma_sf1_sets()
        with pytest.raises(ParameterError, match=f"^expected 63 sizes, got {n}$"):
            decompose([8] * n, ref)

    def test_rejects_sizes_below_exponent(self):
        ref, _ = chroma_sf1_sets()
        target = [0] * 63
        target[20] = ref.exponents[20] - 1  # quantizes to zero: not reduced
        with pytest.raises(ParameterError):
            decompose(target, ref)

    def test_rejects_a_fractional_size(self):
        ref, _ = chroma_sf1_sets()
        target = [0] * 63
        target[20] = 7.9  # would truncate to a valid 7
        with pytest.raises(ParameterError, match="position 21: size 7.9 is not an integer"):
            decompose(target, ref)

    def test_rejects_a_negative_size(self):
        ref, _ = chroma_sf1_sets()
        target = [0] * 63
        target[20] = -1
        with pytest.raises(ParameterError, match="position 21: size -1 is not an integer"):
            decompose(target, ref)

    def test_identity_on_random_targets(self, component, rng):
        for sf in (Fraction(1, 64), Fraction(1)):
            q = scaled_annex_k(component, sf)
            ref = reference_length(component, pow2_table(q))
            table = table_for(component)
            for _ in range(300):
                target = random_reduced_sizes(rng, ref)
                rows = decompose(target, ref)
                quantized = [max(s - c, 0) for s, c in zip(target, ref.exponents)]
                direct = sequence_length(table, symbolize(quantized))
                assert recompose_length(ref, rows) == direct

    def test_rows_equal_the_builder_rows(self, rng):
        # the template and gain-key reads against the four operation builders
        refs = [reference_length(component, pow2_table(scaled_annex_k(component, sf)))
                for component in ComponentKind for sf in SF_GRID]
        refs += [reference_config(list(ComponentKind)[n % 2], rng.integers(0, 7, size=n))
                 for n in range(1, AC_POSITIONS + 1)]
        for ref in refs:
            n = ref.n_positions
            targets = [random_reduced_sizes(rng, ref) for _ in range(40)] + [[0] * n, [8] * n]
            for target in targets:
                rows = decompose(target, ref)
                assert rows.tobytes() == builder_decompose(target, ref).tobytes(), (ref, target)

    def test_entries_are_enumerated_deltas(self, component, rng):
        # every decompose row is a row of the base set of its sign, except
        # the whole-block EOB and gains the base level may drop: escape cells
        table = table_for(component)
        for sf in (Fraction(1, 64), Fraction(1, 8), Fraction(1)):
            ref = reference_length(component, pow2_table(scaled_annex_k(component, sf)))
            sets = enumerate_deltas(ref)
            losses = set(sets.loss_rows.tolist())
            gains = set(sets.gain9_rows.tolist() + sets.gain10_rows.tolist())
            checked = 0
            for _ in range(200):
                for row in decompose(random_reduced_sizes(rng, ref), ref).tolist():
                    kind, position, run, size = KIND_ORDER[row[0]], *row[1:4]
                    if kind is OpKind.OP4 and position == 0:
                        continue
                    if kind not in GAIN_KINDS:
                        assert row in losses, (sf, kind, row)
                    elif table.huffman_length(run, size) < 15:
                        assert row in gains, (sf, kind, row)
                    else:
                        continue
                    checked += 1
            assert checked > 1000

    def test_identity_on_short_references(self, component, rng):
        for n in range(1, 21):
            ref = reference_config(component, rng.integers(0, 7, size=n))
            targets = [random_reduced_sizes(rng, ref) for _ in range(60)] + [[0] * n]
            quantized = np.array([
                [max(s - c, 0) for s, c in zip(target, ref.exponents)] for target in targets
            ])
            direct = ac_bits_from_sizes(quantized, component)
            for target, bits in zip(targets, direct.tolist()):
                assert recompose_length(ref, decompose(target, ref)) == bits, (ref, target)

    def test_kinds_are_labelled_by_run(self):
        # bare demotion, run demotion, bare size 9, run then size 10, zero tail
        ref, _ = chroma_sf1_sets()
        table, sbar = table_for(ref.component), ref.sbar
        target = [7, 0, 0, 6, 9, 0, 10] + [8] * 12 + [0] * 44
        assert ref.exponents[:7] == (4, 4, 4, 4, 4, 5, 4)

        def cost(first, last):  # reference cost of positions first..last
            return sum(table.code_length(0, s) for s in sbar[first - 1:last])

        rows = decompose(target, ref)
        assert [
            (KIND_ORDER[kind], p, r, s, start, Fraction(bits, width), m)
            for kind, p, r, s, start, width, bits, m in rows.tolist()
        ] == [
            (OpKind.OP4, 19, 0, 0, 20, Fraction(cost(20, 63) - table.eob_bits, 44), 44),
            (OpKind.OP1, 1, 0, 3, 1, Fraction(cost(1, 1) - table.code_length(0, 3)), 1),
            (OpKind.OP2, 4, 2, 2, 2, Fraction(cost(2, 4) - table.code_length(2, 2), 3), 3),
            (OpKind.OP5A, 5, 0, 5, 5, Fraction(table.code_length(0, 5) - cost(5, 5)), 1),
            (OpKind.OP3, 7, 1, 4, 6, Fraction(cost(6, 7) - table.code_length(1, 4)), 1),
            (OpKind.OP6B, 7, 1, 6, 7,
             Fraction(table.code_length(1, 6) - table.code_length(1, 4)), 1),
        ]
        quantized = [max(s - c, 0) for s, c in zip(target, ref.exponents)]
        assert recompose_length(ref, rows) == sequence_length(table, symbolize(quantized))

    def test_operation_kinds_partition_positions(self, rng):
        ref, _ = chroma_sf1_sets()
        for _ in range(100):
            target = random_reduced_sizes(rng, ref)
            rows = decompose(target, ref).tolist()
            covered = []
            for kind, position, run, *_ in rows:
                if KIND_ORDER[kind] in (OpKind.OP6A, OpKind.OP6B):
                    continue  # shares its run with the preceding OP3
                covered.extend(footprint(KIND_ORDER[kind], position, run, 63))
            changed = [
                p for p in range(1, 64)
                if target[p - 1] != 8
            ]
            assert sorted(covered) == sorted(set(covered))
            assert set(changed) <= set(covered) | {position for _, position, *_ in rows}


class TestSoundnessAgainstDirectEnumeration:
    def test_random_reduced_configurations_stay_under_limits(self, component, rng):
        per_setting = 17_000  # about 1e5 vectors over the six settings
        for sf in (Fraction(1, 64), Fraction(1, 6), Fraction(1)):
            q = scaled_annex_k(component, sf)
            ref = reference_length(component, pow2_table(q))
            limits = {r: solve_limit(ref, r, sf=sf).limit for r in Refinement}
            assert limits[Refinement.MAXCONFIG] <= limits[Refinement.CAPACITY]
            assert limits[Refinement.CAPACITY] <= limits[Refinement.BASE]
            quantized = np.array([
                [max(s - c, 0) for s, c in zip(random_reduced_sizes(rng, ref), ref.exponents)]
                for _ in range(per_setting)
            ])
            bits = ac_bits_from_sizes(quantized, component)
            exact, tight = toy_oracle(63, component, ref.exponents)
            assert tight == limits[Refinement.MAXCONFIG]
            assert int(bits.max()) <= exact <= limits[Refinement.MAXCONFIG]
            # spot-check the vectorized costs against the symbol pipeline
            table = table_for(component)
            for i in range(0, per_setting, 1700):
                direct = sequence_length(table, symbolize(list(quantized[i])))
                assert direct == bits[i]
