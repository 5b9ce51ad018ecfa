import dataclasses
import heapq
import math
from fractions import Fraction

import numpy as np
import pytest

from acbound import bound_engine
from acbound.bound_engine import (
    ConstraintError,
    LossSetExhaustedError,
    OpKind,
    Refinement,
    admissible_pairs,
    build_sets,
    decompose,
    enumerate_deltas,
    gain_functions,
    loss_function,
    recompose_length,
    reference_config,
    reference_length,
    refine_capacity,
    refine_maxconfig,
    solve_limit,
    upper_limit,
)
from acbound.entropy_model import ComponentKind, sequence_length, symbolize, table_for
from acbound.quantization import (
    QuantTable,
    UnsupportedTableError,
    pow2_table,
    scaled_annex_k,
)
from acbound.verification import random_reduced_sizes, toy_oracle

SF_GRID = [Fraction(s) for s in ("1/64", "1/16", "1/8", "1/6", "1/4", "1/2", "1")]


def chroma_sf1_sets(refinement=Refinement.BASE):
    q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
    ref = reference_length(ComponentKind.CHROMINANCE, pow2_table(q))
    return ref, build_sets(ref, refinement)


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
        with pytest.raises(UnsupportedTableError):
            reference_config(ComponentKind.LUMINANCE, (7,) * 63)

    def test_rejects_more_than_63_positions(self):
        with pytest.raises(UnsupportedTableError):
            reference_config(ComponentKind.LUMINANCE, (0,) * 64)


class TestAdmissiblePairs:
    def test_cardinality_and_extremes(self):
        pairs = admissible_pairs()
        assert len(pairs) == 40
        assert (15, 0) in pairs and (3, 3) in pairs
        assert (16, 0) not in pairs and (0, 4) not in pairs
        assert max(3 * a + 15 * b for a, b in pairs) == 54

    def test_generalized_instance(self):
        pairs = admissible_pairs(6)
        assert pairs == [(0, 0), (1, 0)]


class TestWorkedExampleDeltas:
    def test_single_demotion_one_step_is_two_bits(self):
        ref, sets = chroma_sf1_sets()
        for p in range(1, 64):
            entry = find(sets.losses, OpKind.OP1, p, size=ref.sbar[p - 1] - 1)
            assert len(entry) == 1
            assert entry[0].per_position_value == 2

    def test_run_keep_loss_at_twelve(self):
        _, sets = chroma_sf1_sets()
        (entry,) = find(sets.losses, OpKind.OP3, 12, runlength=1)
        assert entry.per_position_value == 1
        assert entry.multiplicity == 1

    def test_run_demotion_half_losses(self):
        _, sets = chroma_sf1_sets()
        (entry,) = find(sets.losses, OpKind.OP2, 63, runlength=1, size=1)
        assert entry.per_position_value == Fraction(5, 2)
        assert entry.multiplicity == 2
        (entry,) = find(sets.losses, OpKind.OP2, 7, runlength=1, size=3)
        assert entry.per_position_value == Fraction(5, 2)

    def test_run_promotion_gain_at_sixteen(self):
        _, sets = chroma_sf1_sets()
        (entry,) = find(sets.gains9, OpKind.OP6A, 16, runlength=2)
        assert entry.per_position_value == 13 - 10 == 3

    def test_tail_eob_loss(self):
        _, sets = chroma_sf1_sets()
        (entry,) = find(sets.losses, OpKind.OP4, 62)
        assert entry.per_position_value == 3
        assert entry.multiplicity == 1

    def test_loss_function_values(self):
        _, sets = chroma_sf1_sets()
        assert loss_function(sets, 0) == 0
        assert loss_function(sets, 1) == 1
        for n in range(1, 55):
            assert loss_function(sets, n) == 2 * n - 1

    def test_gain_function_values(self):
        _, sets = chroma_sf1_sets()
        assert gain_functions(sets, 0, 0) == (0, 0)
        for a in range(16):
            assert gain_functions(sets, a, 0)[0] == 3 * a
        for b in range(4):
            assert gain_functions(sets, 0, b)[1] == 6 * b


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
                    assert e.per_position_value > 0, e
                else:
                    assert e.per_position_value >= 0, e
            for e in sets.gains9 + sets.gains10:
                assert e.per_position_value > 0, e

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

    def test_component_mismatch(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        with pytest.raises(ValueError):
            upper_limit(ComponentKind.LUMINANCE, q)

    def test_unsupported_user_table(self):
        q = QuantTable(ComponentKind.LUMINANCE, (150,) * 63, q00=1)
        with pytest.raises(UnsupportedTableError):
            upper_limit(ComponentKind.LUMINANCE, q)

    def test_user_table_within_regime(self):
        q = QuantTable(ComponentKind.LUMINANCE, (3,) * 63, q00=3)
        result = upper_limit(ComponentKind.LUMINANCE, q)
        ref = reference_length(ComponentKind.LUMINANCE, pow2_table(q))
        assert result.limit >= ref.ref_len

    def test_objective_matches_fraction_recount(self, component, rng):
        # recount every objective cell in Fraction arithmetic off the paper table
        def per_position(e):
            return e.per_position_value

        for _ in range(10):
            ref = reference_config(component, rng.integers(0, 7, size=63))
            for refinement in Refinement:
                result = solve_limit(ref, refinement)
                sets = build_sets(ref, refinement)
                # the 54 smallest copies lie in the 54 smallest entries
                losses = sorted(
                    per_position(e) for e in heapq.nsmallest(54, sets.losses, key=per_position)
                    for _ in range(e.multiplicity)
                )
                gains9 = heapq.nlargest(15, map(per_position, sets.gains9))
                gains10 = heapq.nlargest(3, map(per_position, sets.gains10))
                for (a, b), value in result.objective.items():
                    expected = sum(gains9[:a]) + sum(gains10[:b]) - sum(losses[:3 * a + 15 * b])
                    assert value == expected, (refinement, a, b)
                best = max(result.objective.values())
                assert result.limit == ref.ref_len + math.ceil(best)
                assert result.objective[result.argmax] == best

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
        n = base.n_positions
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
            v = e.per_position_value
            copies[v] = copies.get(v, 0) + e.multiplicity
            covered.setdefault(v, set()).update(e.footprint(n))
        for v, count in copies.items():
            assert count <= len(covered[v])
            assert count <= n

    def test_capacity_is_subset(self):
        ref, base = chroma_sf1_sets()
        capped = refine_capacity(base)
        for n in (1, 10, 37, 54):
            assert loss_function(capped, n) >= loss_function(base, n)
        for a in (1, 7, 15):
            assert gain_functions(capped, a, 0)[0] <= gain_functions(base, a, 0)[0]
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
        for n in (1, 20, 54):
            assert loss_function(tight, n) >= loss_function(base, n)
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
        fresh = [q for q in e.footprint(n) if q not in positions]
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
        for ref in oracle_references(rng):
            en = bound_engine._enumerator(ref)
            n = ref.n_positions
            count = 0
            for p in range(1, n + 1):
                for r in range(p):
                    for s in range(11):
                        expected = scalar_dominated(ref, p, r, s)
                        cell = en.dominance[en.dominance_index(p, r, s)]
                        assert cell == expected, (ref.exponents, p, r, s)
                        count += expected
            # nothing is marked outside the 0 <= r < p patterns
            assert sum(en.dominance) == count

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


class TestCapacityBitmask:
    def test_matches_set_based_pruning(self, component, rng):
        for _ in range(4):
            ref = reference_config(component, rng.integers(0, 7, size=63))
            base = build_sets(ref, Refinement.BASE)
            for sets in (base, refine_maxconfig(base, ref)):
                capped = refine_capacity(sets)
                assert capped.losses == set_dedup_losses(sets.losses, ref.n_positions)
                assert capped.gains9 == seen_dedup_gains(sets.gains9)
                assert capped.gains10 == seen_dedup_gains(sets.gains10)

    def test_matches_on_short_instances(self, rng):
        for n in range(1, 21):
            ref = reference_config(ComponentKind.LUMINANCE, rng.integers(0, 7, size=n))
            base = build_sets(ref, Refinement.BASE)
            capped = refine_capacity(base)
            assert capped.losses == set_dedup_losses(base.losses, n)
            assert capped.gains9 == seen_dedup_gains(base.gains9)
            assert capped.gains10 == seen_dedup_gains(base.gains10)


class TestGeneralizedInstances:
    def test_small_instance_reference(self):
        ref = reference_config(ComponentKind.CHROMINANCE, (0, 0, 0, 0))
        assert ref.ref_len == 4 * 17
        result = solve_limit(ref, Refinement.BASE)
        assert result.limit == 68

    def test_loss_set_exhaustion_guard(self):
        ref = reference_config(ComponentKind.CHROMINANCE, (0,))
        sets = build_sets(ref, Refinement.BASE)
        with pytest.raises(LossSetExhaustedError):
            loss_function(sets, 100)


class TestDecompose:
    def test_reference_target_is_identity(self):
        ref, _ = chroma_sf1_sets()
        assert decompose([8] * 63, ref) == []

    def test_all_zero_target(self):
        ref, _ = chroma_sf1_sets()
        entries = decompose([0] * 63, ref)
        assert len(entries) == 1
        assert entries[0].op_kind is OpKind.OP4
        assert recompose_length(ref, entries) == table_for(ref.component).eob_bits

    def test_rejects_ball_violation(self):
        ref, _ = chroma_sf1_sets()
        with pytest.raises(ConstraintError):
            decompose([10] * 63, ref)

    def test_rejects_sizes_below_exponent(self):
        ref, _ = chroma_sf1_sets()
        target = [0] * 63
        target[20] = ref.exponents[20] - 1  # quantizes to zero: not reduced
        with pytest.raises(ConstraintError):
            decompose(target, ref)

    def test_identity_on_random_targets(self, component, rng):
        for sf in (Fraction(1, 64), Fraction(1)):
            q = scaled_annex_k(component, sf)
            ref = reference_length(component, pow2_table(q))
            table = table_for(component)
            for _ in range(300):
                target = random_reduced_sizes(rng, ref)
                entries = decompose(target, ref)
                quantized = [max(s - c, 0) for s, c in zip(target, ref.exponents)]
                direct = sequence_length(table, symbolize(quantized))
                assert recompose_length(ref, entries) == direct

    def test_operation_kinds_partition_positions(self, rng):
        ref, _ = chroma_sf1_sets()
        for _ in range(100):
            target = random_reduced_sizes(rng, ref)
            entries = decompose(target, ref)
            covered = []
            for e in entries:
                if e.op_kind in (OpKind.OP6A, OpKind.OP6B):
                    continue  # shares its run with the preceding OP3
                covered.extend(e.footprint(63))
            changed = [
                p for p in range(1, 64)
                if target[p - 1] != 8
            ]
            assert sorted(covered) == sorted(set(covered))
            assert set(changed) <= set(covered) | {
                e.position for e in entries
            }


class TestSoundnessAgainstDirectEnumeration:
    def test_random_reduced_configurations_stay_under_limits(self, component, rng):
        from acbound.verification import ac_bits_from_sizes

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
