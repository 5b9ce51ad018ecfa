import dataclasses
import gc
import heapq
import math
import weakref
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acbound import bound_engine
from acbound.bound_engine import (
    SCALE,
    DeltaEntry,
    LossSetExhaustedError,
    OpKind,
    Refinement,
    admissible_pairs,
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
from acbound.verification import ac_bits_from_sizes, toy_oracle
from references import prefix_sums, random_reduced_sizes

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
        pairs = admissible_pairs()
        assert len(pairs) == 40
        assert (15, 0) in pairs and (3, 3) in pairs
        assert (16, 0) not in pairs and (0, 4) not in pairs
        assert max(3 * a + 15 * b for a, b in pairs) == 54

    def test_generalized_instance(self):
        pairs = admissible_pairs(6)
        assert pairs == [(0, 0), (1, 0)]

    def test_each_call_returns_its_own_list(self):
        admissible_pairs().append((99, 99))
        assert len(admissible_pairs()) == 40


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
        enumerate_head = bound_engine._enumerate

        def counting_enumeration(ref, head=None):
            calls.append(head)
            return enumerate_head(ref, head)

        monkeypatch.setattr(bound_engine, "_enumerate", counting_enumeration)
        upper_limit.cache_clear()
        bound_engine._cell_reference.cache_clear()
        q = scaled_annex_k(ComponentKind.LUMINANCE, Fraction(1, 8))
        for refinement in Refinement:
            upper_limit(ComponentKind.LUMINANCE, q, refinement)
        assert calls == [bound_engine._LOSS_HEAD]

    def test_component_mismatch(self):
        q = scaled_annex_k(ComponentKind.CHROMINANCE, 1)
        with pytest.raises(ParameterError):
            upper_limit(ComponentKind.LUMINANCE, q)

    def test_unsupported_user_table(self):
        q = QuantTable(ComponentKind.LUMINANCE, (150,) * 63, q00=1)
        with pytest.raises(ParameterError):
            upper_limit(ComponentKind.LUMINANCE, q)

    def test_user_table_within_regime(self):
        q = QuantTable(ComponentKind.LUMINANCE, (3,) * 63, q00=3)
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


EXPONENT_VECTORS = st.lists(st.integers(0, 6), min_size=1, max_size=63)


def columnar_examples(test):
    """All-0, all-6 and ascending vectors, full-length and short."""
    for n in (63, 17, 4):
        for vector in ([0] * n, [6] * n, [k * 7 // n for k in range(n)]):
            test = example(vector, ComponentKind.LUMINANCE)(test)
    return test


def limit_stops(ref):
    """(loss copies, size-9 gains, size-10 gains) a limit of ``ref`` reads."""
    pairs = admissible_pairs(ref.n_positions)
    return (
        max(3 * a + 15 * b for a, b in pairs),
        max(a for a, _ in pairs),
        max(b for _, b in pairs),
    )


def assert_limit_reads_a_prefix(ref):
    """At every level, a limit's sets are a prefix of ``build_sets``: the
    same gain rows and the first of its loss rows, byte for byte."""
    loss_stop = limit_stops(ref)[0]
    for refinement in Refinement:
        full = build_sets(ref, refinement)
        stopped = bound_engine._limit_sets(ref, refinement, loss_stop)
        assert stopped.refinement is full.refinement
        for rows in ("gain9_rows", "gain10_rows"):
            assert getattr(stopped, rows).tobytes() == getattr(full, rows).tobytes(), refinement
        loss = stopped.loss_rows.tobytes()
        assert full.loss_rows.tobytes()[:len(loss)] == loss, (ref.exponents, refinement)
        copies = int(stopped.loss_rows["multiplicity"].sum())
        assert copies >= loss_stop or len(stopped.loss_rows) == len(full.loss_rows)


def scalar_enumeration(ref):
    """The base sets, one operation instance at a time from the code-length
    table and prefix sums of the reference costs, sorted as exact tuples."""
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

    def entries(rows):
        rows.sort(key=lambda row: (row[0], row[1].value) + row[2:])
        return tuple(DeltaEntry(kind, p, r, s, value, m) for value, kind, p, r, s, m in rows)

    return entries(losses), entries(gains9), entries(gains10)


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
        tiers = bound_engine._tiers(rows)
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
            for kind, p, r, size, _, width, bits, _ in bound_engine._by_value(rows).tolist()
        ] == exact

    def test_sort_ignores_the_input_order(self, rng):
        # a shuffled set sorts back to the same bytes: the key is unique
        for ref in oracle_references(rng)[::4]:
            sets = enumerate_deltas(ref)
            for rows in (sets.loss_rows, sets.gain9_rows, sets.gain10_rows):
                for order in (rng.permutation(len(rows)), np.arange(len(rows))[::-1]):
                    assert bound_engine._by_value(rows[order]).tobytes() == rows.tobytes()


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
        for refinement in Refinement:
            sets = build_sets(ref, refinement)
            for rows, entries in (
                (sets.loss_rows, sets.losses),
                (sets.gain9_rows, sets.gains9),
                (sets.gain10_rows, sets.gains10),
            ):
                exact = sorted(
                    (Fraction(bits, width), kind, p, r, s, m)
                    for kind, p, r, s, _, width, bits, m in rows.tolist()
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
    """A limit orders only the smallest ``_LOSS_HEAD`` loss rows and falls
    back to the full order when a walk runs past them; tiny heads force
    that fallback."""

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

    def test_template_is_cached_read_only_and_narrow(self):
        n = 63
        template = bound_engine._loss_template(ComponentKind.LUMINANCE, n)
        assert bound_engine._loss_template(ComponentKind.LUMINANCE, n) is template
        rows = 7 * n * (n + 1) // 2 + 7 * n * (n - 1) // 2 + n - 1
        for name, array in vars(template).items():
            assert not array.flags.writeable, name
            if name in ("demotions_at", "kept_at"):
                assert array.shape == (n,)
            else:
                assert array.shape == (rows,), name
                # only the packed key bits need 32 bits; the rest fit 8 or 16
                allowed = (np.int32,) if name == "low" else (np.uint8, np.int16)
                assert array.dtype.type in allowed, name


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
