"""Worst-case AC code-length limits from local loss/gain enumeration.

The engine anchors on a reference configuration whose coefficients all
have unquantized size 8 (value 2**7), so every reduced configuration on
the coefficient sphere is reachable through local size-replacement
operations:

* OP1 demotes one coefficient below its reference size,
* OP2 turns a run of coefficients into zeros ending in a demoted one,
* OP3 turns a run into zeros ahead of a kept reference coefficient,
* OP4 zeroes the tail behind the last nonzero coefficient (EOB),
* OP5 and OP6 promote a coefficient to size 9 or 10, bare or after a run.

Each operation has an exact per-position code-length delta.  Energy
accounting over the coefficient ball forces every promotion to be paid
for: ``a`` size-9 and ``b`` size-10 promotions require at least
``3a + 15b`` demoted positions, and ``4a + 16b`` is bounded by the
number of AC positions.  The limit is the reference length plus the
maximum, over feasible (a, b), of the a+b largest gains minus the sum of
the ``3a + 15b`` smallest losses.

Three nested refinement levels are computed.  The base level excludes
promotion gains in the maximal-length (escape) Huffman region whenever a
replacement argument proves, position by position, that the promoted
pattern cannot occur in a maximum-length configuration.  The capacity
level additionally caps equal-valued delta copies at one per position.
The final level applies the replacement argument to every run-generating
entry, losses included.

The engine computes exactly in integer units of ``1/SCALE`` bits, where
``SCALE = lcm(1..63)`` is divisible by every multiplicity, and builds a
``Fraction`` only for reported values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat

from .entropy_model import AC_POSITIONS, ComponentKind, table_for
from .quantization import (
    Pow2QuantTable,
    QuantTable,
    UnsupportedTableError,
    pow2_table,
)

REFERENCE_SIZE = 8          # unquantized size of every reference coefficient
PROMOTION_COST_9 = 3        # forced demotions per size-9 promotion
PROMOTION_COST_10 = 15      # forced demotions per size-10 promotion
ENERGY_UNITS_9 = 4          # ball-energy units consumed by a size-9 coefficient
ENERGY_UNITS_10 = 16
ESCAPE_HUFFMAN_BITS = 15    # huffman lengths >= this form the escape region
MAX_REPLACED_ZEROS = 3      # the energy identity allows at most 3 same-size copies
MAX_LOSS_SIZE = 7           # demoted sizes evaluated per position
SCALE = math.lcm(*range(1, AC_POSITIONS + 1))  # exact-value unit is 1/SCALE bits


class OpKind(Enum):
    OP1 = "OP1"
    OP2 = "OP2"
    OP3 = "OP3"
    OP4 = "OP4"
    OP5A = "OP5A"
    OP5B = "OP5B"
    OP6A = "OP6A"
    OP6B = "OP6B"


LOSS_KINDS = frozenset({OpKind.OP1, OpKind.OP2, OpKind.OP3, OpKind.OP4})


class Refinement(Enum):
    BASE = "base"
    CAPACITY = "capacity_pruned"
    MAXCONFIG = "maxconfig_pruned"


class LossSetExhaustedError(RuntimeError):
    """Asked for more loss copies than the set holds."""


class ConstraintError(ValueError):
    """A target configuration violates the coefficient-ball constraint."""


@dataclass(frozen=True)
class DeltaEntry:
    """One local code-length change with its position footprint.

    ``value`` is the exact change per affected position in units of
    ``1/SCALE`` bits; ``multiplicity`` is the number of affected positions.
    """

    op_kind: OpKind
    position: int
    runlength: int
    size: int
    value: int
    multiplicity: int

    @property
    def per_position_value(self) -> Fraction:
        """The change in bits per affected position."""
        return Fraction(self.value, SCALE)

    @property
    def is_loss(self) -> bool:
        return self.op_kind in LOSS_KINDS

    def footprint(self, n_positions: int) -> range:
        """Positions the entry assigns copies to (1-indexed, inclusive)."""
        if self.op_kind is OpKind.OP2:
            return range(self.position - self.runlength, self.position + 1)
        if self.op_kind is OpKind.OP3:
            return range(self.position - self.runlength, self.position)
        if self.op_kind is OpKind.OP4:
            return range(self.position + 1, n_positions + 1)
        return range(self.position, self.position + 1)


@dataclass(frozen=True)
class ReferenceConfig:
    """Reference sizes, their total code length, and the instance shape."""

    component: ComponentKind
    exponents: tuple[int, ...]
    sbar: tuple[int, ...]
    ref_len: int

    @property
    def n_positions(self) -> int:
        return len(self.sbar)


@dataclass(frozen=True, eq=False)
class LossGainSets:
    """Loss and gain multisets plus the evaluated-case census.

    Each multiset is in ascending ``_entry_sort_key`` order, which the
    refinements keep; compared by identity.
    """

    losses: tuple[DeltaEntry, ...]
    gains9: tuple[DeltaEntry, ...]
    gains10: tuple[DeltaEntry, ...]
    refinement: Refinement
    census: dict[str, int]
    n_positions: int


@dataclass(frozen=True)
class BoundResult:
    component: ComponentKind
    sf: Fraction | None
    refinement: Refinement
    ref_len: int
    objective: dict[tuple[int, int], Fraction]
    argmax: tuple[int, int]
    limit: int

    def to_json_dict(self) -> dict:
        return {
            "component": self.component.value,
            "sf": str(self.sf) if self.sf is not None else None,
            "refinement": self.refinement.value,
            "ref_len": self.ref_len,
            "limit": self.limit,
            "argmax": list(self.argmax),
            "objective_table": [
                [a, b, str(v)] for (a, b), v in sorted(self.objective.items())
            ],
        }


def reference_config(component: ComponentKind, exponents) -> ReferenceConfig:
    """Build the reference configuration for an exponent vector.

    Every exponent must leave a quantized reference size of at least 2,
    so that reference coefficients stay nonzero after quantization and
    the promotion interdependence holds.
    """
    if isinstance(exponents, Pow2QuantTable):
        exponents = exponents.c
    exponents = tuple(int(c) for c in exponents)
    if len(exponents) > AC_POSITIONS:
        raise UnsupportedTableError(f"at most {AC_POSITIONS} positions are supported")
    if any(c < 0 or c > REFERENCE_SIZE - 2 for c in exponents):
        raise UnsupportedTableError(
            f"exponents must lie in 0..{REFERENCE_SIZE - 2} (reference sizes >= 2)"
        )
    table = table_for(component)
    sbar = tuple(REFERENCE_SIZE - c for c in exponents)
    ref_len = sum(table.code_length(0, s) for s in sbar)
    return ReferenceConfig(component, exponents, sbar, ref_len)


def reference_length(component: ComponentKind, c: Pow2QuantTable) -> ReferenceConfig:
    """Reference configuration for a full 63-position power-of-2 table."""
    if len(c.c) != AC_POSITIONS:
        raise UnsupportedTableError(f"expected {AC_POSITIONS} exponents, got {len(c.c)}")
    return reference_config(component, c)


def admissible_pairs(n_positions: int = AC_POSITIONS) -> list[tuple[int, int]]:
    """All (a, b) promotion counts the ball constraint allows.

    ``a`` size-9 and ``b`` size-10 coefficients consume ``4a + 16b`` of
    the ``n + 1`` available energy units; for the 63-position block this
    reduces to a + 4b < 16, exactly 40 pairs.
    """
    pairs = []
    for b in range(0, n_positions // ENERGY_UNITS_10 + 1):
        for a in range(0, n_positions // ENERGY_UNITS_9 + 1):
            if ENERGY_UNITS_9 * a + ENERGY_UNITS_10 * b <= n_positions:
                pairs.append((a, b))
    return sorted(pairs)


class _Enumerator:
    """Shared state for delta enumeration and dominance checks."""

    def __init__(self, ref: ReferenceConfig):
        self.ref = ref
        self.table = table = table_for(ref.component)
        self.n = ref.n_positions
        self.sbar = ref.sbar
        self.exponents = ref.exponents
        self.len0 = [0] * 11
        for s in range(1, 11):
            self.len0[s] = table.code_length(0, s)
        # prefix[i] = sum of len(0, sbar_k) for k = 1..i
        self.prefix = [0]
        for s in self.sbar:
            self.prefix.append(self.prefix[-1] + self.len0[s])
        self._dominance_cache: dict[tuple, bool] = {}

    def run_cost(self, p: int, r: int) -> int:
        """Reference cost of positions p-r..p as individual symbols."""
        return self.prefix[p] - self.prefix[p - r - 1]

    # -- maximum-configuration replacement test --------------------------

    def dominated(self, p: int, r: int, s: int) -> bool:
        """True when the pattern (r zeros, quantized size s at p) provably
        cannot occur in a maximum code-length configuration.

        The pattern's coefficient (unquantized size S) is demoted to
        S - 1 and up to three of the run's zeros are raised to S - 1;
        the exchange never increases ball energy.  If some such
        replacement is strictly longer, any configuration containing the
        pattern is beaten, so the pattern's deltas can be dropped.  Sizes
        s <= 2 are never tested (replacement sizes could vanish).
        """
        if s <= 2 or r < 1:
            return False
        C = self.exponents
        jmax = min(MAX_REPLACED_ZEROS, r)
        key = (
            r,
            s,
            C[p - 1],
            tuple(C[p - 1 - jmax:p - 1]),
            tuple(C[p - r - 1:p - r - 1 + jmax]),
        )
        cached = self._dominance_cache.get(key)
        if cached is not None:
            return cached
        result = self._dominated_uncached(p, r, s, jmax)
        self._dominance_cache[key] = result
        return result

    def _dominated_uncached(self, p: int, r: int, s: int, jmax: int) -> bool:
        table = self.table
        len0 = self.len0
        C = self.exponents
        S = s + C[p - 1]
        target = table.code_length(r, s)
        for j in range(1, jmax + 1):
            # raised zeros at the end of the run, adjacent to p
            sizes = [S - 1 - C[l - 1] for l in range(p - j, p)]
            if all(1 <= t <= 10 for t in sizes):
                if j < r:
                    length = table.code_length(r - j, sizes[0])
                    length += sum(len0[t] for t in sizes[1:])
                else:
                    length = sum(len0[t] for t in sizes)
                length += len0[s - 1]
                if length > target:
                    return True
            # raised zeros at the start of the run
            sizes = [S - 1 - C[l - 1] for l in range(p - r, p - r + j)]
            if all(1 <= t <= 10 for t in sizes):
                length = sum(len0[t] for t in sizes)
                if j < r:
                    length += table.code_length(r - j, s - 1)
                else:
                    length += len0[s - 1]
                if length > target:
                    return True
        return False

    def escape_cell(self, r: int, s: int) -> bool:
        return self.table.huffman_length(r, s) >= ESCAPE_HUFFMAN_BITS

    def keep_gain(self, p: int, r: int, new_size: int) -> bool:
        """Base retention rule for run promotions (OP6).

        The published per-cell exclusions are not machine readable; they
        are reconstructed as the escape-region cells, and an entry is
        only dropped when the replacement test certifies it, so dropping
        never costs soundness.
        """
        if r == 0:
            return True
        if not self.escape_cell(r, new_size):
            return True
        return not self.dominated(p, r, new_size)

    # -- value helpers shared with decomposition -------------------------
    # Each returns a bit total spread over its multiplicity, in units of
    # 1/SCALE bits per position.

    def op1_value(self, p: int, s: int) -> int:
        return (self.len0[self.sbar[p - 1]] - self.len0[s]) * SCALE

    def op2_value(self, p: int, r: int, s: int) -> int:
        bits = self.run_cost(p, r) - self.table.code_length(r, s)
        return bits * (SCALE // (r + 1))

    def op3_value(self, p: int, r: int) -> int:
        bits = self.run_cost(p, r) - self.table.code_length(r, self.sbar[p - 1])
        return bits * (SCALE // r)

    def op4_value(self, p: int) -> int:
        """EOB after position ``p``; ``p = 0`` zeroes the whole block."""
        tail = self.prefix[self.n] - self.prefix[p]
        return (tail - self.table.eob_bits) * (SCALE // (self.n - p))

    def op5_value(self, p: int, new_size: int) -> int:
        return (self.len0[new_size] - self.len0[self.sbar[p - 1]]) * SCALE

    def op6_value(self, p: int, r: int, new_size: int) -> int:
        bits = (
            self.table.code_length(r, new_size)
            - self.table.code_length(r, self.sbar[p - 1])
        )
        return bits * SCALE


def enumerate_deltas(ref: ReferenceConfig) -> LossGainSets:
    """Evaluate every operation instance and collect the base delta sets.

    The census counts evaluated cases per family (demoted sizes 1..7 are
    always charged, reachable or not); retained entries are the subset
    with meaningful values, minus base-level gain exclusions.  Each set
    is sorted once here, by ``_entry_sort_key``.
    """
    en = _Enumerator(ref)
    n = en.n
    census = {k: 0 for k in ("op1", "op2", "op3", "op4", "op5a", "op5b", "op6a", "op6b")}
    losses: list[DeltaEntry] = []
    gains9: list[DeltaEntry] = []
    gains10: list[DeltaEntry] = []

    for p in range(1, n + 1):
        sb = en.sbar[p - 1]
        for s in range(1, MAX_LOSS_SIZE + 1):
            census["op1"] += 1
            if s < sb:
                losses.append(DeltaEntry(OpKind.OP1, p, 0, s, en.op1_value(p, s), 1))
        if sb + 1 <= 10:
            census["op5a"] += 1
            gains9.append(DeltaEntry(OpKind.OP5A, p, 0, sb + 1, en.op5_value(p, sb + 1), 1))
        if sb + 2 <= 10:
            census["op5b"] += 1
            gains10.append(DeltaEntry(OpKind.OP5B, p, 0, sb + 2, en.op5_value(p, sb + 2), 1))

    for p in range(2, n + 1):
        sb = en.sbar[p - 1]
        for r in range(1, p):
            for s in range(1, MAX_LOSS_SIZE + 1):
                census["op2"] += 1
                if s < sb:
                    losses.append(
                        DeltaEntry(OpKind.OP2, p, r, s, en.op2_value(p, r, s), r + 1)
                    )
            census["op3"] += 1
            losses.append(DeltaEntry(OpKind.OP3, p, r, sb, en.op3_value(p, r), r))
            if sb + 1 <= 10:
                census["op6a"] += 1
                if en.keep_gain(p, r, sb + 1):
                    gains9.append(
                        DeltaEntry(OpKind.OP6A, p, r, sb + 1, en.op6_value(p, r, sb + 1), 1)
                    )
            if sb + 2 <= 10:
                census["op6b"] += 1
                if en.keep_gain(p, r, sb + 2):
                    gains10.append(
                        DeltaEntry(OpKind.OP6B, p, r, sb + 2, en.op6_value(p, r, sb + 2), 1)
                    )

    for p in range(1, n):
        census["op4"] += 1
        losses.append(DeltaEntry(OpKind.OP4, p, 0, 0, en.op4_value(p), n - p))

    def ordered(entries):
        return tuple(sorted(entries, key=_entry_sort_key))

    return LossGainSets(
        ordered(losses), ordered(gains9), ordered(gains10), Refinement.BASE, census, n
    )


def _entry_sort_key(entry: DeltaEntry):
    return (
        entry.value,
        entry.op_kind.value,
        entry.position,
        entry.runlength,
        entry.size,
    )


def refine_capacity(sets: LossGainSets) -> LossGainSets:
    """Cap equal-valued copies at one per position.

    A position is affected by exactly one operation in any single
    configuration, so it can carry at most one copy of a given delta
    value; surplus copies within a value tier are dropped by reducing
    entry multiplicities in deterministic entry order.  Footprints of
    reduced entries keep their original extent; only the copy counts
    feed the loss and gain functions.
    """
    n = sets.n_positions

    def dedup_losses(entries):
        covered: dict[int, set[int]] = {}
        out = []
        for e in entries:
            positions = covered.setdefault(e.value, set())
            fresh = [q for q in e.footprint(n) if q not in positions]
            if fresh:
                positions.update(fresh)
                if len(fresh) == e.multiplicity:
                    out.append(e)
                else:
                    out.append(
                        DeltaEntry(
                            e.op_kind, e.position, e.runlength, e.size,
                            e.value, len(fresh),
                        )
                    )
        return tuple(out)

    def dedup_gains(entries):
        seen: set[tuple[int, int]] = set()
        out = []
        for e in entries:
            key = (e.value, e.position)
            if key not in seen:
                seen.add(key)
                out.append(e)
        return tuple(out)

    refinement = (
        Refinement.MAXCONFIG
        if sets.refinement is Refinement.MAXCONFIG
        else Refinement.CAPACITY
    )
    return LossGainSets(
        dedup_losses(sets.losses),
        dedup_gains(sets.gains9),
        dedup_gains(sets.gains10),
        refinement,
        sets.census,
        n,
    )


def refine_maxconfig(sets: LossGainSets, ref: ReferenceConfig) -> LossGainSets:
    """Drop run-generating entries the replacement test proves impossible.

    Applies to OP2, OP3 and OP6 entries with quantized size above 2; an
    entry survives unless a strictly longer replacement exists for its
    exact positions, so removal is always provable.
    """
    en = _Enumerator(ref)

    def keep(e: DeltaEntry) -> bool:
        if e.op_kind in (OpKind.OP2, OpKind.OP3, OpKind.OP6A, OpKind.OP6B):
            return not en.dominated(e.position, e.runlength, e.size)
        return True

    return LossGainSets(
        tuple(e for e in sets.losses if keep(e)),
        tuple(e for e in sets.gains9 if keep(e)),
        tuple(e for e in sets.gains10 if keep(e)),
        Refinement.MAXCONFIG,
        sets.census,
        sets.n_positions,
    )


@functools.lru_cache(maxsize=128)
def _base_sets_cached(ref: ReferenceConfig) -> LossGainSets:
    return enumerate_deltas(ref)


def build_sets(ref: ReferenceConfig, refinement: Refinement) -> LossGainSets:
    """Delta sets at the requested refinement level."""
    sets = _base_sets_cached(ref)
    if refinement is Refinement.BASE:
        return sets
    if refinement is Refinement.MAXCONFIG:
        sets = refine_maxconfig(sets, ref)
    return refine_capacity(sets)


def _loss_prefix(sets: LossGainSets, count: int) -> list[int]:
    """prefix[i] = sum of the i smallest loss copies, i = 0..count."""
    copies = chain.from_iterable(repeat(e.value, e.multiplicity) for e in sets.losses)
    return list(accumulate(islice(copies, count), initial=0))


def _gain_prefix(entries, count: int) -> list[int]:
    """prefix[i] = sum of the i largest gain values, i = 0..count."""
    return list(accumulate(islice((e.value for e in reversed(entries)), count), initial=0))


def loss_function(sets: LossGainSets, n: int) -> Fraction:
    """Sum of the n smallest loss copies (multiplicity expanded)."""
    prefix = _loss_prefix(sets, n)
    if n >= len(prefix):
        raise LossSetExhaustedError(f"needed {n} loss copies, have {len(prefix) - 1}")
    return Fraction(prefix[n], SCALE)


def gain_functions(sets: LossGainSets, a: int, b: int) -> tuple[Fraction, Fraction]:
    """Sums of the a largest size-9 and b largest size-10 gains."""
    prefix9 = _gain_prefix(sets.gains9, a)
    prefix10 = _gain_prefix(sets.gains10, b)
    if a >= len(prefix9) or b >= len(prefix10):
        raise LossSetExhaustedError(f"gain sets hold fewer than ({a}, {b}) values")
    return Fraction(prefix9[a], SCALE), Fraction(prefix10[b], SCALE)


def solve_limit(
    ref: ReferenceConfig,
    refinement: Refinement = Refinement.BASE,
    sf: Fraction | None = None,
    sets: LossGainSets | None = None,
) -> BoundResult:
    """Maximize gains minus forced losses over the admissible pairs."""
    if sets is None:
        sets = build_sets(ref, refinement)
    pairs = admissible_pairs(ref.n_positions)
    max_a = max(a for a, _ in pairs)
    max_b = max(b for _, b in pairs)
    max_n = max(PROMOTION_COST_9 * a + PROMOTION_COST_10 * b for a, b in pairs)
    losses = _loss_prefix(sets, max_n)
    gains9 = _gain_prefix(sets.gains9, max_a)
    gains10 = _gain_prefix(sets.gains10, max_b)
    if len(losses) <= max_n:
        raise LossSetExhaustedError(f"needed {max_n} loss copies, have {len(losses) - 1}")
    if len(gains9) <= max_a or len(gains10) <= max_b:
        raise LossSetExhaustedError("gain sets too small for the admissible pairs")

    scaled = {
        (a, b): gains9[a] + gains10[b] - losses[PROMOTION_COST_9 * a + PROMOTION_COST_10 * b]
        for a, b in pairs
    }
    argmax = max(scaled, key=scaled.__getitem__)
    limit = ref.ref_len - (-scaled[argmax] // SCALE)
    objective = {pair: Fraction(v, SCALE) for pair, v in scaled.items()}
    return BoundResult(ref.component, sf, sets.refinement, ref.ref_len, objective, argmax, limit)


@functools.lru_cache(maxsize=256)
def _limit_cached(
    component: ComponentKind, q: QuantTable, refinement: Refinement
) -> BoundResult:
    c = pow2_table(q)
    ref = reference_length(component, c)
    return solve_limit(ref, refinement, sf=q.sf)


def upper_limit(
    component: ComponentKind,
    q: QuantTable,
    refinement: Refinement = Refinement.BASE,
) -> BoundResult:
    """Upper AC code-length limit for a quantization table."""
    if q.component is not component:
        raise ValueError("component and quantization table disagree")
    return _limit_cached(component, q, refinement)


# -- exact decomposition of a target configuration -----------------------


def decompose(target, ref: ReferenceConfig) -> list[DeltaEntry]:
    """Unique operation list transforming the reference into ``target``.

    ``target`` holds unquantized sizes of a reduced configuration (zero
    exactly where the quantized size is zero).  The signed per-position
    deltas times multiplicities, added to the reference length, reproduce
    the coded length of the target exactly.
    """
    en = _Enumerator(ref)
    n = ref.n_positions
    sizes = [int(s) for s in target]
    if len(sizes) != n:
        raise ConstraintError(f"expected {n} sizes, got {len(sizes)}")
    energy = sum(1 << (2 * s - 2) for s in sizes if s > 0)
    if energy >= (n + 1) << (2 * REFERENCE_SIZE - 2):
        raise ConstraintError("size vector violates the coefficient-ball budget")
    for p, s in enumerate(sizes, start=1):
        if s != 0 and s <= ref.exponents[p - 1]:
            raise ConstraintError(
                f"position {p}: nonzero unquantized size {s} quantizes to zero"
            )

    entries: list[DeltaEntry] = []
    last_nonzero = max((i + 1 for i, s in enumerate(sizes) if s > 0), default=0)
    if last_nonzero < n:
        entries.append(
            DeltaEntry(
                OpKind.OP4, last_nonzero, 0, 0, en.op4_value(last_nonzero), n - last_nonzero
            )
        )

    run = 0
    for p in range(1, last_nonzero + 1):
        S = sizes[p - 1]
        if S == 0:
            run += 1
            continue
        sb = en.sbar[p - 1]
        quantized = S - ref.exponents[p - 1]
        r = run
        run = 0
        if r == 0:
            if S < REFERENCE_SIZE:
                entries.append(
                    DeltaEntry(OpKind.OP1, p, 0, quantized, en.op1_value(p, quantized), 1)
                )
            elif S > REFERENCE_SIZE:
                kind = OpKind.OP5A if S == REFERENCE_SIZE + 1 else OpKind.OP5B
                entries.append(
                    DeltaEntry(kind, p, 0, quantized, en.op5_value(p, quantized), 1)
                )
            continue
        if S < REFERENCE_SIZE:
            entries.append(
                DeltaEntry(OpKind.OP2, p, r, quantized, en.op2_value(p, r, quantized), r + 1)
            )
        else:
            entries.append(DeltaEntry(OpKind.OP3, p, r, sb, en.op3_value(p, r), r))
            if S > REFERENCE_SIZE:
                kind = OpKind.OP6A if S == REFERENCE_SIZE + 1 else OpKind.OP6B
                entries.append(
                    DeltaEntry(kind, p, r, quantized, en.op6_value(p, r, quantized), 1)
                )
    return entries


def recompose_length(ref: ReferenceConfig, entries) -> Fraction:
    """Reference length plus the signed sum of all entry deltas."""
    total = ref.ref_len * SCALE
    for e in entries:
        contribution = e.value * e.multiplicity
        total += -contribution if e.is_loss else contribution
    return Fraction(total, SCALE)
