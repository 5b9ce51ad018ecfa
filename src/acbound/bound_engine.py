"""Worst-case AC code-length limits from local loss/gain enumeration.

The engine anchors on a reference configuration whose coefficients all
have unquantized size 8 (value 2**7), so every reduced configuration on
the coefficient sphere is reachable through local size-replacement
operations:

* OP2 turns a run of coefficients into zeros ending in a demoted one,
* OP3 turns a run into zeros ahead of a kept reference coefficient,
* OP4 zeroes the tail behind the last nonzero coefficient (EOB),
* OP6 turns a run into zeros ending in one promoted to size 9 or 10.

OP1 and OP5 are the empty-run (``r = 0``) cases of OP2 and OP6, a bare
demotion or promotion costed by the same symbol length ``len(r, s)``:
one builder computes both, and only the kind label differs.

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

The replacement argument is decided once per reference: one read-only
boolean array over every (position, run, size) pattern, read by
enumeration and the maxconfig level alike.  Only patterns with a run
and a size above 2 can be dominated, so the test is computed for those
alone, from exponent-free terms cached per component and length, and
scattered into the array.  A ``ReferenceConfig`` holds all state derived
from it, each part built on first use and freed with the reference: the
reference sizes and the prefix sums of their costs as numpy arrays, the
dominance array, the head of the base delta sets a limit reads and, for
readers of whole sets, the full base sets.  One builder per operation
family turns operation instances into rows.  The loss builders do not
read the exponents: they end in the terms of the bits, which one
function evaluates against a reference's prefix sums.  Enumeration calls
them once per component and length, for a loss template, and
decomposition on the operations of one target, so each delta formula is
written once.  Code lengths come from the component's one
``CodeLengthTable.lengths`` array.

A delta set is a numpy record array, one narrow row per entry: kind
rank, position, run, size, footprint start and width, the entry's bit
total and its copy count.  A set is ordered by one unique int64 key: the
exact value tier ``(bits << 12) // width`` above the packed kind,
position, run and size.  The same tier names a value in the capacity
walk.  The loss template holds every loss row some reference of that
length can hold, with the columns that do not depend on the exponents,
in blocks a reference picks by its size at each position; a reference
computes only the bits and keys of the rows it holds.

A limit reads at most a few dozen loss rows, so the limit path orders
only the head of the loss set: one ``np.argpartition`` picks the
``_LOSS_HEAD`` smallest keys, and only those rows are sorted and built.
Keys are unique, so the head is the start of the full order.  If a walk
runs out of a cut-short head before it holds its copies, the level is
made again from the full order.  ``build_sets``, ``refine_capacity``
and ``enumerate_deltas`` see the full sets.

The maxconfig level is one boolean mask over the rows.  The capacity
level walks a loss set keeping, per value tier, an integer bitmask of
the positions already covered; an entry keeps as many copies as its
footprint adds to that mask.  A gain covers only its own position, so a
gain set keeps the first row of each (value tier, position) pair, one
``np.unique``.  A limit reads only the smallest ``max(3a + 15b)`` loss
copies, so on the limit path the loss walk stops once it holds them.
Every limit thus reads a prefix of what ``build_sets`` returns: the same
gain rows, and the first of its loss rows.

The engine computes exactly in integer units of ``1/SCALE`` bits, where
``SCALE = lcm(1..63)`` is divisible by every width.  ``SCALE`` has 89
bits, so exact values are Python ints, made only for the rows a prefix
sums or an entry reads.  A limit keeps the loss and gain prefix sums it
maximizes over, and its objective, in those units, so a reader audits
the numbers the limit read; it builds ``Fraction`` values only when its
objective is read.
``DeltaEntry`` objects are built only when a set's entry tuples are read.

``decompose`` returns the same rows for the operations of one target,
each carrying all its copies, so a row's copies sum to its ``bits``
total and ``recompose_length`` is an integer sum: the reference length
minus the loss bits plus the gain bits.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat

import numpy as np

from .entropy_model import (
    AC_POSITIONS,
    MAX_RUNLENGTH,
    MAX_SIZE,
    CodeLengthTable,
    ComponentKind,
    ParameterError,
    table_for,
)
from .quantization import QuantTable, pow2_table

REFERENCE_SIZE = 8          # unquantized size of every reference coefficient
PROMOTION_COST_9 = 3        # forced demotions per size-9 promotion
PROMOTION_COST_10 = 15      # forced demotions per size-10 promotion
ENERGY_UNITS_9 = 4          # ball-energy units consumed by a size-9 coefficient
ENERGY_UNITS_10 = 16
ESCAPE_HUFFMAN_BITS = 15    # huffman lengths >= this form the escape region
MAX_REPLACED_ZEROS = 3      # the energy identity allows at most 3 same-size copies
MAX_LOSS_SIZE = 7           # demoted sizes evaluated per position
SCALE = math.lcm(*range(1, AC_POSITIONS + 1))  # exact-value unit is 1/SCALE bits
_LOSS_HEAD = 256            # loss rows a limit orders (see ``_limit_sets``)


class OpKind(Enum):
    OP1 = "OP1"
    OP2 = "OP2"
    OP3 = "OP3"
    OP4 = "OP4"
    OP5A = "OP5A"
    OP5B = "OP5B"
    OP6A = "OP6A"
    OP6B = "OP6B"


class Refinement(Enum):
    BASE = "base"
    CAPACITY = "capacity_pruned"
    MAXCONFIG = "maxconfig_pruned"


class LossSetExhaustedError(RuntimeError):
    """Asked for more loss copies than the set holds."""


@dataclass(frozen=True, slots=True)
class DeltaEntry:
    """One row of a delta set as a plain record, for a reader.

    ``value`` is the exact change per affected position in units of
    ``1/SCALE`` bits; ``multiplicity`` is the number of copies it carries.
    """

    op_kind: OpKind
    position: int
    runlength: int
    size: int
    value: int
    multiplicity: int


@dataclass(frozen=True)
class ReferenceConfig:
    """Reference sizes, their total code length, and the instance shape.

    Also holds the state enumeration, pruning and decomposition derive
    from the reference, each part built on first use and freed with the
    reference: the sizes and the prefix sums of their costs as numpy
    arrays, the dominance array, the head of the base delta sets a limit
    reads and the full base sets.
    """

    component: ComponentKind
    exponents: tuple[int, ...]
    sbar: tuple[int, ...]
    ref_len: int

    @property
    def n_positions(self) -> int:
        return len(self.sbar)

    @functools.cached_property
    def sbar_array(self) -> np.ndarray:
        return np.array(self.sbar, dtype=np.intp)

    @functools.cached_property
    def prefix(self) -> np.ndarray:
        """prefix[i] = sum of len(0, sbar_k) for k = 1..i."""
        lengths = table_for(self.component).lengths
        return np.concatenate(([0], np.cumsum(lengths[0, self.sbar_array])))

    @functools.cached_property
    def dominance(self) -> np.ndarray:
        """Replacement test for every pattern, a read-only boolean array
        ``[p, r, s]``: True when the pattern (r zeros, quantized size s at
        p) provably cannot occur in a maximum code-length configuration.

        The pattern's coefficient (unquantized size S) is demoted to
        S - 1 and j = 1..3 of the run's zeros, at its end or at its start,
        are raised to S - 1; the exchange never increases ball energy.  If
        some such replacement is strictly longer, any configuration
        containing the pattern is beaten, so the pattern's deltas can be
        dropped.  Sizes s <= 2 are never tested (replacement sizes could
        vanish) and patterns without a run are never dominated, so the
        test runs over the patterns with 1 <= r < p and s = 3..10 alone,
        one row of eight sizes per (p, r) pair, and is scattered into the
        array.  Every term that does not depend on the exponents comes
        from ``_replacement_terms``.
        """
        n = self.n_positions
        terms = _replacement_terms(self.component, n)
        sbar = self.sbar_array
        shift = _DIFF - sbar[terms.at]  # a zero at q reads window row sbar[q] + shift
        hit = np.zeros(terms.target.shape, dtype=bool)
        end_cost = start_cost = 0
        for (end_at, end_row), (start_at, start_rest) in zip(terms.end, terms.start):
            # j zeros raised at the end of the run, positions p-j..p-1: the
            # rest of the run now precedes the one at p-j
            d = sbar[end_at] + shift
            hit |= end_cost + terms.tail.take(end_row + d, axis=0) > terms.target
            end_cost = end_cost + terms.alone.take(d, axis=0)
            # j zeros raised at the start of the run, positions p-r..p-r+j-1:
            # the rest of the run now precedes the demoted coefficient
            start_cost = start_cost + terms.alone.take(sbar[start_at] + shift, axis=0)
            hit |= start_cost + start_rest > terms.target
        dominated = np.zeros(((n + 1) * n, MAX_SIZE + 1), dtype=bool)
        dominated[terms.cells, _TESTED] = hit
        dominated = dominated.reshape(n + 1, n, MAX_SIZE + 1)
        dominated.setflags(write=False)
        return dominated

    @functools.cached_property
    def base_sets(self) -> LossGainSets:
        """The full base-level delta sets, the start of every refinement
        ``build_sets`` returns."""
        return enumerate_deltas(self)

    @functools.cached_property
    def head_sets(self) -> LossGainSets:
        """The base-level sets a limit starts from: every gain, and only
        the ``_LOSS_HEAD`` smallest losses."""
        return _enumerate(self, _LOSS_HEAD)


# One row of a delta set.  ``start`` and ``width`` give the footprint,
# the positions start..start+width-1; the exact per-position value is
# ``bits * (SCALE // width)``.  ``multiplicity`` is the number of copies
# the entry carries: its width, until capacity pruning reduces it.  Rows
# are padded to 16 bytes, a size numpy gathers as whole items; records of
# other sizes are copied field by field, many times slower.
_ROW = np.dtype({
    "names": ["kind", "position", "run", "size", "start", "width", "bits", "multiplicity"],
    "formats": ["u1"] * 6 + ["i2", "u1"],
    "offsets": [0, 1, 2, 3, 4, 5, 6, 8],
    "itemsize": 16,
})


@dataclass(frozen=True, eq=False)
class LossGainSets:
    """Loss and gain multisets plus the evaluated-case census.

    Each multiset is a ``_ROW`` record array in ascending (value, kind,
    position, runlength, size) order, which the refinements keep; the
    engine reads only the rows.  The ``losses``, ``gains9`` and
    ``gains10`` tuples show the same rows to a reader as ``DeltaEntry``
    records, in the same order; each is built on first read, so the limit
    path never builds one.  The value order is exact: see ``_by_value``.
    The sets a limit reads may hold only the head of the loss order (see
    ``_limit_sets``).  Compared by identity.
    """

    loss_rows: np.ndarray
    gain9_rows: np.ndarray
    gain10_rows: np.ndarray
    refinement: Refinement
    census: dict[str, int]

    @functools.cached_property
    def losses(self) -> tuple[DeltaEntry, ...]:
        return _delta_entries(self.loss_rows)

    @functools.cached_property
    def gains9(self) -> tuple[DeltaEntry, ...]:
        return _delta_entries(self.gain9_rows)

    @functools.cached_property
    def gains10(self) -> tuple[DeltaEntry, ...]:
        return _delta_entries(self.gain10_rows)


@dataclass(frozen=True)
class BoundResult:
    """A limit, the objective it maximizes and the prefix sums it read.

    ``scaled_objective`` maps each admissible pair (a, b) to
    ``gain9_prefix[a] + gain10_prefix[b] - loss_prefix[3a + 15b]``.  All
    are exact ints in units of ``1/SCALE`` bits: ``loss_prefix[n]`` sums
    the n smallest loss copies, ``gain9_prefix[a]`` and
    ``gain10_prefix[b]`` the a largest size-9 and b largest size-10 gains,
    each up to the largest count a pair reads.  ``objective`` shows the
    objective as ``Fraction`` bits, built on first read.
    """

    component: ComponentKind
    sf: Fraction | None
    refinement: Refinement
    ref_len: int
    scaled_objective: dict[tuple[int, int], int]
    argmax: tuple[int, int]
    limit: int
    loss_prefix: tuple[int, ...]
    gain9_prefix: tuple[int, ...]
    gain10_prefix: tuple[int, ...]

    @functools.cached_property
    def objective(self) -> dict[tuple[int, int], Fraction]:
        return {pair: Fraction(v, SCALE) for pair, v in self.scaled_objective.items()}

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
    exponents = tuple(int(c) for c in exponents)
    if not 1 <= len(exponents) <= AC_POSITIONS:
        raise ParameterError(f"1 to {AC_POSITIONS} positions are supported")
    if any(c < 0 or c > REFERENCE_SIZE - 2 for c in exponents):
        raise ParameterError(
            f"exponents must lie in 0..{REFERENCE_SIZE - 2} (reference sizes >= 2)"
        )
    sbar = tuple(REFERENCE_SIZE - c for c in exponents)
    ref_len = int(table_for(component).lengths[0, list(sbar)].sum())
    return ReferenceConfig(component, exponents, sbar, ref_len)


def reference_length(component: ComponentKind, exponents) -> ReferenceConfig:
    """Reference configuration for the exponents of a full 63-position
    power-of-2 table."""
    if len(exponents) != AC_POSITIONS:
        raise ParameterError(f"expected {AC_POSITIONS} exponents, got {len(exponents)}")
    return reference_config(component, exponents)


def admissible_pairs(n_positions: int = AC_POSITIONS) -> list[tuple[int, int]]:
    """All (a, b) promotion counts the ball constraint allows.

    ``a`` size-9 and ``b`` size-10 coefficients consume ``4a + 16b`` of
    the ``n + 1`` available energy units; for the 63-position block this
    reduces to a + 4b < 16, exactly 40 pairs.
    """
    return list(_admissible(n_positions)[0])


@functools.cache
def _admissible(n_positions: int):
    """The admissible pairs, the loss copies ``3a + 15b`` each is charged,
    and the counts (loss copies, size-9 gains, size-10 gains) a limit reads."""
    pairs = tuple(sorted(
        (a, b)
        for b in range(0, n_positions // ENERGY_UNITS_10 + 1)
        for a in range(0, n_positions // ENERGY_UNITS_9 + 1)
        if ENERGY_UNITS_9 * a + ENERGY_UNITS_10 * b <= n_positions
    ))
    charged = tuple(PROMOTION_COST_9 * a + PROMOTION_COST_10 * b for a, b in pairs)
    counts = (max(charged), max(a for a, _ in pairs), max(b for _, b in pairs))
    return pairs, charged, counts


# -- one builder per operation family ------------------------------------
# Each turns arrays of operation instances into the row columns (kind,
# position, run, size, start, width) of their entries, then their bits.
# ``p`` and ``r`` are arrays of positions and runs with 0 <= r < p; a run's
# zeros are the positions p-r..p-1.  ``bits`` is the entry's bit total,
# spread over its ``width`` affected positions.  The loss builders do not
# read the exponents: they end in the terms (hi, lo, sub) of the bits
# ``prefix[hi] - prefix[lo] - sub`` (``_loss_bits``), the reference cost of
# positions lo+1..hi less the code that replaces them.


def _demotions(table: CodeLengthTable, p, r, s):
    """OP1/OP2: r zeros ending in a coefficient demoted to size s."""
    return _kind_ranks(_DEMOTION, r), p, r, s, p - r, r + 1, p, p - r - 1, table.lengths[r, s]


def _kept(table: CodeLengthTable, p, r, size):
    """OP3: r >= 1 zeros ahead of a kept reference coefficient of ``size``."""
    return _KIND_RANK[OpKind.OP3], p, r, size, p - r, r, p, p - r - 1, table.lengths[r, size]


def _eobs(table: CodeLengthTable, n: int, p):
    """OP4: EOB after position p of n; p = 0 zeroes the whole block."""
    return _KIND_RANK[OpKind.OP4], p, 0, 0, p + 1, n - p, n, p, table.eob_bits


def _loss_bits(prefix: np.ndarray, hi, lo, sub):
    """The bits of loss rows from their builder terms and a reference's
    ``prefix``."""
    return prefix.take(hi) - prefix.take(lo) - sub


def _costed(ref: ReferenceConfig, family):
    """A loss builder's columns with the terms replaced by ``ref``'s bits."""
    *columns, hi, lo, sub = family
    return (*columns, _loss_bits(ref.prefix, hi, lo, sub))


def _promotions(ref: ReferenceConfig, p, r, step):
    """OP5/OP6: r zeros ending in a coefficient promoted by ``step``
    sizes, costed at its own position (the zeros are OP3's)."""
    lengths, size = table_for(ref.component).lengths, ref.sbar_array[p - 1]
    bits = lengths[r, size + step] - lengths[r, size]
    return _kind_ranks(_PROMOTION[step], r), p, r, size + step, p, 1, bits


@functools.cache
def _escape_grid(component: ComponentKind) -> np.ndarray:
    """``[r, s]``: the Huffman code of (r, s) lies in the escape region."""
    table = table_for(component)
    return np.array([
        [False] + [
            table.huffman_length(r, s) >= ESCAPE_HUFFMAN_BITS for s in range(1, MAX_SIZE + 1)
        ]
        for r in range(MAX_RUNLENGTH + 1)
    ])


# The replacement test covers the sizes s = 3..10.  A zero at q raised to
# S - 1 takes size t = s - 1 + sbar[q] - sbar[p], and reference sizes lie
# in 2..8, so the difference is at most _DIFF either way.  _INVALID is the
# length of a replacement that cannot be made (t outside 1..10, or a run
# shorter than j): a test sums at most four code lengths of at most 59
# bits, so any sum holding _INVALID stays below every target.
_TESTED = slice(3, MAX_SIZE + 1)
_DIFF = REFERENCE_SIZE - 2
_INVALID = -1024


@dataclass(frozen=True, eq=False)
class _ReplacementTerms:
    """The exponent-free terms of the replacement test for n positions.

    One row per pattern pair 1 <= r < p <= n, in ``np.tril_indices``
    order, and one column per size s = 3..10:

    * ``cells``: the pair's row ``p * n + r`` in the ``[p, r]`` plane;
    * ``at``: its position, p - 1 from 0;
    * ``target``: the pattern's own length ``len(r, s)``;
    * ``alone``: row ``sbar[q] - sbar[p] + _DIFF`` is ``len(0, t)`` for a
      lone zero raised at q;
    * ``tail``: that row plus ``k * (2 * _DIFF + 1)`` is ``len(k, t)``
      after k zeros, plus the demoted coefficient's ``len(0, s - 1)``;
    * ``end[j - 1]``: the position of the zero raised at p - j and the
      ``tail`` offset of the r - j zeros before it;
    * ``start[j - 1]``: the position of the zero raised at p - r + j - 1
      and the length ``len(r - j, s - 1)`` of the demoted coefficient
      after the rest of the run.
    """

    cells: np.ndarray
    at: np.ndarray
    target: np.ndarray
    alone: np.ndarray
    tail: np.ndarray
    end: tuple
    start: tuple


@functools.cache
def _replacement_terms(component: ComponentKind, n: int) -> _ReplacementTerms:
    lengths = table_for(component).lengths
    p, r = np.tril_indices(n, -1)
    p, r = p + 1, r + 1  # 1 <= r < p <= n
    demoted = lengths[:, 2:MAX_SIZE]  # len(k, s - 1) for s = 3..10
    t = np.arange(-_DIFF, _DIFF + 1)[:, None] + np.arange(2, MAX_SIZE)
    valid = (t >= 1) & (t <= MAX_SIZE)
    t = np.clip(t, 0, MAX_SIZE)
    alone = np.where(valid, lengths[0, t], _INVALID).astype(np.int16)
    # one more block of rows, all invalid, for runs shorter than j
    tail = np.full((MAX_RUNLENGTH + 2,) + t.shape, _INVALID, dtype=np.int16)
    tail[:-1] = np.where(valid, lengths[:, t] + demoted[0], _INVALID)
    end, start = [], []
    for j in range(1, MAX_REPLACED_ZEROS + 1):
        short = r < j
        rest = np.where(short, MAX_RUNLENGTH + 1, r - j)
        end.append((np.maximum(p - j - 1, 0), rest * len(t)))
        start.append((
            np.minimum(p - r + j - 2, p - 1),
            np.where(short[:, None], _INVALID, demoted[np.maximum(r - j, 0)]).astype(np.int16),
        ))
    terms = _ReplacementTerms(
        p * n + r, p - 1, lengths[r, _TESTED], alone, tail.reshape(-1, t.shape[1]),
        tuple(end), tuple(start),
    )
    for array in (terms.cells, terms.at, terms.target, terms.alone, terms.tail,
                  *chain.from_iterable(terms.end + terms.start)):
        array.setflags(write=False)
    return terms


# Entry order inside each set: value, then kind name, position, run, size.
_KIND_ORDER = tuple(sorted(OpKind, key=lambda kind: kind.value))
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KIND_ORDER)}

# Kinds indexed by ``r > 0``, the bare operation first: a demotion, and a
# promotion by its size step S - 8.
_DEMOTION = (OpKind.OP1, OpKind.OP2)
_PROMOTION = {1: (OpKind.OP5A, OpKind.OP6A), 2: (OpKind.OP5B, OpKind.OP6B)}


# The sign of a row's bits in the coded length, by kind rank: OP1-OP4
# rows are losses, OP5 and OP6 rows gains.
_SIGN = np.array([
    -1 if kind in (OpKind.OP1, OpKind.OP2, OpKind.OP3, OpKind.OP4) else 1
    for kind in _KIND_ORDER
])


def _kind_ranks(kinds, run):
    """uint8 kind ranks by run length, the bare kind at r = 0."""
    bare, with_run = (np.uint8(_KIND_RANK[kind]) for kind in kinds)
    return np.where(run > 0, with_run, bare)


def _rows(families) -> np.ndarray:
    """The rows of the given families of entries, in order, each family
    given as the columns (kind, position, run, size, start, width, bits)
    a builder returns, scalars broadcast.  Rows start zeroed, so their
    padding bytes are too."""
    rows = np.zeros(sum(len(family[-1]) for family in families), _ROW)
    lo = 0
    for kind, position, run, size, start, width, bits in families:
        part = rows[lo:lo + len(bits)]
        part["kind"], part["position"], part["run"], part["size"] = kind, position, run, size
        part["start"], part["width"], part["bits"] = start, width, bits
        part["multiplicity"] = width
        lo += len(bits)
    return rows


def _tier(bits, width) -> np.ndarray:
    """The exact value tier ``(bits << 12) // width``, int64: rows share a
    tier exactly when they share a value (see ``_by_value``)."""
    return (np.asarray(bits, dtype=np.int64) << 12) // width


def _tiers(rows: np.ndarray) -> np.ndarray:
    return _tier(rows["bits"], rows["width"])


def _low_key(kind, position, run, size) -> np.ndarray:
    """The 19 low bits of the sort key: kind (3 bits), position (6), run
    (6) and size (4)."""
    low = np.asarray(kind, dtype=np.int32) << 16
    low |= np.asarray(position, dtype=np.int32) << 10
    low |= np.asarray(run, dtype=np.int32) << 4
    low |= size
    return low


def _smallest(key: np.ndarray, head: int | None = None) -> np.ndarray:
    """Indices of the ``head`` smallest keys, or of all without ``head``,
    in ascending key order.  Keys are unique, so the head is the start of
    the full order."""
    if head is None or head >= len(key):
        return np.argsort(key)
    part = np.argpartition(key, head - 1)[:head]
    return part[np.argsort(key[part])]


def _by_value(rows: np.ndarray) -> np.ndarray:
    """``rows`` sorted by value, kind, position, run and size.

    One ``np.argsort`` on one int64 key: the value tier above the 19 low
    bits of ``_low_key``.  The tier is exact: two distinct fractions with
    widths of at most 63 differ by at least 1/(63 * 62) = 1/3906, so times
    4096 > 3906 they differ by more than 1 and their floors differ in the
    same order; equal fractions have equal floors.  int16 bits keep the
    tier below 2**27 in magnitude, so the key stays below 2**47.  No two
    rows of a set share kind, position, run and size, so the key is unique
    and the order does not depend on the sort algorithm.
    """
    low = _low_key(rows["kind"], rows["position"], rows["run"], rows["size"])
    return rows[_smallest(_tiers(rows) << 19 | low)]


def _delta_entries(rows: np.ndarray) -> tuple[DeltaEntry, ...]:
    return tuple(
        DeltaEntry(_KIND_ORDER[kind], p, r, s, value, m)
        for (kind, p, r, s, _, _, _, m), value in zip(rows.tolist(), _values(rows))
    )


@dataclass(frozen=True, eq=False)
class _LossTemplate:
    """Every loss row some reference of n positions can hold, with each
    column that does not depend on the exponents, as read-only arrays of
    8 or 16 bits: the row columns and the builders' bit terms ``hi``,
    ``lo`` and ``sub``; and ``low``, the 19 low bits of the sort key.

    The rows come in blocks a reference picks by its size v at each
    position p.  The OP1/OP2 demotions of p, from row ``demotions_at[p -
    1]``, run over s = 1..7 and within each s over r = 0..p-1, so the
    first p * (v - 1) are those with s < v.  The OP3 kept coefficients of
    p, from row ``kept_at[p - 1]``, run over v = 2..8 and within each v
    over r = 1..p-1.  The n - 1 OP4 EOBs close the template.
    """

    kind: np.ndarray
    position: np.ndarray
    run: np.ndarray
    size: np.ndarray
    start: np.ndarray
    width: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    sub: np.ndarray
    low: np.ndarray
    demotions_at: np.ndarray
    kept_at: np.ndarray


_MIN_SBAR = REFERENCE_SIZE - 6  # the smallest reference size, at exponent 6
_SBAR_COUNT = REFERENCE_SIZE + 1 - _MIN_SBAR


@functools.cache
def _loss_template(component: ComponentKind, n: int) -> _LossTemplate:
    table = table_for(component)
    p = np.arange(1, n + 1, dtype=np.int16)  # int16 columns keep the build small
    demoted_rows, kept_rows = MAX_LOSS_SIZE * p, _SBAR_COUNT * (p - 1)  # per position
    demotions_at = np.cumsum(demoted_rows) - demoted_rows
    kept_at = demoted_rows.sum() + np.cumsum(kept_rows) - kept_rows
    # q is the position of each row and k its index in the position's block
    q, k = p.repeat(demoted_rows), _ranges(np.zeros_like(p), demoted_rows).astype(np.int16)
    s, r = np.divmod(k, q)
    demotions = _demotions(table, q, r, s + 1)
    q, k = p.repeat(kept_rows), _ranges(np.zeros_like(p), kept_rows).astype(np.int16)
    s, r = np.divmod(k, q - 1)
    kept = _kept(table, q, r + 1, s + _MIN_SBAR)
    families = (demotions, kept, _eobs(table, n, np.arange(1, n)))
    total = sum(len(family[1]) for family in families)
    columns = [np.empty(total, np.uint8) for _ in range(8)] + [np.empty(total, np.int16)]
    at = 0
    for family in families:
        rows = len(family[1])
        for column, values in zip(columns, family):
            column[at:at + rows] = values
        at += rows
    template = _LossTemplate(*columns, _low_key(*columns[:4]), demotions_at, kept_at)
    for array in vars(template).values():
        array.setflags(write=False)
    return template


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices ``start..start + count - 1`` of each range, in order."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])


def _loss_rows(ref: ReferenceConfig, head: int | None = None) -> np.ndarray:
    """``ref``'s loss rows in value order, or only the ``head`` smallest.

    From the template, a reference computes only what its exponents fix:
    which rows it holds, their bits and their tier; rows are made only
    for the indices it keeps."""
    n = ref.n_positions
    t = _loss_template(ref.component, n)
    p, v = np.arange(1, n + 1), ref.sbar_array
    # per position its demotions below v and its kept coefficients at v,
    # then the n - 1 EOBs
    kept_at = t.kept_at + (v - _MIN_SBAR) * (p - 1)
    i = _ranges(np.concatenate((t.demotions_at, kept_at, [len(t.kind) - (n - 1)])),
                np.concatenate((p * (v - 1), p - 1, [n - 1])))
    bits = _loss_bits(ref.prefix, t.hi.take(i), t.lo.take(i), t.sub.take(i))
    order = _smallest(_tier(bits, t.width.take(i)) << 19 | t.low.take(i), head)
    j = i.take(order)
    columns = (t.kind, t.position, t.run, t.size, t.start, t.width)
    return _rows([(*(c.take(j) for c in columns), bits.take(order))])


def enumerate_deltas(ref: ReferenceConfig) -> LossGainSets:
    """Evaluate every operation instance and collect the base delta sets.

    The census counts evaluated cases per family (demoted sizes 1..7 are
    always charged, reachable or not); retained entries are the subset
    with meaningful values, minus base-level gain exclusions: a run
    promotion (OP6) whose cell lies in the escape region is dropped when
    the replacement test certifies it.  The published per-cell exclusions
    are not machine readable; they are reconstructed as the escape-region
    cells, and dropping never costs soundness.  Demotions and promotions
    are built over the (position, run, size) grid with runs 0 <= r < p,
    the kind label naming the bare (r = 0) or run case; each set is
    sorted by value, kind, position, run and size.  Reference sizes are
    at most 8, so both promoted sizes stay within 10.
    """
    return _enumerate(ref)


def _enumerate(ref: ReferenceConfig, head: int | None = None) -> LossGainSets:
    """The base delta sets of ``enumerate_deltas``; with ``head``, the
    loss rows are only the ``head`` smallest."""
    n = ref.n_positions
    runs = n * (n - 1) // 2  # (p, r) pairs with 1 <= r < p
    census = {
        "op1": MAX_LOSS_SIZE * n, "op2": MAX_LOSS_SIZE * runs, "op3": runs, "op4": n - 1,
        "op5a": n, "op5b": n, "op6a": runs, "op6b": runs,
    }
    escape = _escape_grid(ref.component)
    p, r = np.tril_indices(n)
    p += 1  # r zeros ahead of position p, 0 <= r < p
    sbar = ref.sbar_array[p - 1]
    gains = []
    for step in _PROMOTION:
        size = sbar + step
        i = np.flatnonzero(~(escape[r, size] & ref.dominance[p, r, size]))
        gains.append(_by_value(_rows([_promotions(ref, p[i], r[i], step)])))
    return LossGainSets(_loss_rows(ref, head), *gains, Refinement.BASE, census)


def _capacity_walk(rows: np.ndarray, stop: float = math.inf) -> np.ndarray:
    """The loss rows the capacity rule keeps, with their copy counts.

    Walks ``rows`` in ascending order, keeping per value tier a bitmask of
    the positions already covered; an entry keeps the copies its footprint
    adds to that mask.  Stops once ``stop`` copies are held.
    """
    covered: dict[int, int] = {}
    kept: list[int] = []
    copies: list[int] = []
    held = 0
    columns = zip(_tiers(rows).tolist(), rows["start"].tolist(), rows["width"].tolist())
    for i, (tier, start, width) in enumerate(columns):
        if held >= stop:
            break
        footprint = ((1 << width) - 1) << start
        mask = covered.get(tier, 0)
        fresh = (footprint & ~mask).bit_count()
        if fresh:
            covered[tier] = mask | footprint
            kept.append(i)
            copies.append(fresh)
            held += fresh
    out = rows[kept]
    out["multiplicity"] = copies
    return out


def _one_gain_per_position(rows: np.ndarray) -> np.ndarray:
    """The capacity rule for a gain set: a gain is one copy at its own
    position, so each (value tier, position) pair keeps its first row.
    ``return_index`` gives first occurrences; integer indices keep the
    rows' zeroed padding bytes."""
    _, first = np.unique(_tiers(rows) << 6 | rows["position"], return_index=True)
    return rows[np.sort(first)]


def _capped(sets: LossGainSets, loss_stop: float = math.inf) -> LossGainSets:
    """The capacity level of ``sets``; the loss walk stops once it holds
    ``loss_stop`` copies, so the result may hold only the smallest ones."""
    refinement = (
        Refinement.MAXCONFIG
        if sets.refinement is Refinement.MAXCONFIG
        else Refinement.CAPACITY
    )
    return LossGainSets(
        _capacity_walk(sets.loss_rows, loss_stop),
        _one_gain_per_position(sets.gain9_rows),
        _one_gain_per_position(sets.gain10_rows),
        refinement,
        sets.census,
    )


def refine_capacity(sets: LossGainSets) -> LossGainSets:
    """Cap equal-valued copies at one per position.

    A position is affected by exactly one operation in any single
    configuration, so it can carry at most one copy of a given delta
    value; surplus copies within a value tier are dropped by reducing
    entry multiplicities in deterministic entry order.  Each loss tier
    keeps a bitmask of the positions it already covers, and an entry keeps
    the copies its footprint adds to that mask.  A gain is one copy at its
    own position, so a gain set keeps the first row of each value and
    position.  Footprints of reduced entries keep their original extent;
    only the copy counts feed a limit's prefix sums.
    """
    return _capped(sets)


def refine_maxconfig(sets: LossGainSets, ref: ReferenceConfig) -> LossGainSets:
    """Drop run-generating entries the replacement test proves impossible.

    Applies to OP2, OP3 and OP6 entries with quantized size above 2 (the
    other kinds have no run, which the test never drops); an entry
    survives unless a strictly longer replacement exists for its exact
    positions, so removal is always provable.
    """
    dominance = ref.dominance

    def kept(rows):
        return rows[np.flatnonzero(~dominance[rows["position"], rows["run"], rows["size"]])]

    return LossGainSets(
        kept(sets.loss_rows),
        kept(sets.gain9_rows),
        kept(sets.gain10_rows),
        Refinement.MAXCONFIG,
        sets.census,
    )


def _refined(sets: LossGainSets, ref: ReferenceConfig, refinement: Refinement,
             loss_stop: float = math.inf) -> LossGainSets:
    """``refinement`` applied to the base-level ``sets`` of ``ref``."""
    if refinement is Refinement.BASE:
        return sets
    if refinement is Refinement.MAXCONFIG:
        sets = refine_maxconfig(sets, ref)
    return _capped(sets, loss_stop)


def build_sets(ref: ReferenceConfig, refinement: Refinement) -> LossGainSets:
    """Delta sets at the requested refinement level."""
    return _refined(ref.base_sets, ref, refinement)


def _limit_sets(ref: ReferenceConfig, refinement: Refinement, loss_stop: int) -> LossGainSets:
    """The sets a limit reads: ``refinement`` applied to ``ref.head_sets``,
    the loss walk stopping once it holds ``loss_stop`` copies.

    The gain sets are those of ``build_sets``, and the loss rows a prefix
    of its loss rows: the head rows are the first rows of the full order,
    and maxconfig keeps their order, so a walk that reaches its stop
    inside the head is the full walk.  A head of ``_LOSS_HEAD`` rows may
    have been cut short: if its loss rows run out first, the level is made
    again from the full base sets.
    """
    sets = _refined(ref.head_sets, ref, refinement, loss_stop)
    if (len(ref.head_sets.loss_rows) >= _LOSS_HEAD
            and int(sets.loss_rows["multiplicity"].sum()) < loss_stop):
        sets = _refined(ref.base_sets, ref, refinement, loss_stop)
    return sets


def _values(rows: np.ndarray) -> list[int]:
    """Exact per-position values of ``rows``, in units of 1/SCALE bits."""
    columns = zip(rows["bits"].tolist(), rows["width"].tolist())
    return [bits * (SCALE // width) for bits, width in columns]


def _loss_prefix(rows: np.ndarray, count: int) -> tuple[int, ...]:
    """prefix[i] = sum of the i smallest loss copies, i = 0..count."""
    rows = rows[:count]  # every row carries at least one copy
    copies = chain.from_iterable(map(repeat, _values(rows), rows["multiplicity"].tolist()))
    return tuple(accumulate(islice(copies, count), initial=0))


def _gain_prefix(rows: np.ndarray, count: int) -> tuple[int, ...]:
    """prefix[i] = sum of the i largest gain values, i = 0..count."""
    return tuple(accumulate(_values(rows[::-1][:count]), initial=0))


def solve_limit(
    ref: ReferenceConfig,
    refinement: Refinement = Refinement.BASE,
    sf: Fraction | None = None,
    sets: LossGainSets | None = None,
) -> BoundResult:
    """Maximize gains minus forced losses over the admissible pairs.

    Without ``sets``, the limit reads only the loss head and the loss walk
    stops once it holds the copies the pairs read (see ``_limit_sets``).
    """
    pairs, charged, (max_n, max_a, max_b) = _admissible(ref.n_positions)
    if sets is None:
        sets = _limit_sets(ref, refinement, max_n)
    losses = _loss_prefix(sets.loss_rows, max_n)
    gains9 = _gain_prefix(sets.gain9_rows, max_a)
    gains10 = _gain_prefix(sets.gain10_rows, max_b)
    if len(losses) <= max_n:
        raise LossSetExhaustedError(f"needed {max_n} loss copies, have {len(losses) - 1}")
    if len(gains9) <= max_a or len(gains10) <= max_b:
        raise LossSetExhaustedError("gain sets too small for the admissible pairs")

    scaled = {(a, b): gains9[a] + gains10[b] - losses[c] for (a, b), c in zip(pairs, charged)}
    argmax = max(scaled, key=scaled.__getitem__)
    limit = ref.ref_len - (-scaled[argmax] // SCALE)
    return BoundResult(ref.component, sf, sets.refinement, ref.ref_len, scaled, argmax, limit,
                       losses, gains9, gains10)


@functools.lru_cache(maxsize=256)
def upper_limit(
    component: ComponentKind,
    q: QuantTable,
    refinement: Refinement = Refinement.BASE,
) -> BoundResult:
    """Upper AC code-length limit for a quantization table, memoized."""
    if q.component is not component:
        raise ParameterError("component and quantization table disagree")
    return solve_limit(_cell_reference(component, pow2_table(q)), refinement, sf=q.sf)


@functools.lru_cache(maxsize=1)
def _cell_reference(component: ComponentKind, exponents: tuple[int, ...]) -> ReferenceConfig:
    """The reference of the cell ``upper_limit`` is computing.  Its callers
    ask for one cell's levels back to back, so the levels share one
    enumeration and a cell's state is freed once the next cell starts."""
    return reference_length(component, exponents)


# -- exact decomposition of a target configuration -----------------------


def decompose(target, ref: ReferenceConfig) -> np.ndarray:
    """Unique operation rows transforming the reference into ``target``.

    ``target`` holds unquantized sizes of a reduced configuration: one
    integer in 0..10 per position, zero exactly where the quantized size
    is zero.  Returns ``_ROW`` rows, the EOB first, then by position, a
    kept coefficient's OP3 ahead of its OP6; each row carries all its
    copies (``multiplicity == width``).  ``recompose_length`` sums them
    back to the coded length of the target exactly.
    """
    n = ref.n_positions
    sizes = []
    for p, s in enumerate(target, start=1):
        try:
            size = operator.index(s)  # refuses a float, even an integral one
        except TypeError:
            size = -1
        if not 0 <= size <= MAX_SIZE:
            raise ParameterError(f"position {p}: size {s} is not an integer in 0..{MAX_SIZE}")
        sizes.append(size)
    if len(sizes) != n:
        raise ParameterError(f"expected {n} sizes, got {len(sizes)}")
    energy = sum(1 << (2 * s - 2) for s in sizes if s > 0)
    if energy >= (n + 1) << (2 * REFERENCE_SIZE - 2):
        raise ParameterError("size vector violates the coefficient-ball budget")
    for p, s in enumerate(sizes, start=1):
        if s != 0 and s <= ref.exponents[p - 1]:
            raise ParameterError(
                f"position {p}: nonzero unquantized size {s} quantizes to zero"
            )

    sizes = np.array(sizes, dtype=np.intp)
    p = np.flatnonzero(sizes) + 1
    r = np.diff(p, prepend=0) - 1  # zeros ahead of each nonzero position
    S = sizes[p - 1]
    demoted = S < REFERENCE_SIZE
    kept = ~demoted & (r > 0)
    quantized = S - np.array(ref.exponents, dtype=np.intp)[p - 1]
    table = table_for(ref.component)
    families = [
        _costed(ref, _demotions(table, p[demoted], r[demoted], quantized[demoted])),
        _costed(ref, _kept(table, p[kept], r[kept], ref.sbar_array[p[kept] - 1])),
    ]
    for step in _PROMOTION:
        promoted = S == REFERENCE_SIZE + step
        families.append(_promotions(ref, p[promoted], r[promoted], step))
    last = p.max(initial=0)
    if last < n:
        families.append(_costed(ref, _eobs(table, n, np.array([last]))))
    rows = _rows(families)
    # the EOB first, then by position; lexsort is stable, so a kept
    # coefficient's OP3 stays ahead of its OP6
    return rows[np.lexsort((rows["position"], rows["kind"] != _KIND_RANK[OpKind.OP4]))]


def recompose_length(ref: ReferenceConfig, rows: np.ndarray) -> int:
    """The coded length of a target from its ``decompose`` rows: the
    reference length minus the loss bits plus the gain bits."""
    return ref.ref_len + int(_SIGN[rows["kind"]] @ rows["bits"])
