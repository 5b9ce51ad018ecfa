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
maximum, over feasible (a, b), of the a+b largest gains minus the least
sum of at least ``m = 3a + 15b`` loss copies.

A loss copy can be negative: a demotion or a kept coefficient behind a
run can code longer than the reference span it replaces.  A
configuration with a and b promotions takes u >= m copies of its loss
set, and its length is the reference length plus its gains less their
sum.  Let L(i) sum the i smallest copies and k count the negative ones:
L falls up to i = k and never after, so the u copies sum to at least
L(u) >= L(max(m, k)), which the pair is charged (L(m) when k = 0).  So
a limit reads every negative copy, which sort first: ``solve_limit``
counts them and sums the first max(54, k) copies, a walk that holds its
count stops at its first row that is not negative, and the loss head
serves a limit only if its last row is not negative.

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
from it.  One builder per operation family turns operation instances
into the columns of their rows.  The loss builders do not read the
exponents: they end in the terms of the bits, which one function
evaluates against a reference's prefix sums.  The builders run once per
component and length, to build the loss template and the gain keys, so
each delta formula is written once; enumeration and decomposition both
read those tables, through one loss-key and one promotion-key formula.
Code lengths come from the component's one ``CodeLengthTable.lengths``
array.

A delta set is a numpy record array, one narrow row per entry: kind
rank, position, run, size, footprint start and width, the entry's bit
total and its copy count.  A set is ordered by one unique int64 key: the
exact value tier (``_tier``), which also names a value in the capacity
walk, above low bits packing kind, position, run, size, start and width,
laid out once in ``_KEY_FIELDS``.  The key holds every column of its row,
the bits read back from the tier, so one decoder, ``_key_rows``, builds
every row the engine makes.  The loss template holds every loss row some
reference of that length can hold, as the terms of its bits and the low
bits of its key, in blocks a reference picks by its size at each
position; a reference computes the keys of the rows it holds, then
sorts, cuts and decodes them.  A gain's key but for its position and start fields
depends only on the run and the reference size; the keys are cached per
component and length with their escape flags, so a reference gathers
them by its sizes, drops the dominated escape-region ones, sorts the
keys largest first and decodes them.

One pipeline makes every level: ``enumerate_deltas`` makes the base
sets, ``refine_maxconfig`` and ``refine_capacity`` prune them, and
``build_sets`` runs the stages a level needs.  Loss sets are stored
smallest first and gain sets largest first, and every stage reads a set
from its start.  The maxconfig level is one boolean mask over the
rows.  The capacity level walks each set keeping, per value tier, an
integer bitmask of the positions already covered; an entry keeps as many
copies as its footprint adds to that mask.  A gain's footprint is its own
position, so a gain set keeps the first gain of each value and position.

A limit reads only the first ``max(3a + 15b)``, ``max(a)`` and
``max(b)`` copies of the three sets, (54, 15, 3) at n = 63, and the
negative loss copies, so it asks ``build_sets`` for those stops and
starts from the reference's head.  Only the loss head is cut short: one
``np.partition`` picks the ``_LOSS_HEAD`` smallest keys among the rows
with runs of at most ``_RUN_BOUND`` (10) and the EOBs, a third of the
rows at n = 63, and keeps those below ``_long_run_floor``, a floor on
the tier of every longer-run row.  Keys order by tier first, so the head
is a prefix of the full order, and only its keys are sorted and
decoded.  Only a loss walk that runs past it, a head whose last row is
negative, or a walk without a stop is made from the full order: every
limit reads, from each set, the first rows of what ``build_sets``
returns without stops.

The engine computes exactly in integer units of ``1/SCALE`` bits, where
``SCALE = lcm(1..63)`` is divisible by every width.  ``SCALE`` has 89
bits, so exact values are Python ints, made only for the rows a prefix
sums or an entry reads.  A limit keeps the loss and gain prefix sums it
maximizes over, and its objective, in those units, so a reader audits
the numbers the limit read; it builds ``Fraction`` values only when its
objective is read.  ``DeltaEntry`` objects are built only when a set's
entry tuples are read.

``decompose`` returns the same rows for the operations of one target: it
picks them from the loss template and the gain keys by position, run and
size, and builds only its EOB, since no template holds the whole-block
EOB.  The rows are decoded from their keys, each carrying all its
copies, so a row's copies sum to its ``bits`` total and
``recompose_length`` is an integer sum: the reference length minus the
loss bits plus the gain bits.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import NamedTuple

import numpy as np

from .entropy_model import (
    AC_POSITIONS,
    MAX_RUNLENGTH,
    MAX_SIZE,
    CodeLengthTable,
    ComponentKind,
    ParameterError,
    read_only,
    table_for,
)
from .quantization import QuantTable, pow2_table

REFERENCE_SIZE = 8          # unquantized size of every reference coefficient
MIN_REFERENCE_SIZE = 2      # smallest reference size, so quantized ones stay nonzero
PROMOTION_COST_9 = 3        # forced demotions per size-9 promotion
PROMOTION_COST_10 = 15      # forced demotions per size-10 promotion
ENERGY_UNITS_9 = 4          # ball-energy units consumed by a size-9 coefficient
ENERGY_UNITS_10 = 16
ESCAPE_HUFFMAN_BITS = 15    # huffman lengths >= this form the escape region
BALL_UNIT = 4 ** (REFERENCE_SIZE - 1)  # ball energy of one reference coefficient, 2**14
MAX_REPLACED_ZEROS = 3      # the energy identity allows at most 3 same-size copies
MAX_LOSS_SIZE = 7           # demoted sizes evaluated per position
SCALE = math.lcm(*range(1, AC_POSITIONS + 1))  # exact-value unit is 1/SCALE bits
_LOSS_HEAD = 256            # loss rows a limit orders (see ``build_sets``)
_RUN_BOUND = 10             # longest run a loss head orders (see ``_loss_rows``)


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
        return read_only(np.array(self.sbar, dtype=np.intp))

    @functools.cached_property
    def prefix(self) -> np.ndarray:
        """prefix[i] = sum of len(0, sbar_k) for k = 1..i."""
        lengths = table_for(self.component).lengths
        return read_only(np.concatenate(([0], np.cumsum(lengths[0, self.sbar_array]))))

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
        return read_only(dominated.reshape(n + 1, n, MAX_SIZE + 1))

    @functools.cached_property
    def base_sets(self) -> LossGainSets:
        """The full base-level delta sets, which ``build_sets`` refines
        without a stop or when a walk runs past the head."""
        return enumerate_deltas(self)

    @functools.cached_property
    def head_sets(self) -> LossGainSets:
        """The base-level sets a limit starts from: every gain, and a
        prefix of the loss order, at most ``_LOSS_HEAD`` rows cut at the
        long-run floor (see ``_loss_rows``)."""
        return enumerate_deltas(self, _LOSS_HEAD)


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

    Each multiset is a ``_ROW`` record array in ``_sort_key`` order,
    ascending for losses and descending for gains, which the refinements
    keep; the engine reads only the rows, a limit only the first ones.
    The ``losses``, ``gains9`` and ``gains10`` tuples show the same rows
    to a reader as ``DeltaEntry`` records, in the same order; each is
    built on first read, so the limit path never builds one.  The sets a
    limit reads may hold only the head of the loss order (see
    ``build_sets``).  Compared by identity.
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
    ``gain9_prefix[a] + gain10_prefix[b] - loss_prefix[max(3a + 15b, k)]``,
    k the number of negative loss copies.  All are exact ints in units of
    ``1/SCALE`` bits: ``loss_prefix[n]`` sums the n smallest loss copies,
    ``gain9_prefix[a]`` and ``gain10_prefix[b]`` the a largest size-9 and b
    largest size-10 gains, each up to the largest count a pair reads, and
    the loss prefix on to k.  ``objective`` shows the objective as
    ``Fraction`` bits, built on first read.
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


def check_positions(n: int) -> int:
    """``n``, if the engine supports ``n`` positions, 1 to 63: the one
    statement of that range."""
    if not 1 <= n <= AC_POSITIONS:
        raise ParameterError(f"1 to {AC_POSITIONS} positions are supported")
    return n


def reference_config(component: ComponentKind, exponents) -> ReferenceConfig:
    """Build the reference configuration for an exponent vector.

    Every exponent must leave a quantized reference size of at least
    ``MIN_REFERENCE_SIZE``, so that reference coefficients stay nonzero
    after quantization and the promotion interdependence holds.  Any
    integer type is accepted (through ``operator.index``); a float, even
    an integral one, or a string is refused.
    """
    try:
        exponents = tuple(map(operator.index, exponents))
    except TypeError:
        raise ParameterError("exponents must be integers") from None
    check_positions(len(exponents))
    sbar = tuple(REFERENCE_SIZE - c for c in exponents)
    if not all(MIN_REFERENCE_SIZE <= v <= REFERENCE_SIZE for v in sbar):
        raise ParameterError(f"exponents must lie in 0..{REFERENCE_SIZE - MIN_REFERENCE_SIZE}"
                             f" (reference sizes >= {MIN_REFERENCE_SIZE})")
    ref_len = int(table_for(component).lengths[0, list(sbar)].sum())
    return ReferenceConfig(component, exponents, sbar, ref_len)


def reference_length(component: ComponentKind, exponents) -> ReferenceConfig:
    """Reference configuration for the exponents of a full 63-position
    power-of-2 table."""
    if len(exponents) != AC_POSITIONS:
        raise ParameterError(f"expected {AC_POSITIONS} exponents, got {len(exponents)}")
    return reference_config(component, exponents)


@functools.cache
def _admissible(n_positions: int):
    """The (a, b) promotion counts the ball constraint allows, the loss
    copies ``3a + 15b`` each forces, and the counts (loss copies, size-9
    gains, size-10 gains) a limit reads.

    ``a`` size-9 and ``b`` size-10 coefficients consume ``4a + 16b`` of
    the ``n + 1`` available energy units; for the 63-position block this
    reduces to a + 4b < 16, exactly 40 pairs.
    """
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


def _promotions(table: CodeLengthTable, p, r, size, step):
    """OP5/OP6: r zeros ending in a reference coefficient of ``size``
    promoted by ``step`` sizes, costed at its own position (the zeros are
    OP3's)."""
    bits = table.lengths[r, size + step] - table.lengths[r, size]
    return _kind_ranks(_PROMOTION[step], r), p, r, size + step, p, 1, bits


@functools.cache
def _escape_grid(component: ComponentKind) -> np.ndarray:
    """``[r, s]``: the Huffman code of (r, s) lies in the escape region.
    The code of the residual symbol (r mod 16, s) is its total length
    less the s amplitude bits; size 0 costs 0, so it never escapes."""
    residual = table_for(component).lengths[np.arange(MAX_RUNLENGTH + 1) % 16]
    return read_only(residual - np.arange(MAX_SIZE + 1) >= ESCAPE_HUFFMAN_BITS)


# The replacement test covers the sizes s = 3..10.  A zero at q raised to
# S - 1 takes size t = s - 1 + sbar[q] - sbar[p], and reference sizes lie
# in 2..8, so the difference is at most _DIFF either way.  _INVALID is the
# length of a replacement that cannot be made (t outside 1..10, or a run
# shorter than j): a test sums at most four code lengths of at most 59
# bits, so any sum holding _INVALID stays below every target.
_TESTED = slice(3, MAX_SIZE + 1)
_DIFF = REFERENCE_SIZE - MIN_REFERENCE_SIZE
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
        read_only(array)
    return terms


# Entry order inside each set: value, then kind name, position, run, size.
_KIND_ORDER = tuple(sorted(OpKind, key=lambda kind: kind.value))
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KIND_ORDER)}

# Kinds indexed by ``r > 0``, the bare operation first: a demotion, and a
# promotion by its size step S - 8.
_DEMOTION = (OpKind.OP1, OpKind.OP2)
_PROMOTION = {1: (OpKind.OP5A, OpKind.OP6A), 2: (OpKind.OP5B, OpKind.OP6B)}


# The sign of a row's bits in the coded length, by kind rank: promotion
# rows are gains, every other row a loss.
_SIGN = np.array([1 if kind in chain(*_PROMOTION.values()) else -1 for kind in _KIND_ORDER])


def _kind_ranks(kinds, run):
    """uint8 kind ranks by run length, the bare kind at r = 0."""
    bare, with_run = (np.uint8(_KIND_RANK[kind]) for kind in kinds)
    return np.where(run > 0, with_run, bare)


# The sort key's layout: the value tier (``_tier``) above bit
# ``_TIER_SHIFT``, and below it one field per ``_ROW`` column, named with
# its shift and mask, from the top.  Starts and widths are at most 63.
_TIER_BITS = 12
_TIER_SHIFT = 31
_KEY_FIELDS = {"kind": (28, 7), "position": (22, 63), "run": (16, 63), "size": (12, 15),
               "start": (6, 63), "width": (0, 63)}


def _tier(bits, width) -> np.ndarray:
    """The exact value tier ``(bits << _TIER_BITS) // width``, int64: rows
    share a tier exactly when they share a value.

    Two distinct fractions with widths of at most 63 differ by at least
    1/(63 * 62) = 1/3906, so times 4096 > 3906 they differ by more than 1
    and their floors differ in the same order; equal fractions have equal
    floors.  int16 bits keep the tier below 2**27 in magnitude.
    """
    return (np.asarray(bits, dtype=np.int64) << _TIER_BITS) // width


def _low_key(*columns) -> np.ndarray:
    """The low bits of the sort key, int32, from one column per field of
    ``_KEY_FIELDS``, in its order."""
    fields = (np.asarray(column, dtype=np.int32) << shift
              for column, (shift, _) in zip(columns, _KEY_FIELDS.values()))
    return functools.reduce(operator.or_, fields)


def _sort_key(bits, low) -> np.ndarray:
    """The int64 key that orders a set by value, kind, position, run and
    size: the value tier above the low bits of ``_low_key``, below 2**59 in
    magnitude.  No two rows of a set share kind, position, run and size, so
    the key is unique, start and width never decide the order, and the
    order does not depend on the sort algorithm.  The key holds every
    column of its row (see ``_key_rows``)."""
    shift, mask = _KEY_FIELDS["width"]
    return _tier(bits, low >> shift & mask) << _TIER_SHIFT | low


def _key_rows(key: np.ndarray) -> np.ndarray:
    """The rows of sort keys, in their order, each carrying all its
    copies (``multiplicity == width``): the one builder of ``_ROW``
    records.  Rows start zeroed, so their padding bytes are too.

    Each column is read back from its field of ``_KEY_FIELDS``, and the
    bits from the tier t: it lies less than 1 below ``bits * 4096 /
    width``, so ``t * width / 4096`` lies less than ``width / 4096 < 1``
    below the integer bits, and the bits are its ceiling.
    """
    rows = np.zeros(len(key), _ROW)
    for name, (shift, mask) in _KEY_FIELDS.items():
        rows[name] = key >> shift & mask
    width = rows["multiplicity"] = rows["width"]
    rows["bits"] = -(-(key >> _TIER_SHIFT) * width >> _TIER_BITS)
    return rows


def _delta_entries(rows: np.ndarray) -> tuple[DeltaEntry, ...]:
    return tuple(
        DeltaEntry(_KIND_ORDER[kind], p, r, s, value, m)
        for (kind, p, r, s, _, _, _, m), value in zip(rows.tolist(), _values(rows))
    )


@dataclass(frozen=True, eq=False)
class _LossTemplate:
    """Every loss row some reference of n positions can hold, as
    read-only arrays of what does not depend on the exponents: the
    builders' bit terms ``hi``, ``lo`` and ``sub`` in 8 or 16 bits, and
    ``low``, the low bits of the sort key (``_low_key``), which pack
    every other column of the row.

    The rows come in blocks a reference picks by its size v at each
    position p; block b of p starts at row ``blocks_at[p - 1, b]``.
    Blocks 0..6 hold the OP1/OP2 demotions to size s = b + 1 over r =
    0..p-1, of which a reference holds those with s < v; blocks 7..13 the
    OP3 kept coefficients of size b - 5 over r = 1..p-1, of which it holds
    those of size v; block 14 the OP4 EOB after p, if p < n.
    """

    hi: np.ndarray
    lo: np.ndarray
    sub: np.ndarray
    low: np.ndarray
    blocks_at: np.ndarray


_SBAR_COUNT = REFERENCE_SIZE + 1 - MIN_REFERENCE_SIZE


@functools.cache
def _loss_template(component: ComponentKind, n: int) -> _LossTemplate:
    table = table_for(component)
    p = np.arange(1, n + 1, dtype=np.int16)  # int16 columns keep the build small
    demoted_rows, kept_rows = MAX_LOSS_SIZE * p, _SBAR_COUNT * (p - 1)  # per position
    # the demotions of every position first, then the kept coefficients, then the EOBs
    family_rows = np.concatenate((demoted_rows, kept_rows, np.ones_like(p)))
    at = (np.cumsum(family_rows) - family_rows).reshape(3, n, 1)
    blocks_at = np.hstack((at[0] + p[:, None] * np.arange(MAX_LOSS_SIZE),
                           at[1] + (p - 1)[:, None] * np.arange(_SBAR_COUNT), at[2]))
    # q is the position of each row and k its index in the position's block
    q, k = p.repeat(demoted_rows), _ranges(np.zeros_like(p), demoted_rows).astype(np.int16)
    s, r = np.divmod(k, q)
    demotions = _demotions(table, q, r, s + 1)
    q, k = p.repeat(kept_rows), _ranges(np.zeros_like(p), kept_rows).astype(np.int16)
    s, r = np.divmod(k, q - 1)
    kept = _kept(table, q, r + 1, s + MIN_REFERENCE_SIZE)
    families = (demotions, kept, _eobs(table, n, np.arange(1, n)))
    low, hi, lo, sub = (np.concatenate(parts) for parts in zip(*(
        np.broadcast_arrays(_low_key(*family[:6]), *family[6:]) for family in families
    )))
    template = _LossTemplate(hi.astype(np.uint8), lo.astype(np.uint8), sub.astype(np.int16),
                             low, blocks_at)
    for array in vars(template).values():
        read_only(array)
    return template


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices ``start..start + count - 1`` of each range, in order."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])


# ``_HELD_BLOCKS[v]``: the template blocks a reference of size v holds at
# a position, its demoted sizes s < v, its kept size v and its EOB.
_HELD_BLOCKS = np.array([[s < v for s in range(1, MAX_LOSS_SIZE + 1)]
                         + [s == v for s in range(MIN_REFERENCE_SIZE, REFERENCE_SIZE + 1)] + [True]
                         for v in range(REFERENCE_SIZE + 1)])


@functools.cache
def _short_runs(n: int, bound: int) -> np.ndarray:
    """``[p - 1, b]``: the rows with runs of at most ``bound`` that block b
    of p starts with, read-only: min(p, bound + 1) for demotions (runs
    0..p-1), one fewer for kept coefficients (runs 1..p-1), and the one EOB
    after p < n."""
    runs = np.minimum(np.arange(1, n + 1), bound + 1)[:, None]
    return read_only(np.hstack((runs.repeat(MAX_LOSS_SIZE, axis=1),
                                 (runs - 1).repeat(_SBAR_COUNT, axis=1),
                                 np.arange(n)[:, None] < n - 1)))


def _held(t: _LossTemplate, v: np.ndarray, bound: int) -> np.ndarray:
    """The rows of ``t`` with runs of at most ``bound`` that a reference of
    sizes ``v`` holds: the first rows of each block it holds."""
    held = _HELD_BLOCKS.take(v, axis=0)
    return _ranges(t.blocks_at[held], _short_runs(len(v), bound)[held])


def _loss_keys(ref: ReferenceConfig, t: _LossTemplate, i: np.ndarray) -> np.ndarray:
    """The sort keys of template rows ``i`` in ``ref``."""
    bits = _loss_bits(ref.prefix, t.hi.take(i), t.lo.take(i), t.sub.take(i))
    return _sort_key(bits, t.low.take(i))


class _LongRuns(NamedTuple):
    """The exponent-free terms of ``_long_run_floor`` for the runs r above
    a bound, as read-only arrays.  Per run, the window ends ``hi`` and
    ``lo``, grouped by run from ``groups``, give every window cost W(p,
    r); ``longest[k, V]`` is the longest code ``len(r, s)`` over the sizes
    s <= V of the k-th run, a running maximum; ``widths[k]`` is (r + 1,
    r), the width of a demotion and of a kept coefficient."""

    hi: np.ndarray
    lo: np.ndarray
    groups: np.ndarray
    longest: np.ndarray
    widths: np.ndarray


@functools.cache
def _long_runs(component: ComponentKind, n: int, bound: int) -> _LongRuns:
    runs = np.arange(bound + 1, n)
    windows = n - runs  # the positions p = r + 1..n
    hi = _ranges(runs + 1, windows)
    lengths = table_for(component).lengths
    terms = _LongRuns(hi, hi - (runs + 1).repeat(windows), np.cumsum(windows) - windows,
                      np.maximum.accumulate(lengths[runs, :REFERENCE_SIZE + 1], axis=1),
                      np.column_stack((runs + 1, runs)))
    for array in terms:
        read_only(array)
    return terms


def _long_run_floor(ref: ReferenceConfig, bound: int) -> int | None:
    """A floor on the tier of every loss row of ``ref`` with a run r above
    ``bound``, or None if there is none.  Such a row replaces the cost
    ``W(p, r) = prefix[p] - prefix[p - r - 1]`` of positions p - r..p
    with a code of run r: a demotion to a size below V, the reference's
    largest, over width r + 1, or a kept size of at most V over width r.
    Floor division is monotone in the bits, so the tier is at least
    ``_tier(min_p W(p, r) - maxlen, width)``, with maxlen the longest code
    of run r over those sizes."""
    if ref.n_positions <= bound + 1:
        return None
    terms = _long_runs(ref.component, ref.n_positions, bound)
    window = np.minimum.reduceat(_loss_bits(ref.prefix, terms.hi, terms.lo, 0), terms.groups)
    largest = max(ref.sbar)
    longest = terms.longest[:, largest - 1:largest + 1]
    return int(_tier(window[:, None] - longest, terms.widths).min())


def _loss_rows(ref: ReferenceConfig, head: int | None = None) -> np.ndarray:
    """``ref``'s loss rows in value order, or the start of that order.

    From the template, a reference computes only what its exponents fix:
    which rows it holds and their keys, which it sorts and decodes.  A
    head is the ``head`` smallest rows with runs of at most ``_RUN_BOUND``
    (and the EOBs), cut below ``_long_run_floor``: every longer-run row has
    a tier of at least the floor, and keys order by tier first, so the
    head is the start of the full order.
    """
    n = ref.n_positions
    t = _loss_template(ref.component, n)
    key = _loss_keys(ref, t, _held(t, ref.sbar_array, n if head is None else _RUN_BOUND))
    if head is not None and head < len(key):
        key = np.partition(key, head - 1)[:head]
    key.sort()
    floor = None if head is None else _long_run_floor(ref, _RUN_BOUND)
    if floor is not None:  # a key's tier sits above its low bits
        key = key[:np.searchsorted(key, floor << _TIER_SHIFT)]
    return _key_rows(key)


class _GainTerms(NamedTuple):
    """The exponent-free terms of the gain sets of n positions, as
    read-only arrays.

    A promotion's bits, escape flag and sort key but for its position and
    start fields depend on its run r and reference size v alone.  Per step, one
    row per r = 0..n-1 and v = 2..8, flattened run-major:

    * ``keys[step - 1]``: the sort key (``_sort_key``) at position 0;
    * ``escapes[step - 1]``: the promoted code lies in the escape region.

    One row per pattern pair 0 <= r < p <= n, in ``np.tril_indices``
    order, where a reference of size v at p reads row ``pick + v``:

    * ``at``: the pair's position, p - 1 from 0;
    * ``pick``: ``7 * r`` less the smallest size;
    * ``position``: the key's position and start fields, both p;
    * ``cell``: the flat index of ``[p, r, 0]`` in a dominance array.
    """

    keys: tuple
    escapes: tuple
    at: np.ndarray
    pick: np.ndarray
    position: np.ndarray
    cell: np.ndarray


@functools.cache
def _gain_terms(component: ComponentKind, n: int) -> _GainTerms:
    table, escape = table_for(component), _escape_grid(component)
    runs, sizes = np.broadcast_arrays(np.arange(n)[:, None],
                                      np.arange(MIN_REFERENCE_SIZE, REFERENCE_SIZE + 1))
    keys, escapes = [], []
    for step in _PROMOTION:
        *columns, bits = _promotions(table, 0, runs, sizes, step)
        keys.append(_sort_key(bits, _low_key(*columns)).ravel())
        escapes.append(escape[runs, sizes + step].ravel())
    p, r = np.tril_indices(n)
    p += 1  # r zeros ahead of position p, 0 <= r < p
    terms = _GainTerms(tuple(keys), tuple(escapes), p - 1, r * _SBAR_COUNT - MIN_REFERENCE_SIZE,
                       _low_key(0, p, 0, 0, p, 0), (p * n + r) * (MAX_SIZE + 1))
    for array in (*keys, *escapes, *terms[2:]):
        read_only(array)
    return terms


def _gain_keys(terms: _GainTerms, step: int, pairs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The sort keys of the promotions by ``step`` at the pattern pairs
    ``pairs`` (rows of ``terms``) of a reference of sizes ``v`` there: the
    key at position 0 with the pair's position and start fields set."""
    return terms.keys[step - 1].take(terms.pick.take(pairs) + v) | terms.position.take(pairs)


def _gain_sets(ref: ReferenceConfig) -> list[np.ndarray]:
    """``ref``'s size-9 and size-10 gain rows, largest first: every
    promotion, less the escape-region ones the replacement test
    dominates."""
    t = _gain_terms(ref.component, ref.n_positions)
    v = ref.sbar_array.take(t.at)
    i, cell = t.pick + v, t.cell + v
    dominated = ref.dominance.ravel()
    keys = []
    for step, escape in zip(_PROMOTION, t.escapes):
        kept = np.flatnonzero(~(escape.take(i) & dominated.take(cell + step)))
        keys.append(np.sort(_gain_keys(t, step, kept, v.take(kept)))[::-1])
    rows = _key_rows(np.concatenate(keys))  # one decode of contiguous keys
    return [rows[:len(keys[0])], rows[len(keys[0]):]]


def enumerate_deltas(ref: ReferenceConfig, head: int | None = None) -> LossGainSets:
    """Evaluate every operation instance and collect the base delta sets;
    with ``head``, the loss rows are a prefix of their order, at most
    ``head`` rows cut at the long-run floor (see ``_loss_rows``).

    The census counts evaluated cases per family (demoted sizes 1..7 are
    always charged, reachable or not); retained entries are the subset
    with meaningful values, minus base-level gain exclusions: a run
    promotion (OP6) whose cell lies in the escape region is dropped when
    the replacement test certifies it.  The published per-cell exclusions
    are not machine readable; they are reconstructed as the escape-region
    cells, and dropping never costs soundness.  Demotions and promotions
    are built over the (position, run, size) grid with runs 0 <= r < p,
    the kind label naming the bare (r = 0) or run case; each set is in
    ``_sort_key`` order, losses ascending and gains descending.
    Reference sizes are at most 8, so both promoted sizes stay within 10.
    """
    n = ref.n_positions
    runs = n * (n - 1) // 2  # (p, r) pairs with 1 <= r < p
    census = {
        "op1": MAX_LOSS_SIZE * n, "op2": MAX_LOSS_SIZE * runs, "op3": runs, "op4": n - 1,
        "op5a": n, "op5b": n, "op6a": runs, "op6b": runs,
    }
    sets = LossGainSets(_loss_rows(ref, head), *_gain_sets(ref), Refinement.BASE, census)
    for rows in (sets.loss_rows, sets.gain9_rows, sets.gain10_rows):
        read_only(rows)
    return sets


def _capacity_walk(rows: np.ndarray, stop: float = math.inf) -> np.ndarray:
    """The rows of a set the capacity rule keeps, with their copy counts.

    Walks ``rows`` in order, keeping per value tier a bitmask of the
    positions already covered; an entry keeps the copies its footprint
    adds to that mask.  Once ``stop`` copies are held, stops at the first
    row that is not negative, so a stopped loss walk holds every negative
    copy; every gain row is positive, so a gain walk stops at its count.
    The columns are read 64 rows at a time: a limit's walk stops within
    the first few dozen rows of a set.
    """
    covered: dict[int, int] = {}
    kept: list[int] = []
    copies: list[int] = []
    held = 0
    columns = chain.from_iterable(
        zip(_tier(part["bits"], part["width"]).tolist(), part["start"].tolist(),
            part["width"].tolist())
        for part in (rows[at:at + 64] for at in range(0, len(rows), 64))
    )
    for i, (tier, start, width) in enumerate(columns):
        if held >= stop and tier >= 0:
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


def refine_capacity(sets: LossGainSets,
                    stops: tuple[float, float, float] = (math.inf,) * 3) -> LossGainSets:
    """Cap equal-valued copies at one per position.

    A position is affected by exactly one operation in any single
    configuration, so it can carry at most one copy of a given delta
    value; surplus copies within a value tier are dropped by reducing
    entry multiplicities in set order, one ``_capacity_walk`` per set; a
    gain's footprint is its own position.  Footprints of reduced entries
    keep their original extent; only the copy counts feed a limit's prefix
    sums.  Each walk stops once it holds its count of ``stops`` (losses,
    size-9 gains, size-10 gains) and has passed the negative rows, so a
    set may then hold only its first copies.
    """
    refinement = (
        Refinement.MAXCONFIG
        if sets.refinement is Refinement.MAXCONFIG
        else Refinement.CAPACITY
    )
    rows = (sets.loss_rows, sets.gain9_rows, sets.gain10_rows)
    return LossGainSets(*map(_capacity_walk, rows, stops), refinement, sets.census)


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

    return LossGainSets(*map(kept, (sets.loss_rows, sets.gain9_rows, sets.gain10_rows)),
                        Refinement.MAXCONFIG, sets.census)


def build_sets(ref: ReferenceConfig, refinement: Refinement,
               stops: tuple[float, float, float] = (math.inf,) * 3) -> LossGainSets:
    """Delta sets at the requested refinement level, the capacity walks
    stopping at ``stops`` (see ``refine_capacity``).

    With a loss stop, ``refinement`` is applied to ``ref.head_sets``
    first.  Its loss rows are the first rows of the full order, its gain
    rows all of them, and maxconfig keeps their order, so a loss walk that
    reaches its stop inside them is the full walk: each set holds the first
    rows of what ``build_sets`` returns without stops.  The loss walk runs
    on through the negative rows, so the head serves only if its last row
    is not negative.  If it is, if the loss walk does not reach its stop,
    and always without one, the level is made from ``ref.base_sets``,
    built only then.
    """
    def refined(sets: LossGainSets) -> LossGainSets:
        if refinement is Refinement.BASE:
            return sets
        if refinement is Refinement.MAXCONFIG:
            sets = refine_maxconfig(sets, ref)
        return refine_capacity(sets, stops)

    if stops[0] < math.inf:
        head = ref.head_sets
        if len(head.loss_rows) and head.loss_rows["bits"][-1] >= 0:
            sets = refined(head)
            if int(sets.loss_rows["multiplicity"].sum()) >= stops[0]:
                return sets
    return refined(ref.base_sets)


def _values(rows: np.ndarray) -> list[int]:
    """Exact per-position values of ``rows``, in units of 1/SCALE bits."""
    columns = zip(rows["bits"].tolist(), rows["width"].tolist())
    return [bits * (SCALE // width) for bits, width in columns]


def _prefix(rows: np.ndarray, count: int) -> tuple[int, ...]:
    """prefix[i] = sum of the first i copies of a set, i = 0..count: the
    i smallest losses or the i largest gains."""
    rows = rows[:count]  # every row carries at least one copy
    copies = chain.from_iterable(map(repeat, _values(rows), rows["multiplicity"].tolist()))
    return tuple(accumulate(islice(copies, count), initial=0))


def solve_limit(
    ref: ReferenceConfig,
    refinement: Refinement = Refinement.BASE,
    sf: Fraction | None = None,
    sets: LossGainSets | None = None,
) -> BoundResult:
    """Maximize gains minus forced losses over the admissible pairs.

    Without ``sets``, the limit reads only the loss head and the capacity
    walks stop once they hold the copies the pairs read (see
    ``build_sets``).
    """
    pairs, charged, counts = _admissible(ref.n_positions)
    if sets is None:
        sets = build_sets(ref, refinement, counts)
    max_n, max_a, max_b = counts
    rows = sets.loss_rows
    k = int(rows["multiplicity"].sum(where=rows["bits"] < 0))  # negative copies, which sort first
    losses = _prefix(rows, max(max_n, k))
    gains9, gains10 = _prefix(sets.gain9_rows, max_a), _prefix(sets.gain10_rows, max_b)
    if len(losses) <= max(max_n, k):
        raise LossSetExhaustedError(f"needed {max(max_n, k)} loss copies, have {len(losses) - 1}")
    if len(gains9) <= max_a or len(gains10) <= max_b:
        raise LossSetExhaustedError("gain sets too small for the admissible pairs")

    scaled = {(a, b): gains9[a] + gains10[b] - losses[c if c > k else k]  # max(c, k), inlined
              for (a, b), c in zip(pairs, charged)}
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
    if energy >= (n + 1) * BALL_UNIT:
        raise ParameterError("size vector violates the coefficient-ball budget")
    for p, s in enumerate(sizes, start=1):
        if s != 0 and s <= ref.exponents[p - 1]:
            raise ParameterError(
                f"position {p}: nonzero unquantized size {s} quantizes to zero"
            )

    sizes = np.array(sizes, dtype=np.intp)
    p = np.flatnonzero(sizes) + 1
    r = np.diff(p, prepend=0) - 1  # zeros ahead of each nonzero position
    S, v = sizes[p - 1], ref.sbar_array[p - 1]
    demoted = S < REFERENCE_SIZE
    kept = ~demoted & (r > 0)
    # the template row of each loss at p: a demotion to quantized size
    # s = S + v - 8 is row r of block s - 1, a kept coefficient of
    # reference size v row r - 1 of block MAX_LOSS_SIZE - MIN_REFERENCE_SIZE + v
    block = np.where(demoted, S + v - REFERENCE_SIZE - 1, MAX_LOSS_SIZE - MIN_REFERENCE_SIZE + v)
    lost = demoted | kept
    t = _loss_template(ref.component, n)
    keys = [_loss_keys(ref, t, (t.blocks_at[p - 1, block] + r - kept)[lost])]
    last = p.max(initial=0)
    if last < n:
        *columns, hi, lo, sub = _eobs(table_for(ref.component), n, last)
        keys.append(_sort_key(_loss_bits(ref.prefix, hi, lo, sub), _low_key(*columns)))
    gains = _gain_terms(ref.component, n)
    pairs = p * (p - 1) // 2 + r  # the row of (p, r) in np.tril_indices order
    for step in _PROMOTION:
        promoted = S == REFERENCE_SIZE + step
        keys.append(_gain_keys(gains, step, pairs[promoted], v[promoted]))
    rows = _key_rows(np.concatenate(keys, axis=None))
    # the EOB first, then by position; lexsort is stable, so a kept
    # coefficient's OP3 stays ahead of its OP6
    return rows[np.lexsort((rows["position"], rows["kind"] != _KIND_RANK[OpKind.OP4]))]


def recompose_length(ref: ReferenceConfig, rows: np.ndarray) -> int:
    """The coded length of a target from its ``decompose`` rows: the
    reference length minus the loss bits plus the gain bits."""
    return ref.ref_len + int(_SIGN[rows["kind"]] @ rows["bits"])
