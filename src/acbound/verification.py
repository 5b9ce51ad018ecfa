"""Empirical soundness and tightness checks for the code-length limits.

Three harnesses bracket the (unknown) true maxima: a full single-block
encoding pipeline and a random-restart hill climb over pixel blocks from
below, and from above an exact oracle for the energy relaxation the
engine bounds, at any number of positions up to 63.  Blocks are costed
by :func:`_ac_sizes`, whose size of a truncated quotient is the binary
exponent of the quotient itself, floored at 0, then densely by
:func:`_ac_bits`: an int8 running maximum along each row gives
every cell's zero run, one more column per row holds the EOB as a
twelfth code, and one flat lookup in an int16 (run, code) table gives
the bits.  The fuzz and the search cost their batches with this kernel
alone; ``encode_block`` takes its sizes from ``_ac_sizes`` but counts
its bits through ``symbolize`` and ``sequence_length``, so they are the
bits of the symbols it reports.  The stage functions of
``transform``, ``quantization`` and ``entropy_model`` stay the
independent reference the tests check the kernel against.

The hill climb is speculative: each restart draws all its moves in one
call before it climbs, then scores the next ``CLIMB_WINDOW`` candidates,
each one move away from the current block, in one batch and keeps the
first that does not cost fewer bits.  An accepted move that changes
nothing keeps the window: its later candidates are still one move away.
It returns exactly what a climb scoring one candidate at a time would.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import transform
from .bound_engine import (
    BALL_UNIT,
    Refinement,
    reference_config,
    solve_limit,
    upper_limit,
)
from .entropy_model import (
    AC_POSITIONS, MAX_SIZE, ComponentKind, ParameterError, SymbolSequence, sequence_length,
    symbolize, table_for,
)
from .quantization import QuantTable

# Sample block whose unit-quantized AC coefficients all stay nonzero with
# sizes 7 and 8; near-worst-case at the finest scale factor and the default
# seed for the adversarial search.  Raw 8-bit values, raster order.
HIGH_COST_SEED_BLOCK = np.array(
    [
        [252, 61, 199, 116, 120, 203, 71, 99],
        [61, 18, 34, 231, 2, 254, 111, 68],
        [199, 34, 229, 165, 192, 247, 250, 53],
        [116, 231, 165, 244, 136, 9, 59, 4],
        [120, 2, 192, 136, 233, 252, 27, 59],
        [203, 254, 247, 9, 252, 4, 16, 174],
        [71, 111, 250, 59, 27, 16, 247, 11],
        [99, 68, 53, 4, 59, 174, 11, 1],
    ],
    dtype=np.int64,
)
HIGH_COST_SEED_BLOCK.setflags(write=False)


class SoundnessViolationError(AssertionError):
    """A pixel block exceeded the computed limit.

    No harness raises it: ``soundness_fuzz`` reports its worst block
    instead.  It stays importable because the benchmark counts it among
    the errors that fail a check.
    """


@dataclass(frozen=True, eq=False)
class EncodeReport:
    component: ComponentKind
    sf: Fraction | None
    quantized_sizes: tuple[int, ...]
    symbols: SymbolSequence
    ac_bits: int
    limit: int
    slack: int
    block: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "component": self.component.value,
            "sf": str(self.sf) if self.sf is not None else None,
            "quantized_sizes": list(self.quantized_sizes),
            "symbols": [list(sym) for sym in self.symbols.symbols],
            "has_eob": self.symbols.has_eob,
            "ac_bits": self.ac_bits,
            "limit": self.limit,
            "slack": self.slack,
            "block": [[int(v) for v in row] for row in self.block],
        }


# Upper bounds on a search, checked before anything is allocated: a
# restart draws up to 7 words per iteration at once, and the seed sequence
# spawns one child per restart.
MAX_ITERATIONS = 1_000_000
MAX_RESTARTS = 100_000
# Upper bound on a fuzz run, checked before any limit or block: at about
# 1,300,000 blocks/s (README) this is about 80 seconds per cell.
MAX_TRIALS = 100_000_000


def _count(value, name: str, high: int | None = None, low: int = 1) -> int:
    """``value`` as a plain int in ``low..high``, or ``ParameterError``.
    Any integer type is accepted (through ``operator.index``); a float,
    even an integral one, a string or None is refused."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, not {value!r}") from None
    if value < low:
        raise ParameterError(f"{name} {value} must be at least {low}")
    if high is not None and value > high:
        raise ParameterError(f"at most {high} {name} are supported")
    return value


@dataclass(frozen=True)
class SearchConfig:
    component: ComponentKind
    sf: Fraction | None = None
    iterations: int = 10_000
    restarts: int = 32
    seed: int = 0
    mutation: str = "pixel_pair"

    def __post_init__(self):
        # numpy's SeedSequence takes non-negative integers only
        for name, high, low in (("iterations", MAX_ITERATIONS, 1),
                                ("restarts", MAX_RESTARTS, 1), ("seed", None, 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, high, low))
        if self.mutation not in ("single_pixel", "pixel_pair"):
            raise ParameterError(f"unknown mutation kind {self.mutation!r}")


# -- block costing: the one path every harness uses ------------------------


# raster index of each AC coefficient, in zigzag order
_AC_RASTER = np.array(transform.RASTER_OF_ZIGZAG[1:])


@functools.lru_cache(maxsize=64)
def _factor_row(factors: tuple[int, ...]) -> np.ndarray:
    # keyed on the factor tuple: hashing it costs far less than rebuilding the row
    row = np.array(factors, dtype=np.float64)
    row.setflags(write=False)
    return row


def _ac_sizes(blocks, q: QuantTable) -> np.ndarray:
    """Quantized AC sizes of level-shifted pixel blocks (N, 8, 8), shape
    (N, 63) in zigzag order: DCT, zigzag, truncating quantization, then the
    bit length of each magnitude.

    The size of trunc(y) is the binary exponent of y itself, floored at 0:
    for |y| >= 1, y and trunc(y) lie in the same [2**(e-1), 2**e); for
    |y| < 1 the exponent is at most 0; the sign does not change it."""
    K = transform.DCT_MATRIX
    coeffs = K.T @ np.asarray(blocks, dtype=np.float64) @ K
    ac = coeffs.reshape(len(coeffs), 64).take(_AC_RASTER, axis=1)  # C order: rows scan fast
    exponents = np.frexp(ac / _factor_row(q.q))[1]
    return np.maximum(exponents, 0, out=exponents)


# code 11 of the code matrix: the EOB column after the last size column
_EOB_CODE = MAX_SIZE + 1


@functools.cache
def _code_lengths(component: ComponentKind) -> np.ndarray:
    """Bits per (run, code), flat int16 of 64 runs x 12 codes: codes 0..10
    are sizes (``lengths``, run 63 never read), code 11 is the EOB, which
    costs ``eob_bits`` after a run of zeros and nothing at run 0."""
    table = table_for(component)
    lengths = np.zeros((AC_POSITIONS + 1, _EOB_CODE + 1), dtype=np.int16)
    lengths[:AC_POSITIONS, :_EOB_CODE] = table.lengths
    lengths[1:, _EOB_CODE] = table.eob_bits
    lengths.setflags(write=False)
    return lengths.ravel()


@functools.cache
def _columns(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The scan's column numbers 1..width (int8) and the flat index's run
    offsets 12 * (0..width) (int16)."""
    step = _EOB_CODE + 1
    return (np.arange(1, width + 1, dtype=np.int8),
            np.arange(0, step * (width + 1), step, dtype=np.int16))


def _ac_bits(sizes: np.ndarray, component: ComponentKind) -> np.ndarray:
    """Coded AC bits of many size vectors, shape (N, width) for width 1..63,
    as int64.

    Each row gets one more column holding code 11, the EOB.  ``after[:, k]``,
    a running maximum in int8 (its values are at most 63), is one past the
    last nonzero column before ``k``, so ``k - after[:, k]`` zeros run
    before cell ``k``, which costs ``_code_lengths[run, code]``: the size's
    code length (0 if zero), or for the EOB column ``eob_bits`` after
    trailing zeros and 0 after a nonzero last cell.  The flat index
    ``12 * (k - after) + code`` is built in place in the int16 code matrix;
    one lookup and one row sum give the bits.

    Nothing is checked: a size outside 0..MAX_SIZE, or a 64th column, would
    read another cell, so callers pass sizes they have bounded."""
    n, width = sizes.shape
    numbers, offsets = _columns(width)
    index = np.empty((n, width + 1), dtype=np.int16)
    index[:, :width] = sizes
    index[:, width] = _EOB_CODE
    after = np.zeros((n, width + 1), dtype=np.int8)  # column 0: no nonzero yet
    np.maximum.accumulate((sizes > 0) * numbers, axis=1, out=after[:, 1:])
    index += offsets
    index -= np.multiply(after, _EOB_CODE + 1, dtype=np.int16)  # int16: after * 12 wraps int8 from 11
    return _code_lengths(component).take(index).sum(axis=1, dtype=np.int64)


def ac_bits_batch(blocks: np.ndarray, q: QuantTable) -> np.ndarray:
    """AC bit costs of many blocks at once, under the Huffman table of
    ``q.component``.

    ``blocks`` has shape (N, 8, 8) and holds level-shifted pixels; any other
    shape raises ``ParameterError``, and so does a block whose sizes pass
    MAX_SIZE (pixels far outside -128..127): their flat index would read
    another cell.
    """
    shape = np.shape(blocks)
    if len(shape) != 3 or shape[1:] != (8, 8):
        raise ParameterError(f"blocks must have shape (N, 8, 8), not {shape}")
    sizes = _ac_sizes(blocks, q)
    if sizes.size and sizes.max() > MAX_SIZE:
        raise ParameterError(f"block sizes outside 0..{MAX_SIZE}")
    return _ac_bits(sizes, q.component)


def encode_block(block, q: QuantTable, component: ComponentKind) -> EncodeReport:
    """Run the full AC pipeline on one block and report its bit cost.
    The limit comes first: ``upper_limit`` refuses a table of another
    component before any block work."""
    limit = upper_limit(component, q, Refinement.MAXCONFIG).limit
    arr = transform.validate_pixel_block(block)
    sizes = _ac_sizes(arr[None], q)[0].tolist()
    symbols = symbolize(sizes)
    ac_bits = sequence_length(table_for(component), symbols)
    return EncodeReport(
        component, q.sf, tuple(sizes), symbols, ac_bits, limit, limit - ac_bits, arr
    )


def structured_extreme_blocks() -> np.ndarray:
    """Deterministic blocks that stress the pipeline harder than noise.

    Constant blocks, checkerboards, saturated sign patterns of every DCT
    basis function, and the high-cost seed block.
    """
    blocks = []
    for value in (-128, 0, 127):
        blocks.append(np.full((8, 8), value, dtype=np.int64))
    checker = np.indices((8, 8)).sum(axis=0) % 2
    blocks.append(np.where(checker == 0, 127, -128))
    blocks.append(np.where(checker == 0, -128, 127))
    K = transform.DCT_MATRIX
    for u in range(8):
        for v in range(8):
            basis = np.outer(K[:, u], K[:, v])
            blocks.append(np.where(basis >= 0, 127, -128))
    blocks.append(transform.level_shift(HIGH_COST_SEED_BLOCK))
    return np.stack(blocks).astype(np.int64)


def soundness_fuzz(trials: int, q: QuantTable, seed: int = 0) -> dict:
    """Encode ``trials`` blocks (structured extremes first, then random
    noise drawn 20,000 at a time) under ``q`` and its component's Huffman
    table, against the tightest limit.

    Reports the largest cost, its slack to the limit (negative when a block
    exceeds it) and ``worst_block``, the first level-shifted block that
    reached the largest cost.
    """
    trials = _count(trials, "trials", MAX_TRIALS)
    seed = _count(seed, "seed", low=0)
    limit = upper_limit(q.component, q, Refinement.MAXCONFIG).limit
    rng = np.random.default_rng(seed)

    extremes = structured_extreme_blocks()[:trials]
    noise = (
        rng.integers(-128, 128, size=(min(20_000, trials - start), 8, 8), dtype=np.int64)
        for start in range(len(extremes), trials, 20_000)
    )
    max_bits = -1
    worst = None
    for chunk in chain([extremes], noise):
        bits = ac_bits_batch(chunk, q)
        idx = int(bits.argmax())
        if bits[idx] > max_bits:
            max_bits = int(bits[idx])
            worst = chunk[idx]
    return {"trials": trials, "limit": limit, "max_bits": max_bits,
            "min_slack": limit - max_bits, "worst_block": worst}


# -- adversarial search ----------------------------------------------------


# candidates scored per ac_bits_batch call; the climb keeps the first one accepted
CLIMB_WINDOW = 64


@functools.cache
def _climb_starts() -> np.ndarray:
    """The seed block, then the checkerboards and low gratings of the structured
    extremes: the first restarts' starts, read-only, built on first use (at
    import they would raise every importer's peak memory)."""
    starts = np.stack([transform.level_shift(HIGH_COST_SEED_BLOCK),
                       *structured_extreme_blocks()[3:9]])
    starts.setflags(write=False)
    return starts


def _mutations(rng: np.random.Generator, iterations: int, mutation: str):
    """Every move of one restart, drawn in one call: flat pixel indices and
    float64 values, each of shape (iterations, 2); a one-pixel move repeats
    its pixel.

    Equal to the per-move draws ``rng.integers(1, 3)`` (pixel_pair only),
    then per pixel ``rng.integers(0, 8, size=2)`` and ``rng.integers(-128,
    128)``: numpy draws a bounded integer over a range of 2**k as the top k
    bits of one 32-bit word and never rejects, so each draw is one word of
    the unbounded stream.  A pixel_pair move takes 4 or 7 words, so up to
    3 words per move are drawn and never read: the generator must not be
    used after this call.
    """
    if mutation == "single_pixel":
        words = rng.integers(0, 1 << 32, size=3 * iterations, dtype=np.uint64)
        first = second = np.arange(0, 3 * iterations, 3)
    else:
        words = rng.integers(0, 1 << 32, size=7 * iterations, dtype=np.uint64)
        two = (words >> 31).astype(np.uint8)  # at a move's start: 1 if it sets two pixels
        step = (4 + 3 * two).tobytes()
        starts = []
        at = 0
        for _ in range(iterations):
            starts.append(at)
            at += step[at]
        first = np.array(starts) + 1
        second = first + 3 * two[first - 1]
    pixels = np.stack([first, second], axis=1)
    lines = words >> 29  # a row or a column, 0..7
    values = (words[pixels + 2] >> 24).astype(np.float64) - 128
    return (lines[pixels] * 8 + lines[pixels + 1]).astype(np.intp), values


def adversarial_search(cfg: SearchConfig, q: QuantTable) -> EncodeReport:
    """Random-restart hill climb for long-coded blocks.

    Moves that do not decrease the bit count are accepted, so plateaus
    are traversable.  The high-cost seed block starts the first restart;
    later restarts start from structured extremes and random blocks.
    Deterministic for a given config.

    The climb is speculative but exact: a restart draws all its moves
    before it climbs (:func:`_mutations`), then applies the next
    ``CLIMB_WINDOW`` moves each to the current block and scores them in
    one batch.  The first candidate in draw order that does not cost
    fewer bits is accepted and the next window starts after it; the
    candidates after it are dropped.  Each candidate is thus built from,
    and compared with, the block a one-candidate-at-a-time climb would
    hold, so the result is the same.  An accepted candidate equal to the
    current block (a no-op move) changes neither the block nor its bits,
    so the window's later candidates are still one move away from it: the
    scan goes on in the same window.  Blocks are held as float64, exact
    for -128..127; the winner goes back to int64.
    """
    if q.component is not cfg.component:
        raise ParameterError("component and quantization table disagree")
    starts = _climb_starts()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)

    best_bits = -1
    best_block = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(children[restart])
        if restart < len(starts):
            block = starts[restart]
        else:
            block = rng.integers(-128, 128, size=(8, 8), dtype=np.int64)
        block = block.reshape(64).astype(np.float64)
        bits = ac_bits_batch(block.reshape(1, 8, 8), q)[0]
        pixels, values = _mutations(rng, cfg.iterations, cfg.mutation)
        move = 0
        while move < cfg.iterations:
            stop = min(move + CLIMB_WINDOW, cfg.iterations)
            candidates = np.repeat(block[None], stop - move, axis=0)
            rows = np.arange(stop - move)
            for j in (0, 1):
                candidates[rows, pixels[move:stop, j]] = values[move:stop, j]
            cand_bits = ac_bits_batch(candidates.reshape(-1, 8, 8), q)
            for first in np.flatnonzero(cand_bits >= bits).tolist():
                p, r = pixels[move + first].tolist()
                if candidates[first, p] != block[p] or candidates[first, r] != block[r]:
                    block, bits = candidates[first], cand_bits[first]
                    move += first + 1
                    break
            else:  # no candidate, or only no-op moves, accepted
                move = stop
        block = block.astype(np.int64).reshape(8, 8)
        if bits > best_bits or (
            bits == best_bits and tuple(block.ravel()) < tuple(best_block.ravel())
        ):
            best_bits, best_block = bits, block

    report = encode_block(best_block, q, cfg.component)
    return dataclasses.replace(report, sf=cfg.sf if cfg.sf is not None else q.sf)


# -- exact oracle ----------------------------------------------------------


def toy_oracle(
    n_positions: int,
    component: ComponentKind,
    exponents=None,
) -> tuple[int, int]:
    """Exact maximum versus the generalized engine limit.

    The exact maximum is the longest coded size vector in {0..10}**n whose
    ball energy, the sum of 4**(s - 1 + C(k)) over the nonzero positions,
    stays under (n+1) * BALL_UNIT: the relaxation the engine bounds.  A dynamic
    program over (position, current zero run) finds it; each state keeps,
    for every total of coded bits, the least energy that reaches it.  State
    (k, r) holds the array of (k - r, 0), so only the run-0 arrays are
    stored.  The engine limit (tightest refinement) must dominate it.
    """
    n_positions = _count(n_positions, "positions", AC_POSITIONS)
    ref = reference_config(component, (0,) * n_positions if exponents is None else exponents)
    if ref.n_positions != n_positions:
        raise ParameterError("exponent vector length must match n_positions")

    budget = (n_positions + 1) * BALL_UNIT
    table = table_for(component)
    width = n_positions * int(table.lengths[:n_positions].max()) + 1  # totals 0..width-1
    # after_nonzero[j] is the energy array of state (j, 0); (0, 0) is the empty prefix
    after_nonzero = [np.where(np.arange(width) == 0, 0, budget)]
    for k, c in enumerate(ref.exponents):
        energy = np.full(width, budget, dtype=np.int64)
        for s in range(1, 11):
            cost = 1 << (2 * (s - 1 + c))
            if cost >= budget:
                break
            for j, prev in enumerate(after_nonzero):
                bits = int(table.lengths[k - j, s])
                np.minimum(energy[bits:], prev[:width - bits] + cost, out=energy[bits:])
        after_nonzero.append(energy)
    eob = table.eob_bits
    best = max(int(np.flatnonzero(energy < budget)[-1]) + (eob if j < n_positions else 0)
               for j, energy in enumerate(after_nonzero))

    base = solve_limit(ref, Refinement.BASE).limit
    capped = solve_limit(ref, Refinement.CAPACITY).limit
    tight = solve_limit(ref, Refinement.MAXCONFIG).limit
    if not tight <= capped <= base:
        raise AssertionError(f"refinement ordering violated: {base}, {capped}, {tight}")
    return best, tight
