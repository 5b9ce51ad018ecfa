"""Empirical soundness and tightness checks for the code-length limits.

Three harnesses bracket the (unknown) true maxima: a full single-block
encoding pipeline and a random-restart hill climb over pixel blocks from
below, and from above an exact oracle for the energy relaxation the
engine bounds, at any number of positions up to 63.  Every
harness that costs pixel blocks (``encode_block``, ``ac_bits_batch``,
``soundness_fuzz`` and ``adversarial_search``) goes through one vectorized
path, :func:`_ac_sizes` then :func:`ac_bits_from_sizes`; the public stage
functions of ``transform``, ``quantization`` and ``entropy_model`` stay
the independent reference the test suite checks it against.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import transform
from .bound_engine import (
    REFERENCE_SIZE,
    Refinement,
    reference_config,
    solve_limit,
    upper_limit,
)
from .entropy_model import (
    ComponentKind,
    SymbolSequence,
    sequence_length,
    symbolize,
    table_for,
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
    block: np.ndarray | None = None

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
            "block": None if self.block is None else [[int(v) for v in row] for row in self.block],
        }


@dataclass(frozen=True)
class SearchConfig:
    component: ComponentKind
    sf: Fraction | None = None
    iterations: int = 10_000
    restarts: int = 32
    seed: int = 0
    mutation: str = "pixel_pair"

    def __post_init__(self):
        if self.iterations <= 0 or self.restarts <= 0:
            raise ValueError("iterations and restarts must be positive")
        if self.mutation not in ("single_pixel", "pixel_pair"):
            raise ValueError(f"unknown mutation kind {self.mutation!r}")


# -- block costing: the one path every harness uses ------------------------


# raster index of each AC coefficient, in zigzag order
_AC_RASTER = np.array(transform.RASTER_OF_ZIGZAG[1:])


def _ac_sizes(blocks, q: QuantTable) -> np.ndarray:
    """Quantized AC sizes of level-shifted pixel blocks (N, 8, 8), shape
    (N, 63) in zigzag order: DCT, zigzag, truncating quantization, then the
    bit length of each magnitude."""
    K = transform.DCT_MATRIX
    coeffs = K.T @ np.asarray(blocks, dtype=np.float64) @ K
    ac = coeffs.reshape(len(coeffs), 64)[:, _AC_RASTER]
    quantized = np.trunc(ac / np.array(q.q, dtype=np.float64))
    return np.frexp(np.abs(quantized))[1]  # bit length of the integer magnitude


@functools.lru_cache(maxsize=2)
def _length_lut(component: ComponentKind) -> np.ndarray:
    """Read-only code lengths indexed [runlength, size]; size 0 costs 0."""
    lut = np.array(table_for(component).length_rows, dtype=np.int64)
    lut.setflags(write=False)
    return lut


def ac_bits_from_sizes(sizes: np.ndarray, component: ComponentKind) -> np.ndarray:
    """Coded AC bits for many quantized size vectors, shape (N, 63)."""
    sizes = np.asarray(sizes)
    rows, cols = np.nonzero(sizes)
    prev_cols = np.empty_like(cols)
    prev_cols[:1] = -1
    prev_cols[1:] = np.where(rows[1:] == rows[:-1], cols[:-1], -1)
    runs = cols - prev_cols - 1
    bits = _length_lut(component)[runs, sizes[rows, cols]]
    totals = np.bincount(rows, weights=bits, minlength=len(sizes)).astype(np.int64)
    totals[sizes[:, -1] == 0] += table_for(component).eob_bits  # trailing zeros: EOB
    return totals


def ac_bits_batch(blocks: np.ndarray, q: QuantTable, component: ComponentKind) -> np.ndarray:
    """AC bit costs of many blocks at once.

    ``blocks`` has shape (N, 8, 8) and holds level-shifted pixels.
    """
    return ac_bits_from_sizes(_ac_sizes(blocks, q), component)


def encode_block(block, q: QuantTable, component: ComponentKind) -> EncodeReport:
    """Run the full AC pipeline on one block and report its bit cost."""
    if q.component is not component:
        raise ValueError("component and quantization table disagree")
    arr = transform.validate_pixel_block(block)
    sizes = _ac_sizes(arr[None], q)[0].tolist()
    symbols = symbolize(sizes)
    ac_bits = sequence_length(table_for(component), symbols)
    limit = upper_limit(component, q, Refinement.MAXCONFIG).limit
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


def soundness_fuzz(
    trials: int,
    q: QuantTable,
    component: ComponentKind,
    seed: int = 0,
) -> dict:
    """Encode ``trials`` blocks (structured extremes first, then random
    noise drawn 20,000 at a time) against the tightest limit.

    Reports the largest cost, its slack to the limit (negative when a block
    exceeds it) and ``worst_block``, the first level-shifted block that
    reached the largest cost.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    limit = upper_limit(component, q, Refinement.MAXCONFIG).limit
    rng = np.random.default_rng(seed)

    extremes = structured_extreme_blocks()[:trials]
    noise = (
        rng.integers(-128, 128, size=(min(20_000, trials - start), 8, 8), dtype=np.int64)
        for start in range(len(extremes), trials, 20_000)
    )
    max_bits = -1
    worst = None
    for chunk in chain([extremes], noise):
        bits = ac_bits_batch(chunk, q, component)
        idx = int(bits.argmax())
        if bits[idx] > max_bits:
            max_bits = int(bits[idx])
            worst = chunk[idx]
    return {"trials": trials, "limit": limit, "max_bits": max_bits,
            "min_slack": limit - max_bits, "worst_block": worst}


# -- adversarial search ----------------------------------------------------


def adversarial_search(cfg: SearchConfig, q: QuantTable) -> EncodeReport:
    """Random-restart hill climb for long-coded blocks.

    Moves that do not decrease the bit count are accepted, so plateaus
    are traversable.  The high-cost seed block starts the first restart;
    later restarts start from structured extremes and random blocks.
    Deterministic for a given config.
    """
    if q.component is not cfg.component:
        raise ValueError("component and quantization table disagree")
    starts = [transform.level_shift(HIGH_COST_SEED_BLOCK)]
    starts.extend(structured_extreme_blocks()[3:9])  # checkerboards and low gratings
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.restarts)

    best_bits = -1
    best_block = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(children[restart])
        if restart < len(starts):
            block = starts[restart].copy()
        else:
            block = rng.integers(-128, 128, size=(8, 8), dtype=np.int64)
        bits = ac_bits_batch(block[None], q, cfg.component)[0]
        for _ in range(cfg.iterations):
            candidate = block.copy()
            n_pixels = 1 if cfg.mutation == "single_pixel" else int(rng.integers(1, 3))
            for _ in range(n_pixels):
                r, c = rng.integers(0, 8, size=2)
                candidate[r, c] = rng.integers(-128, 128)
            cand_bits = ac_bits_batch(candidate[None], q, cfg.component)[0]
            if cand_bits >= bits:
                block, bits = candidate, cand_bits
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
    stays under (n+1) * 2**14: the relaxation the engine bounds.  A dynamic
    program over (position, current zero run) finds it; each state keeps,
    for every total of coded bits, the least energy that reaches it.  State
    (k, r) holds the array of (k - r, 0), so only the run-0 arrays are
    stored.  The engine limit (tightest refinement) must dominate it.
    """
    if n_positions < 1:
        raise ValueError("toy instances need at least one position")
    if exponents is None:
        exponents = (0,) * n_positions
    exponents = tuple(int(c) for c in exponents)
    if len(exponents) != n_positions:
        raise ValueError("exponent vector length must match n_positions")
    ref = reference_config(component, exponents)

    budget = (n_positions + 1) << 14
    lut = _length_lut(component)
    width = n_positions * int(lut[:n_positions].max()) + 1  # totals 0..width-1
    # after_nonzero[j] is the energy array of state (j, 0); (0, 0) is the empty prefix
    after_nonzero = [np.where(np.arange(width) == 0, 0, budget)]
    for k, c in enumerate(exponents):
        energy = np.full(width, budget, dtype=np.int64)
        for s in range(1, 11):
            cost = 1 << (2 * (s - 1 + c))
            if cost >= budget:
                break
            for j, prev in enumerate(after_nonzero):
                bits = int(lut[k - j, s])
                np.minimum(energy[bits:], prev[:width - bits] + cost, out=energy[bits:])
        after_nonzero.append(energy)
    eob = table_for(component).eob_bits
    best = max(int(np.flatnonzero(energy < budget)[-1]) + (eob if j < n_positions else 0)
               for j, energy in enumerate(after_nonzero))

    base = solve_limit(ref, Refinement.BASE).limit
    capped = solve_limit(ref, Refinement.CAPACITY).limit
    tight = solve_limit(ref, Refinement.MAXCONFIG).limit
    if not tight <= capped <= base:
        raise AssertionError(f"refinement ordering violated: {base}, {capped}, {tight}")
    return best, tight


# -- random reduced configurations -----------------------------------------


def random_reduced_sizes(rng: np.random.Generator, ref) -> list[int]:
    """One random unquantized size vector of a valid reduced configuration.

    Positions are filled in random order with sizes the remaining ball
    budget admits; a position stays zero when no size fits or by chance.
    """
    n = ref.n_positions
    budget = (n + 1) << (2 * REFERENCE_SIZE - 2)
    used = 0
    sizes = [0] * n
    order = rng.permutation(n).tolist()
    skips = (rng.random(n) < 0.25).tolist()
    picks = rng.random(n).tolist()
    for idx, skip, u in zip(order, skips, picks):
        if skip:
            continue
        low = ref.exponents[idx] + 1
        # the feasible sizes are low..high, high the largest s <= 10 with
        # used + 4**(s - 1) < budget
        high = min(10, (budget - used - 1).bit_length() + 1 >> 1)
        if high < low:
            continue
        s = low + int(u * (high - low + 1))
        sizes[idx] = s
        used += 1 << (2 * s - 2)
    return sizes
