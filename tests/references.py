"""Reference helpers the tests compare the package against.

None of these feed the package: they state the geometry the bound
derivation assumes, invert the DCT, the zigzag scan and symbolization, draw
random reduced configurations for the decomposition identity, sum the
copies of delta entries, build one reference's gain sets directly
over every (position, run) pair, which the engine's cached gain terms
must reproduce, and decompose a target through the operation builders,
which the engine's reads of its tables must reproduce.
``ac_bits_from_sizes`` is the costing kernel behind a check of its
inputs, for the tests that cost size vectors directly.
"""

import heapq
from itertools import accumulate, chain, repeat
from operator import attrgetter

import numpy as np

from acbound import bound_engine
from acbound.bound_engine import REFERENCE_SIZE
from acbound.entropy_model import (
    AC_POSITIONS, MAX_SIZE, ComponentKind, ParameterError, SymbolSequence, table_for,
)
from acbound.transform import BLOCK_SIZE, DCT_MATRIX, PIXEL_MIN, ZIGZAG_OF_RASTER
from acbound.verification import _ac_bits

AC_ENERGY_BUDGET = float(2**20)


def inverse_dct(coeffs) -> np.ndarray:
    """f = K F K^T; round-trips ``forward_dct`` to 1e-9 per entry."""
    return DCT_MATRIX @ np.asarray(coeffs, dtype=np.float64) @ DCT_MATRIX.T


def zigzag_unscan(sequence) -> np.ndarray:
    """Inverse of ``zigzag_scan``."""
    seq = np.asarray(sequence).reshape(64)
    return seq[list(ZIGZAG_OF_RASTER)].reshape(BLOCK_SIZE, BLOCK_SIZE)


def ac_energy(coeffs) -> float:
    F = np.asarray(coeffs, dtype=np.float64)
    return float((F * F).sum() - F[0, 0] ** 2)


def ac_ball_condition(coeffs) -> bool:
    """True iff the AC energy is strictly below 2**20."""
    return ac_energy(coeffs) < AC_ENERGY_BUDGET


def cube_condition(coeffs, tol: float = 1e-9) -> bool:
    """True iff the inverse transform stays within [-2**7, 2**7].

    Both endpoints are inclusive; the upper endpoint deliberately admits
    +128 even though level-shifted pixels top out at +127 (the published
    inequality is asymmetric versus the pixel cube, and is kept as is).
    """
    f = inverse_dct(coeffs)
    return bool((f >= PIXEL_MIN - tol).all() and (f <= 128 + tol).all())


def integer_condition(coeffs, tol: float) -> bool:
    """True iff every inverse-transform entry is within ``tol`` of an integer."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    f = inverse_dct(coeffs)
    return bool((np.abs(f - np.round(f)) <= tol).all())


def desymbolize(seq: SymbolSequence, total: int = AC_POSITIONS) -> list[int]:
    """Expand a symbol sequence back into a size vector of length ``total``."""
    sizes: list[int] = []
    for r, s in seq.symbols:
        sizes.extend([0] * r)
        sizes.append(s)
    if len(sizes) > total or (len(sizes) == total and seq.has_eob):
        raise ParameterError("symbol sequence does not fit the block")
    sizes.extend([0] * (total - len(sizes)))
    return sizes


def ac_bits_from_sizes(sizes: np.ndarray, component: ComponentKind) -> np.ndarray:
    """Coded AC bits of many size vectors, shape (N, width) for width 1..63,
    as int64: the package's kernel ``_ac_bits``, behind checks.

    Sizes outside 0..MAX_SIZE raise ``ParameterError``: their flat index
    would read another cell.  So does any shape but (N, 1..63): the runs of
    a 64th column are not in the table."""
    sizes = np.asarray(sizes)
    if sizes.ndim != 2 or not 1 <= sizes.shape[1] <= AC_POSITIONS:
        raise ParameterError(f"sizes must have shape (N, 1..{AC_POSITIONS}), not {sizes.shape}")
    if sizes.size and (sizes.min() < 0 or sizes.max() > MAX_SIZE):
        raise ParameterError(f"sizes outside 0..{MAX_SIZE}")
    return _ac_bits(sizes, component)


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


def prefix_sums(sets, counts):
    """The loss prefix L(0..n) and the gain prefixes G9(0..a), G10(0..b)
    of ``sets`` for ``counts = (n, a, b)``, in units of 1/SCALE bits.

    L(i) sums the i smallest loss copies, G9(i) and G10(i) the i largest
    gains; a prefix is shorter when its set holds fewer, and L runs on past
    n through every negative loss copy.  Each
    ``DeltaEntry`` contributes its exact value once per copy
    (``multiplicity`` times).  The i smallest copies lie in the i
    smallest entries, since every entry holds at least one copy, so only
    those are expanded; the order of the entry tuples is not read.
    """
    return tuple(
        _copy_prefix(entries, count, largest)
        for entries, count, largest in zip(
            (sets.losses, sets.gains9, sets.gains10), counts, (False, True, True)
        )
    )


def _copy_prefix(entries, count, largest):
    if not largest:
        count = max(count, sum(e.multiplicity for e in entries if e.value < 0))
    pick = heapq.nlargest if largest else heapq.nsmallest
    entries = pick(count, entries, key=attrgetter("value"))
    copies = sorted(
        chain.from_iterable(repeat(e.value, e.multiplicity) for e in entries), reverse=largest
    )
    return tuple(accumulate(copies[:count], initial=0))


def by_value(rows: np.ndarray, descending: bool = False) -> np.ndarray:
    """``rows`` sorted by the engine's key: value, kind, position, run
    and size.  Integer indices copy whole rows, padding bytes too."""
    low = bound_engine._low_key(
        *(rows[name] for name in ("kind", "position", "run", "size", "start", "width")))
    order = np.argsort(bound_engine._sort_key(rows["bits"], low))
    return rows[order[::-1] if descending else order]


def gain_rows(ref, step: int) -> np.ndarray:
    """``ref``'s base gain rows for promotions by ``step`` sizes, largest
    first, built over every (p, r) pair: each promotion whose code lies
    outside the escape region or that the replacement test does not
    dominate."""
    p, r = np.tril_indices(ref.n_positions)
    p += 1  # r zeros ahead of position p, 0 <= r < p
    sbar = ref.sbar_array[p - 1]
    size = sbar + step
    i = np.flatnonzero(~(bound_engine._escape_grid(ref.component)[r, size]
                         & ref.dominance[p, r, size]))
    promotions = bound_engine._promotions(table_for(ref.component), p[i], r[i], sbar[i], step)
    rows = np.zeros(len(i), bound_engine._ROW)
    # kind, position, run, size, start, width and bits, and a copy per position
    for name, column in zip(bound_engine._ROW.names, (*promotions, promotions[5])):
        rows[name] = column
    return by_value(rows, descending=True)


def builder_decompose(target, ref) -> np.ndarray:
    """``decompose`` built through the four operation builders, one
    ``_sort_key(bits, _low_key(...))`` per family, for a valid ``target``:
    the rows in the engine's order, the EOB first, then by position, a
    kept coefficient's OP3 ahead of its OP6."""
    sizes = np.array(target, dtype=np.intp)
    p = np.flatnonzero(sizes) + 1
    r = np.diff(p, prepend=0) - 1  # zeros ahead of each nonzero position
    S = sizes[p - 1]
    demoted = S < REFERENCE_SIZE
    kept = ~demoted & (r > 0)
    quantized = S - np.array(ref.exponents, dtype=np.intp)[p - 1]
    table = table_for(ref.component)
    losses = [bound_engine._demotions(table, p[demoted], r[demoted], quantized[demoted]),
              bound_engine._kept(table, p[kept], r[kept], ref.sbar_array[p[kept] - 1])]
    last = p.max(initial=0)
    if last < ref.n_positions:
        losses.append(bound_engine._eobs(table, ref.n_positions, np.array([last])))
    families = [(*loss[:6], bound_engine._loss_bits(ref.prefix, *loss[6:])) for loss in losses]
    for step in (1, 2):
        promoted = S == REFERENCE_SIZE + step
        p_up = p[promoted]
        families.append(bound_engine._promotions(
            table, p_up, r[promoted], ref.sbar_array[p_up - 1], step))
    rows = bound_engine._key_rows(np.concatenate([
        bound_engine._sort_key(bits, bound_engine._low_key(*columns))
        for *columns, bits in families
    ]))
    eob = bound_engine._KIND_RANK[bound_engine.OpKind.OP4]
    return rows[np.lexsort((rows["position"], rows["kind"] != eob))]
