"""Bit-exact AC code-length accounting for JPEG Baseline entropy coding.

A nonzero quantized AC coefficient preceded by ``r`` zeros is coded as the
Huffman code of the symbol ``(r, s)`` followed by ``s`` amplitude bits,
where ``s`` is the coefficient size.  The total cost ``len(r, s)`` depends
only on the symbol, so the per-symbol costs of the typical (annex K)
tables are stored here as literal grids, one per component class.  Runs
longer than 15 zeros are coded with ZRL extension symbols; a trailing run
of zeros is closed with EOB.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

MAX_RUNLENGTH = 62      # 62 zeros before the last of 63 AC coefficients
MAX_SIZE = 10           # AC amplitudes fit in 10 bits
AC_POSITIONS = 63


class ComponentKind(Enum):
    """Which of the two typical AC Huffman tables applies."""

    LUMINANCE = "luminance"
    CHROMINANCE = "chrominance"


class ParameterError(ValueError):
    """An argument is outside its documented domain: the package's one
    bad-input error, and the only one the command line exits 2 on."""


@dataclass(frozen=True)
class CodeLengthTable:
    """Total code length (Huffman + amplitude bits) per (runlength, size).

    ``grid[s - 1][r]`` holds the cost of symbol ``(r, s)`` for
    ``r in 0..15`` and ``s in 1..10``.  The two size-0 symbols are kept
    separately: ``eob_bits`` is ``(0, 0)`` and ``zrl_bits`` is ``(15, 0)``.
    ``lengths`` is the one array form of ``code_length``: the engine, the
    block-costing path and the exact oracle all read it.
    """

    component: ComponentKind
    grid: tuple[tuple[int, ...], ...]
    eob_bits: int
    zrl_bits: int

    def code_length(self, runlength: int, size: int) -> int:
        """Cost in bits of one coded coefficient with ``runlength`` leading zeros.

        Runs of 16 zeros or more are charged one ZRL symbol per full 16
        zeros, then the residual symbol.  At most three ZRL extensions fit
        before a coefficient, which caps ``runlength`` at 62.
        """
        if not 0 <= runlength <= MAX_RUNLENGTH:
            raise ParameterError(f"runlength {runlength} outside 0..{MAX_RUNLENGTH}")
        if not 1 <= size <= MAX_SIZE:
            raise ParameterError(f"size {size} outside 1..{MAX_SIZE}")
        zrl_count, rest = divmod(runlength, 16)
        return zrl_count * self.zrl_bits + self.grid[size - 1][rest]

    @cached_property
    def lengths(self) -> np.ndarray:
        """``code_length`` as a read-only int16 array ``[runlength, size]``
        for runlength 0..62 and size 0..10, where size 0 costs 0."""
        lengths = np.array([
            [0] + [self.code_length(r, s) for s in range(1, MAX_SIZE + 1)]
            for r in range(MAX_RUNLENGTH + 1)
        ], dtype=np.int16)
        lengths.setflags(write=False)
        return lengths

    def huffman_length(self, runlength: int, size: int) -> int:
        """Length of the Huffman part alone for the residual symbol."""
        return self.grid[size - 1][runlength % 16] - size


# Typical AC tables of the JPEG specification (annex K), expressed as total
# per-symbol costs len(Huff(r, s)) + s.  Transcribed cell for cell.

_LUMINANCE_GRID = (
    (3, 5, 6, 7, 7, 8, 8, 9, 10, 10, 10, 11, 11, 12, 17, 17),
    (4, 7, 10, 11, 12, 13, 14, 14, 17, 18, 18, 18, 18, 18, 18, 18),
    (6, 10, 13, 15, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19),
    (8, 13, 16, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20),
    (10, 16, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21),
    (13, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22),
    (15, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23),
    (18, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24),
    (25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25),
    (26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26),
)

_CHROMINANCE_GRID = (
    (3, 5, 6, 6, 7, 7, 8, 8, 9, 10, 10, 10, 10, 12, 15, 16),
    (5, 8, 10, 10, 11, 12, 13, 13, 18, 18, 18, 18, 18, 18, 18, 18),
    (7, 11, 13, 13, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19),
    (9, 13, 16, 16, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20),
    (10, 16, 20, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21),
    (12, 18, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 22),
    (14, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23),
    (17, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24),
    (19, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25),
    (22, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26),
)

_LUMINANCE = CodeLengthTable(ComponentKind.LUMINANCE, _LUMINANCE_GRID, eob_bits=4, zrl_bits=11)
_CHROMINANCE = CodeLengthTable(ComponentKind.CHROMINANCE, _CHROMINANCE_GRID, eob_bits=2, zrl_bits=10)


def table_for(component: ComponentKind) -> CodeLengthTable:
    return _LUMINANCE if component is ComponentKind.LUMINANCE else _CHROMINANCE


@dataclass(frozen=True)
class SymbolSequence:
    """Run/size symbols of one block in zigzag order.

    ``has_eob`` is False exactly when the 63rd AC coefficient is nonzero.
    Runs longer than 15 are kept as one symbol; ZRL expansion happens when
    costing the symbol.
    """

    symbols: tuple[tuple[int, int], ...]
    has_eob: bool


def symbolize(sizes) -> SymbolSequence:
    """Group a 63-entry size vector into (runlength, size) symbols.

    Zero sizes accumulate into the run preceding the next nonzero size; a
    trailing run (if any) is represented by EOB.
    """
    sizes = list(sizes)
    if len(sizes) != AC_POSITIONS:
        raise ParameterError(f"expected {AC_POSITIONS} sizes, got {len(sizes)}")
    symbols: list[tuple[int, int]] = []
    run = 0
    for s in sizes:
        try:
            s = operator.index(s)  # refuses a float, even an integral one
        except TypeError:
            raise ParameterError(f"size {s!r} is not an integer") from None
        if not 0 <= s <= MAX_SIZE:
            raise ParameterError(f"size {s} outside 0..{MAX_SIZE}")
        if s == 0:
            run += 1
        else:
            symbols.append((run, s))
            run = 0
    return SymbolSequence(tuple(symbols), has_eob=run > 0)


def sequence_length(table: CodeLengthTable, seq: SymbolSequence) -> int:
    """Total AC bits of a symbol sequence, including the EOB if present."""
    total = sum(table.code_length(r, s) for r, s in seq.symbols)
    if seq.has_eob:
        total += table.eob_bits
    return total


def crude_bound() -> int:
    """Upper bound ignoring the quantization table entirely.

    63 coefficients at the longest possible symbol (16-bit Huffman code
    plus a 10-bit amplitude) plus the longer EOB.
    """
    return AC_POSITIONS * (16 + MAX_SIZE) + 4

