"""Quantization tables, scale-factor scaling, and the quantizer.

Scaled tables are built from the example (annex K) tables by
``Q = max(INT(SF * Q0), 1)`` with the scale factor kept as an exact
fraction; the power-of-2 reduction keeps, per position, the largest
power of two not exceeding the factor, by bit length alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .entropy_model import AC_POSITIONS, ComponentKind, ParameterError
from .transform import RASTER_OF_ZIGZAG

MIN_SCALE = Fraction(1, 64)
MAX_SCALE = Fraction(1)


# Annex K example tables, raster (row-major) order.
K1_LUMINANCE = (
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
)

K2_CHROMINANCE = (
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
)


@dataclass(frozen=True)
class QuantTable:
    """63 AC quantization factors in zigzag order plus the DC factor.

    ``sf`` records the scale factor the table was built with, when known;
    it is metadata only.  The factors are stored as a tuple of Python
    ints; any integer type is accepted (through ``operator.index``), any
    other value is refused.
    """

    component: ComponentKind
    q: tuple[int, ...]
    q00: int
    sf: Fraction | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "q", tuple(map(operator.index, self.q)))
            object.__setattr__(self, "q00", operator.index(self.q00))
        except TypeError:
            raise ParameterError("quantization factors must be integers") from None
        if len(self.q) != AC_POSITIONS:
            raise ParameterError(f"expected {AC_POSITIONS} AC factors, got {len(self.q)}")
        if self.q00 < 1 or any(v < 1 for v in self.q):
            raise ParameterError("quantization factors must be >= 1")

    def factor(self, k: int) -> int:
        """Factor at zigzag position k, 1-indexed over the AC range."""
        return self.q[k - 1]


def annex_k_raster(component: ComponentKind) -> tuple[int, ...]:
    return K1_LUMINANCE if component is ComponentKind.LUMINANCE else K2_CHROMINANCE


def annex_k_table(component: ComponentKind) -> QuantTable:
    """The unscaled annex K table for a component, in zigzag layout."""
    raster = annex_k_raster(component)
    zigzag = [raster[i] for i in RASTER_OF_ZIGZAG]
    return QuantTable(component, tuple(zigzag[1:]), q00=zigzag[0], sf=Fraction(1))


def scale_table(base: QuantTable, sf) -> QuantTable:
    """Scale every factor by ``sf``: Q = max(INT(sf * Q0), 1).

    ``sf`` must lie in [1/64, 1]; larger factors would push reference
    sizes below 2 and leave the supported regime.
    """
    sf = Fraction(sf)
    if not MIN_SCALE <= sf <= MAX_SCALE:
        raise ParameterError(f"scale factor {sf} outside [{MIN_SCALE}, {MAX_SCALE}]")
    if any(not 1 <= v <= 255 for v in base.q) or not 1 <= base.q00 <= 255:
        raise ParameterError("base table entries must lie in 1..255")
    scaled = tuple(max(int(sf * v), 1) for v in base.q)
    return QuantTable(base.component, scaled, q00=max(int(sf * base.q00), 1), sf=sf)


def scaled_annex_k(component: ComponentKind, sf) -> QuantTable:
    return scale_table(annex_k_table(component), sf)


def pow2_table(q: QuantTable) -> tuple[int, ...]:
    """Exponents C(k) of the power-of-2 reduced table, one per AC
    position: 2**C(k) <= Q(k) < 2**(C(k)+1), via bit length.  A limit
    takes exponents of at most 6 (``reference_config`` refuses the rest),
    so factors 1..127."""
    return tuple(v.bit_length() - 1 for v in q.q)


def quantize(value, q: int):
    """INT(value / q), truncating toward zero as the paper's quantizer does."""
    if q < 1:
        raise ParameterError(f"quantization factor {q} must be >= 1")
    if isinstance(value, (int, Fraction)):
        sign = -1 if value < 0 else 1
        return sign * int(abs(value) // q)
    return math.trunc(value / q)

