"""Quantization tables, scale-factor scaling, and size arithmetic.

Scaled tables are built from the example (annex K) tables by
``Q = max(INT(SF * Q0), 1)`` with the scale factor kept as an exact
fraction; the power-of-2 reduction keeps, per position, the largest
power of two not exceeding the factor, by bit length alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .entropy_model import AC_POSITIONS, ComponentKind, ParameterError
from .transform import RASTER_OF_ZIGZAG

MIN_SCALE = Fraction(1, 64)
MAX_SCALE = Fraction(1)
MAX_SUPPORTED_FACTOR = 121   # the largest annex K factor; keeps every exponent <= 6


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
    it is metadata only.
    """

    component: ComponentKind
    q: tuple[int, ...]
    q00: int
    sf: Fraction | None = None

    def __post_init__(self):
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
    position: 2**C(k) <= Q(k) < 2**(C(k)+1), via bit length."""
    if any(v > MAX_SUPPORTED_FACTOR for v in q.q):
        raise ParameterError(
            f"factors above {MAX_SUPPORTED_FACTOR} are outside the supported regime"
        )
    return tuple(v.bit_length() - 1 for v in q.q)


def quantize(value, q: int):
    """INT(value / q), truncating toward zero as the paper's quantizer does."""
    if q < 1:
        raise ParameterError(f"quantization factor {q} must be >= 1")
    if isinstance(value, (int, Fraction)):
        sign = -1 if value < 0 else 1
        return sign * int(abs(value) // q)
    return math.trunc(value / q)


def coefficient_size(amplitude: int) -> int:
    """Smallest s with |amplitude| < 2**s; 0 exactly for amplitude 0."""
    a = abs(int(amplitude))
    if a > 2047:
        raise ParameterError(f"amplitude {amplitude} outside +-2047")
    return a.bit_length()


def quantized_sizes(unquantized, exponents) -> list[int]:
    """Per-position max(S(k) - C(k), 0) for a vector of unquantized sizes."""
    sizes = list(unquantized)
    if len(sizes) != len(exponents):
        raise ParameterError("size vector and exponent vector lengths differ")
    return [max(s - e, 0) for s, e in zip(sizes, exponents)]


def load_quant_table(path, component: ComponentKind) -> QuantTable:
    """Read a table file: an ``order: raster`` or ``order: zigzag``
    header line, then 64 integers, the DC factor first."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("order:"):
        raise ParameterError("missing 'order: raster|zigzag' header line")
    order = lines[0].split(":", 1)[1].strip()
    if order not in ("raster", "zigzag"):
        raise ParameterError(f"unknown order {order!r}")
    try:
        values = [int(tok) for ln in lines[1:] for tok in ln.split()]
    except ValueError as exc:
        raise ParameterError(f"non-integer entry in quantization table: {exc}") from exc
    if len(values) != 64:
        raise ParameterError(f"expected 64 entries, got {len(values)}")
    if order == "raster":
        values = [values[i] for i in RASTER_OF_ZIGZAG]
    return QuantTable(component, tuple(values[1:]), q00=values[0])
