"""Worst-case AC code-length limits for JPEG Baseline 8x8 blocks.

The package computes provable upper limits on the number of bits the AC
Huffman codes of a single 8x8 block can occupy under the typical (annex K)
Huffman tables, for any scale factor applied to the annex K quantization
tables, and provides a full encoding pipeline plus search and enumeration
harnesses to verify those limits empirically.
"""

__version__ = "0.1.0"

from .entropy_model import (
    ComponentKind,
    CodeLengthTable,
    SymbolSequence,
    symbolize,
    sequence_length,
    crude_bound,
)
from .quantization import (
    QuantTable,
    annex_k_table,
    scale_table,
    pow2_table,
    quantize,
)
from .bound_engine import (
    Refinement,
    BoundResult,
    upper_limit,
)
from .verification import (
    EncodeReport,
    SearchConfig,
    encode_block,
    adversarial_search,
    toy_oracle,
    soundness_fuzz,
)

__all__ = [
    "ComponentKind",
    "CodeLengthTable",
    "SymbolSequence",
    "symbolize",
    "sequence_length",
    "crude_bound",
    "QuantTable",
    "annex_k_table",
    "scale_table",
    "pow2_table",
    "quantize",
    "Refinement",
    "BoundResult",
    "upper_limit",
    "EncodeReport",
    "SearchConfig",
    "encode_block",
    "adversarial_search",
    "toy_oracle",
    "soundness_fuzz",
]
