"""BitmapCSR: the hybrid set format used by X-SET's datapath (paper §5.2).

Each 32-bit element packs a ``b``-bit *bitmap* in the low bits and a
``32 - b``-bit *block index* in the high bits.  A vertex ``x`` maps to block
``k = x // b`` with bit ``x % b`` set, so one element can represent up to
``b`` consecutive vertices.  Comparators in the SIU only inspect the index
field (narrower comparisons → smaller area), and equal-index elements combine
bitmaps with AND (intersection) or AND-NOT (difference), giving intra-element
parallelism.  ``width = 0`` degrades to the conventional CSR format where
each word is a plain vertex ID.

Functions here are the *functional* model; cycle costs are attributed by the
SIU models, which consume the word counts these functions report.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError

__all__ = [
    "VALID_WIDTHS",
    "encode",
    "decode",
    "intersect_words",
    "difference_words",
    "count_vertices",
    "encoded_length",
]

#: bitmap widths supported by the hardware (0 = plain CSR)
VALID_WIDTHS = (0, 1, 2, 4, 8, 16)


def _check_width(width: int) -> None:
    if width not in VALID_WIDTHS:
        raise GraphFormatError(
            f"bitmap width must be one of {VALID_WIDTHS}, got {width}"
        )


def encode(vertices: np.ndarray, width: int) -> np.ndarray:
    """Encode a sorted vertex array into BitmapCSR words.

    Returns an ``int64`` array of packed words ``(block << width) | bitmap``
    sorted by block index (the input order is preserved blockwise, so sorted
    vertices produce sorted words).
    """
    _check_width(width)
    v = np.asarray(vertices, dtype=np.int64)
    if width == 0:
        return v.copy()
    if v.size == 0:
        return np.zeros(0, dtype=np.int64)
    blocks = v // width
    bits = np.int64(1) << (v % width)
    # Sorted input ⇒ equal blocks are adjacent; OR bits per block.
    boundaries = np.flatnonzero(np.diff(blocks)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [v.size]])
    words = np.empty(starts.size, dtype=np.int64)
    for i, (s, e) in enumerate(zip(starts, ends)):
        words[i] = (blocks[s] << width) | np.bitwise_or.reduce(bits[s:e])
    return words


def decode(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`encode`; returns a sorted vertex array."""
    _check_width(width)
    w = np.asarray(words, dtype=np.int64)
    if width == 0:
        return w.copy()
    out: list[int] = []
    mask = (1 << width) - 1
    for word in w:
        block = int(word) >> width
        bmp = int(word) & mask
        base = block * width
        while bmp:
            low = bmp & -bmp
            out.append(base + low.bit_length() - 1)
            bmp ^= low
    return np.asarray(out, dtype=np.int64)


def _split(words: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    if width == 0:
        return words, np.ones_like(words)
    mask = (1 << width) - 1
    return words >> width, words & mask


def _merge_blocks(
    a: np.ndarray, b: np.ndarray, width: int, op: str
) -> np.ndarray:
    """Shared kernel for word-level intersection/difference on block index."""
    ka, ba = _split(np.asarray(a, dtype=np.int64), width)
    kb, bb = _split(np.asarray(b, dtype=np.int64), width)
    # positions of matching blocks via merge on sorted keys
    idx = np.searchsorted(kb, ka)
    idx_c = np.clip(idx, 0, max(kb.size - 1, 0))
    match = (idx < kb.size) & (kb[idx_c] == ka) if kb.size else np.zeros(
        ka.shape, dtype=bool
    )
    if op == "and":
        bits = np.where(match, ba & bb[idx_c] if kb.size else 0, 0)
        keep = bits != 0
        return (ka[keep] << width) | bits[keep] if width else ka[keep]
    if op == "andnot":
        bits = np.where(match, ba & ~bb[idx_c] if kb.size else ba, ba)
        keep = bits != 0
        return (ka[keep] << width) | bits[keep] if width else ka[keep]
    raise GraphFormatError(f"unknown op {op!r}")


def intersect_words(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """Word-level intersection of two sorted BitmapCSR streams."""
    _check_width(width)
    if width == 0:
        return np.intersect1d(a, b, assume_unique=True)
    return _merge_blocks(a, b, width, "and")


def difference_words(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """Word-level difference ``a - b`` of two sorted BitmapCSR streams."""
    _check_width(width)
    if width == 0:
        return np.setdiff1d(a, b, assume_unique=True)
    return _merge_blocks(a, b, width, "andnot")


def count_vertices(words: np.ndarray, width: int) -> int:
    """Number of vertices represented by a word stream (popcount sum)."""
    _check_width(width)
    w = np.asarray(words, dtype=np.int64)
    if width == 0:
        return int(w.size)
    mask = (1 << width) - 1
    bits = (w & mask).astype(np.uint64)
    return int(sum(int(x).bit_count() for x in bits))


def encoded_length(vertices: np.ndarray, width: int) -> int:
    """Words needed to encode ``vertices`` without materialising them.

    Equal to the number of distinct ``v // width`` blocks.
    """
    _check_width(width)
    v = np.asarray(vertices, dtype=np.int64)
    if width == 0 or v.size == 0:
        return int(v.size)
    return int(np.unique(v // width).size)
