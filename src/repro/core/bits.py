"""Bit-level serialization helpers.

Figure 5's headers pack fields at sub-byte granularity (a 10-bit N next to
a 6-bit T, 4-bit version/type nibbles).  :class:`BitWriter` and
:class:`BitReader` provide big-endian, MSB-first bit packing so the header
encodings in :mod:`repro.core.header` are byte-exact and round-trippable.

Fast path: the reader converts the buffer to one big integer up front so
every :meth:`BitReader.read` is a single shift-and-mask instead of a
per-bit loop, and byte-aligned 64-bit runs (the capability arrays, which
dominate header bytes) go through precompiled per-arity
:class:`struct.Struct` codecs.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, Sequence, Tuple

#: Precompiled big-endian u64-array codecs, one per arity.  Capability
#: lists are short (path length, <= ~10), so this stays tiny.
_U64_STRUCTS: Dict[int, Struct] = {}


def u64_struct(count: int) -> Struct:
    """The cached ``>NQ`` codec for ``count`` 64-bit values."""
    codec = _U64_STRUCTS.get(count)
    if codec is None:
        # repro: allow-p001 — builds the memoized codec the rule asks for
        codec = _U64_STRUCTS[count] = Struct(f">{count}Q")
    return codec


def pack_u64_array(values: Sequence[int]) -> bytes:
    """Big-endian concatenation of 64-bit values via the cached codec."""
    if not values:
        return b""
    return u64_struct(len(values)).pack(*values)


class BitWriter:
    """Accumulates values MSB-first into a byte string."""

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> "BitWriter":
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        if value < 0 or value >= (1 << nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        return self

    def getvalue(self) -> bytes:
        if self._nbits % 8:
            raise ValueError(
                f"bitstream is {self._nbits} bits, not a whole number of bytes; "
                "pad explicitly"
            )
        return self._acc.to_bytes(self._nbits // 8, "big")

    @property
    def bit_length(self) -> int:
        return self._nbits


class BitReader:
    """Consumes values MSB-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._total_bits = len(data) * 8
        # One O(n) conversion up front buys O(1) arbitrary-width reads.
        self._acc = int.from_bytes(data, "big")
        self._pos = 0  # bit cursor

    def read(self, nbits: int) -> int:
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        end = self._pos + nbits
        total = self._total_bits
        if end > total:
            raise ValueError("read past end of bitstream")
        self._pos = end
        return (self._acc >> (total - end)) & ((1 << nbits) - 1)

    def read_u64_array(self, count: int) -> Tuple[int, ...]:
        """Read ``count`` consecutive 64-bit values.

        Requires the cursor to be byte-aligned — which Figure 5 guarantees
        for every capability array — so the whole run decodes through one
        precompiled struct call."""
        if count <= 0:
            return ()
        pos = self._pos
        if pos & 7:
            raise ValueError("u64 array read requires byte alignment")
        end = pos + 64 * count
        if end > self._total_bits:
            raise ValueError("read past end of bitstream")
        self._pos = end
        return u64_struct(count).unpack_from(self._data, pos >> 3)

    @property
    def remaining_bits(self) -> int:
        return self._total_bits - self._pos

    def expect_exhausted(self) -> None:
        if self.remaining_bits:
            raise ValueError(f"{self.remaining_bits} unread bits remain")
