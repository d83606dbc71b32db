"""Capability packet headers (Figure 5).

The capability layer is a shim above IP.  Every TVA packet carries a 16-bit
common header; request packets add path identifiers and blank (later
filled) capabilities; regular packets add a flow nonce and, when not
relying on router caches, the capability list with its N and T parameters.
Return information — grants or demotion notifications travelling back to a
sender — piggybacks on packets of any type when the return bit is set.

Simulation uses these objects directly; ``pack``/``unpack`` give the
byte-exact wire encodings for the implementation benchmarks and for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .bits import BitReader, BitWriter, pack_u64_array
from .capability import Capability, PreCapability
from .params import (
    FLOW_NONCE_BITS,
    N_FIELD_BITS,
    N_UNIT_BYTES,
    PATH_ID_BITS,
    T_FIELD_BITS,
)

VERSION = 1

# Packet kinds (low 2 bits of the type nibble, Figure 5).
KIND_REQUEST = 0b00
KIND_REGULAR_WITH_CAPS = 0b01
KIND_REGULAR_NONCE_ONLY = 0b10
KIND_RENEWAL = 0b11

FLAG_DEMOTED = 0b1000
FLAG_RETURN_INFO = 0b0100

RETURN_DEMOTION = 0x01
RETURN_CAPABILITIES = 0x02


@dataclass
class ReturnInfo:
    """Reverse-direction payload: a demotion notice and/or a capability grant."""

    demotion: bool = False
    n_bytes: int = 0
    t_seconds: int = 0
    capabilities: List[Capability] = field(default_factory=list)

    @property
    def has_grant(self) -> bool:
        return bool(self.capabilities)

    def wire_size(self) -> int:
        size = 1  # return type byte
        if self.has_grant:
            size += 1 + 2 + len(self.capabilities) * 8  # num, N/T, caps
        return size

    def pack(self) -> bytes:
        writer = BitWriter()
        rtype = (RETURN_DEMOTION if self.demotion else 0) | (
            RETURN_CAPABILITIES if self.has_grant else 0
        )
        writer.write(rtype, 8)
        if self.has_grant:
            writer.write(len(self.capabilities), 8)
            writer.write(self.n_bytes // N_UNIT_BYTES, N_FIELD_BITS)
            writer.write(self.t_seconds, T_FIELD_BITS)
            # Grant prefix is 32 bits, so the capability array is
            # byte-aligned: bulk-encode it through the cached struct codec.
            return writer.getvalue() + pack_u64_array(
                [cap.as_int() for cap in self.capabilities]
            )
        return writer.getvalue()

    @classmethod
    def unpack(cls, reader: BitReader) -> "ReturnInfo":
        rtype = reader.read(8)
        if rtype & ~(RETURN_DEMOTION | RETURN_CAPABILITIES):
            raise ValueError(f"unknown return-info type bits 0x{rtype:02x}")
        info = cls(demotion=bool(rtype & RETURN_DEMOTION))
        if rtype & RETURN_CAPABILITIES:
            count = reader.read(8)
            info.n_bytes = reader.read(N_FIELD_BITS) * N_UNIT_BYTES
            info.t_seconds = reader.read(T_FIELD_BITS)
            info.capabilities = [
                Capability(raw >> 56, raw & ((1 << 56) - 1))
                for raw in reader.read_u64_array(count)
            ]
        return info


@dataclass
class _Header:
    """Shared mechanics for the three header classes."""

    demoted: bool = False
    return_info: Optional[ReturnInfo] = None
    upper_protocol: int = 6  # TCP, by analogy with IP protocol numbers

    # Class attribute (not a dataclass field): packet kind bits.
    KIND = -1

    def _common(self, writer: BitWriter) -> None:
        flags = self.KIND
        if self.demoted:
            flags |= FLAG_DEMOTED
        if self.return_info is not None:
            flags |= FLAG_RETURN_INFO
        writer.write(VERSION, 4)
        writer.write(flags, 4)
        writer.write(self.upper_protocol, 8)

    def _tail(self) -> bytes:
        if self.return_info is not None:
            return self.return_info.pack()
        return b""

    def _tail_size(self) -> int:
        if self.return_info is not None:
            return self.return_info.wire_size()
        return 0

    def wire_size(self) -> int:
        """Encoded size in bytes, computed arithmetically.

        Must equal ``len(self.pack())`` exactly (asserted by the codec
        tests) — the simulator charges link bytes from this without paying
        for an encode."""
        raise NotImplementedError  # pragma: no cover - overridden

    def pack(self) -> bytes:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass
class RequestHeader(_Header):
    """A capability request: routers append a path identifier at trust
    boundaries and a pre-capability at every hop (Section 4.1)."""

    path_ids: List[int] = field(default_factory=list)
    precapabilities: List[PreCapability] = field(default_factory=list)

    KIND = KIND_REQUEST

    def wire_size(self) -> int:
        # 32-bit prefix (common header + two counts), 16-bit path ids,
        # 64-bit pre-capabilities.
        return (
            4
            + 2 * len(self.path_ids)
            + 8 * len(self.precapabilities)
            + self._tail_size()
        )

    def pack(self) -> bytes:
        writer = BitWriter()
        self._common(writer)
        writer.write(len(self.precapabilities), 8)
        writer.write(len(self.path_ids), 8)
        for pid in self.path_ids:
            writer.write(pid, PATH_ID_BITS)
        # The prefix plus 16-bit path ids is always whole bytes, so the
        # pre-capability array bulk-encodes through the cached codec.
        return (
            writer.getvalue()
            + pack_u64_array([pre.as_int() for pre in self.precapabilities])
            + self._tail()
        )


@dataclass
class RegularHeader(_Header):
    """An authorized packet.

    ``capabilities`` is present on the first packet after a grant (and
    after a demotion signal); packets relying on router caches carry only
    the flow nonce.  ``renewal`` asks routers to mint fresh
    pre-capabilities, which they append to ``new_precapabilities``.
    """

    flow_nonce: int = 0
    n_bytes: int = 0
    t_seconds: int = 0
    capabilities: Optional[List[Capability]] = None
    renewal: bool = False
    new_precapabilities: List[PreCapability] = field(default_factory=list)

    #: Per-hop capability-pointer position (not a wire field of its own —
    #: the shim models the ptr that advances hop by hop).  A class-level
    #: default so routers read it without getattr; senders/routers set the
    #: instance attribute as the packet progresses.
    cap_ptr = 0

    @property
    def KIND(self) -> int:  # type: ignore[override]
        if self.renewal:
            return KIND_RENEWAL
        if self.capabilities is not None:
            return KIND_REGULAR_WITH_CAPS
        return KIND_REGULAR_NONCE_ONLY

    def wire_size(self) -> int:
        # 64-bit prefix (common header + flow nonce); with-caps/renewal
        # forms add a 32-bit grant block and the 64-bit arrays.
        size = 8 + self._tail_size()
        if self.capabilities is not None or self.renewal:
            caps = self.capabilities or []
            size += 4 + 8 * len(caps) + 8 * len(self.new_precapabilities)
        return size

    def pack(self) -> bytes:
        writer = BitWriter()
        self._common(writer)
        writer.write(self.flow_nonce, FLOW_NONCE_BITS)
        if self.capabilities is not None or self.renewal:
            caps = self.capabilities or []
            writer.write(len(caps), 8)
            writer.write(len(self.new_precapabilities), 8)
            writer.write(self.n_bytes // N_UNIT_BYTES, N_FIELD_BITS)
            writer.write(self.t_seconds, T_FIELD_BITS)
            # 96-bit prefix = byte-aligned; both arrays bulk-encode.
            return (
                writer.getvalue()
                + pack_u64_array([cap.as_int() for cap in caps])
                + pack_u64_array([pre.as_int() for pre in self.new_precapabilities])
                + self._tail()
            )
        return writer.getvalue() + self._tail()


def figure2_class(pkt) -> int:
    """The Figure 2 output class of a packet: 0 request, 1 regular,
    2 legacy.

    The one place the decision lives — TVA's link scheduler indexes its
    class list with it and the observability layer names wire bytes by
    it.  Demoted packets and anything without a TVA header (plain IP,
    another scheme's shim) are legacy; that is the point of demotion.
    """
    shim = pkt.shim
    if shim is None or pkt.demoted:
        return 2
    if isinstance(shim, RegularHeader):
        return 1
    if isinstance(shim, RequestHeader):
        return 0
    return 2


def unpack_header(data: bytes):
    """Decode a packed header back into its object form.

    Raises ``ValueError`` on malformed input; routers treat undecodable
    packets as legacy traffic.
    """
    reader = BitReader(data)
    version = reader.read(4)
    if version != VERSION:
        raise ValueError(f"unknown capability header version {version}")
    flags = reader.read(4)
    upper = reader.read(8)
    kind = flags & 0b11
    demoted = bool(flags & FLAG_DEMOTED)
    has_return = bool(flags & FLAG_RETURN_INFO)

    header: _Header
    if kind == KIND_REQUEST:
        ncaps = reader.read(8)
        npids = reader.read(8)
        request = RequestHeader(demoted=demoted, upper_protocol=upper)
        for _ in range(npids):
            request.path_ids.append(reader.read(PATH_ID_BITS))
        request.precapabilities = [
            PreCapability(raw >> 56, raw & ((1 << 56) - 1))
            for raw in reader.read_u64_array(ncaps)
        ]
        header = request
    else:
        regular = RegularHeader(demoted=demoted, upper_protocol=upper)
        regular.flow_nonce = reader.read(FLOW_NONCE_BITS)
        if kind in (KIND_REGULAR_WITH_CAPS, KIND_RENEWAL):
            ncaps = reader.read(8)
            npre = reader.read(8)
            regular.n_bytes = reader.read(N_FIELD_BITS) * N_UNIT_BYTES
            regular.t_seconds = reader.read(T_FIELD_BITS)
            regular.capabilities = [
                Capability(raw >> 56, raw & ((1 << 56) - 1))
                for raw in reader.read_u64_array(ncaps)
            ]
            regular.new_precapabilities = [
                PreCapability(raw >> 56, raw & ((1 << 56) - 1))
                for raw in reader.read_u64_array(npre)
            ]
            regular.renewal = kind == KIND_RENEWAL
        header = regular

    if has_return:
        header.return_info = ReturnInfo.unpack(reader)
    reader.expect_exhausted()
    return header
