"""Byte-exact wire-format tests for Figure 5's headers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Capability,
    PreCapability,
    RegularHeader,
    RequestHeader,
    ReturnInfo,
    unpack_header,
)
from repro.core.header import (
    KIND_REGULAR_NONCE_ONLY,
    KIND_REGULAR_WITH_CAPS,
    KIND_RENEWAL,
    KIND_REQUEST,
)
from repro.core.params import N_UNIT_BYTES


def caps(n):
    return [Capability(i % 256, 1000 + i) for i in range(n)]


def precaps(n):
    return [PreCapability(i % 256, 2000 + i) for i in range(n)]


class TestRequestHeader:
    def test_empty_request_roundtrip(self):
        hdr = RequestHeader()
        assert unpack_header(hdr.pack()) == hdr

    def test_request_with_path_and_precaps_roundtrip(self):
        hdr = RequestHeader(path_ids=[1, 65535], precapabilities=precaps(3))
        out = unpack_header(hdr.pack())
        assert out.path_ids == [1, 65535]
        assert out.precapabilities == hdr.precapabilities

    def test_request_grows_ten_bytes_per_tagged_hop(self):
        """16-bit path id + 64-bit pre-capability = 10 bytes (Section 4)."""
        bare = RequestHeader().wire_size()
        one_hop = RequestHeader(path_ids=[7], precapabilities=precaps(1)).wire_size()
        assert one_hop - bare == 10

    def test_kind_bits(self):
        assert RequestHeader().KIND == KIND_REQUEST


class TestRegularHeader:
    def test_nonce_only_roundtrip(self):
        hdr = RegularHeader(flow_nonce=0xABCDEF012345)
        out = unpack_header(hdr.pack())
        assert out.flow_nonce == hdr.flow_nonce
        assert out.capabilities is None

    def test_nonce_only_is_compact(self):
        """Common header (2) + 48-bit nonce (6) = 8 bytes — the cached
        common case the paper optimizes for."""
        assert RegularHeader(flow_nonce=1).wire_size() == 8

    def test_with_capabilities_roundtrip(self):
        hdr = RegularHeader(
            flow_nonce=42,
            n_bytes=100 * N_UNIT_BYTES,
            t_seconds=10,
            capabilities=caps(2),
        )
        out = unpack_header(hdr.pack())
        assert out.capabilities == hdr.capabilities
        assert out.n_bytes == hdr.n_bytes
        assert out.t_seconds == hdr.t_seconds
        assert not out.renewal

    def test_renewal_roundtrip_with_fresh_precaps(self):
        hdr = RegularHeader(
            flow_nonce=42,
            n_bytes=N_UNIT_BYTES,
            t_seconds=5,
            capabilities=caps(2),
            renewal=True,
        )
        hdr.new_precapabilities.extend(precaps(2))
        out = unpack_header(hdr.pack())
        assert out.renewal
        assert out.new_precapabilities == hdr.new_precapabilities

    def test_kind_bits_reflect_contents(self):
        assert RegularHeader(flow_nonce=1).KIND == KIND_REGULAR_NONCE_ONLY
        assert RegularHeader(flow_nonce=1, capabilities=[]).KIND == KIND_REGULAR_WITH_CAPS
        assert RegularHeader(flow_nonce=1, renewal=True).KIND == KIND_RENEWAL


class TestReturnInfo:
    def test_demotion_only(self):
        hdr = RegularHeader(flow_nonce=1, return_info=ReturnInfo(demotion=True))
        out = unpack_header(hdr.pack())
        assert out.return_info.demotion
        assert not out.return_info.has_grant

    def test_grant_roundtrip(self):
        info = ReturnInfo(n_bytes=64 * N_UNIT_BYTES, t_seconds=10, capabilities=caps(3))
        hdr = RequestHeader(return_info=info)
        out = unpack_header(hdr.pack())
        assert out.return_info.capabilities == info.capabilities
        assert out.return_info.n_bytes == info.n_bytes
        assert out.return_info.t_seconds == info.t_seconds

    def test_grant_and_demotion_combined(self):
        info = ReturnInfo(
            demotion=True, n_bytes=N_UNIT_BYTES, t_seconds=1, capabilities=caps(1)
        )
        out = unpack_header(RegularHeader(flow_nonce=5, return_info=info).pack())
        assert out.return_info.demotion and out.return_info.has_grant


class TestDemotedBit:
    def test_demoted_bit_survives_roundtrip(self):
        hdr = RequestHeader(demoted=True)
        assert unpack_header(hdr.pack()).demoted

    def test_demoted_regular(self):
        hdr = RegularHeader(flow_nonce=9, demoted=True)
        assert unpack_header(hdr.pack()).demoted


class TestMalformed:
    def test_bad_version_rejected(self):
        data = bytearray(RegularHeader(flow_nonce=1).pack())
        data[0] = (15 << 4) | (data[0] & 0x0F)
        with pytest.raises(ValueError):
            unpack_header(bytes(data))

    def test_truncated_rejected(self):
        data = RequestHeader(path_ids=[1], precapabilities=precaps(1)).pack()
        with pytest.raises(ValueError):
            unpack_header(data[:-3])

    def test_trailing_garbage_rejected(self):
        data = RegularHeader(flow_nonce=1).pack() + b"\x00"
        with pytest.raises(ValueError):
            unpack_header(data)


#: None, a demotion notice, a grant of 0–5 capabilities, or both.
return_infos = st.one_of(
    st.none(),
    st.builds(
        lambda demotion, n_kb, t, ncaps: ReturnInfo(
            demotion=demotion, n_bytes=n_kb * N_UNIT_BYTES, t_seconds=t,
            capabilities=caps(ncaps),
        ),
        st.booleans(), st.integers(0, 1023), st.integers(0, 63),
        st.integers(0, 5),
    ),
)


@given(
    nonce=st.integers(0, 2**48 - 1),
    n_kb=st.integers(0, 1023),
    t=st.integers(0, 63),
    ncaps=st.integers(0, 5),
    renewal=st.booleans(),
    demoted=st.booleans(),
    info=return_infos,
)
@settings(max_examples=100, deadline=None)
def test_regular_header_roundtrip_property(nonce, n_kb, t, ncaps, renewal,
                                          demoted, info):
    hdr = RegularHeader(
        flow_nonce=nonce,
        n_bytes=n_kb * N_UNIT_BYTES,
        t_seconds=t,
        capabilities=caps(ncaps),
        renewal=renewal,
        demoted=demoted,
        return_info=info,
    )
    raw = hdr.pack()
    assert hdr.wire_size() == len(raw)
    out = unpack_header(raw)
    assert out.flow_nonce == nonce
    assert out.capabilities == hdr.capabilities
    assert out.renewal == renewal
    assert out.demoted == demoted
    assert (out.return_info is None) == (info is None)
    if info is not None:
        assert out.return_info.demotion == info.demotion
        assert out.return_info.capabilities == info.capabilities


@given(
    npids=st.integers(0, 8),
    npre=st.integers(0, 8),
    with_return=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_request_header_roundtrip_property(npids, npre, with_return):
    hdr = RequestHeader(
        path_ids=[i * 11 % 65536 for i in range(npids)],
        precapabilities=precaps(npre),
        return_info=ReturnInfo(demotion=True) if with_return else None,
    )
    raw = hdr.pack()
    assert hdr.wire_size() == len(raw)
    out = unpack_header(raw)
    assert out.path_ids == hdr.path_ids
    assert out.precapabilities == hdr.precapabilities
    assert (out.return_info is not None) == with_return


# ---------------------------------------------------------------------------
# The Figure 2 class decision
# ---------------------------------------------------------------------------

class _ForeignShim:
    """Another scheme's shim (SIFF marks, NetFence feedback): not TVA's."""


@pytest.mark.parametrize("demoted", [False, True])
@pytest.mark.parametrize("shim,undemoted_class", [
    (None, "legacy"),
    (RequestHeader(), "request"),
    (RegularHeader(flow_nonce=1), "regular"),
    (_ForeignShim(), "legacy"),
])
def test_figure2_class_matrix(shim, undemoted_class, demoted):
    from repro.core.header import figure2_class
    from repro.obs.instrument import TRAFFIC_CLASSES, traffic_class
    from repro.sim import Packet

    pkt = Packet(1, 2, 100, shim=shim)
    pkt.demoted = demoted
    expected = "legacy" if demoted else undemoted_class
    assert TRAFFIC_CLASSES[figure2_class(pkt)] == expected
    # The observability layer names wire bytes by the same decision.
    assert traffic_class(pkt) == expected
