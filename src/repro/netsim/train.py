"""Packet trains: a run of packets that travels as one event.

The off-path attacks send long runs of packets that are identical except
for one 16-bit field, and the victim answers some of them with runs of
its own.  A train carries such a run through the fabric as a single
scheduler event (see :meth:`repro.netsim.network.Network.transmit_train`)
and the receiving host settles it in bulk
(:meth:`repro.netsim.host.Host.receive_train`).  There are three kinds:

* :class:`UdpTrain` — a SadDNS TXID flood chunk varies the DNS
  transaction ID (the first payload word) over a fixed port, and a
  SadDNS probe batch varies the destination port over a fixed payload;
* :class:`FragmentTrain` — the spoofed non-first fragments FragDNS
  plants in the resolver's reassembly cache, one per predicted IP ident;
* :class:`IcmpErrorTrain` — the ICMP port-unreachable errors a host
  returns for the packets of a :class:`UdpTrain` that hit closed ports.

Any packet of a train can still be materialised exactly with its
``packet(i)`` — the same bytes, checksums, IP ident and attached
transport object that sending the packets one by one builds — which is
what the per-packet fallback uses.  Because a UDP train's varying field
is one 16-bit word, its UDP checksum is maintained incrementally from
the sum with that word zeroed.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.netsim.addresses import ip_to_int
from repro.netsim.checksum import ones_complement_sum
from repro.netsim.packet import (
    ICMP_DEST_UNREACHABLE,
    ICMP_PORT_UNREACHABLE,
    IPV4_HEADER_LEN,
    MIN_IPV4_MTU,
    PROTO_UDP,
    UDP_HEADER_LEN,
    IcmpMessage,
    Ipv4Packet,
    UdpDatagram,
)
from repro.netsim.wire import encode_ipv4, make_icmp_packet

_UDP_HEADER = struct.Struct("!HHHH")

#: What a port-unreachable error embeds: the offending IP header plus
#: the first 8 payload bytes (its UDP header), as real kernels do.
EMBEDDED_LEN = IPV4_HEADER_LEN + UDP_HEADER_LEN
#: An error's size on the wire: IP header, ICMP header, embedded bytes.
ICMP_ERROR_LEN = IPV4_HEADER_LEN + 8 + EMBEDDED_LEN
# Every path MTU is at least the IPv4 minimum, so an error never
# fragments and an error train needs no fragmentation path.
assert ICMP_ERROR_LEN <= MIN_IPV4_MTU


def _check_16bit(what: str, values) -> None:
    for value in values:
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"{what} out of range: {value}")


def _check_idents(idents: Sequence[int]) -> None:
    if len(idents) == 0:
        raise ValueError("a train needs at least one packet")
    _check_16bit("IP ident", (min(idents), max(idents)))


def _udp_checksum(base_sum: int, word: int) -> int:
    """UDP checksum of a packet whose varying word is ``word``, from the
    folded sum with that word zeroed (0 goes out as 0xFFFF, RFC 768)."""
    total = base_sum + word
    total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF or 0xFFFF


class UdpTrain:
    """``len(idents)`` UDP packets from ``src:sport`` to ``dst``.

    A train varies exactly one field.  A TXID train has one ``dport``
    and overwrites the payload's first two bytes with ``txids[i]`` (a
    ``range``) in packet ``i``; a port train sends the same ``payload``
    to ``dports[i]``.  ``idents`` are the per-packet IP identification
    values.
    """

    __slots__ = ("src", "dst", "sport", "dport", "dports", "template",
                 "txids", "idents", "_base_sum")

    def __init__(self, src: str, dst: str, sport: int, payload: bytes,
                 idents: Sequence[int], dport: int | None = None,
                 dports: Sequence[int] | None = None,
                 txids: range | None = None):
        if txids is not None:
            if dport is None or dports is not None:
                raise ValueError("a TXID train has one fixed dport")
        elif dports is None or dport is not None:
            raise ValueError("give txids with a fixed dport, or dports")
        _check_idents(idents)
        count = len(idents)
        if dports is not None and len(dports) != count:
            raise ValueError(
                f"{len(dports)} dports for {count} packets")
        if txids is not None:
            if len(txids) != count:
                raise ValueError(f"{len(txids)} TXIDs for {count} packets")
            if len(payload) < 2:
                raise ValueError("a TXID train's payload starts with"
                                 " the TXID")
            _check_16bit("TXID", (txids[0], txids[-1]))
        _check_16bit("UDP port",
                     [sport, dport] if dports is None else [sport, *dports])
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.dports = dports
        self.txids = txids
        self.idents = idents
        # The template carries zero in the varying word, so each
        # packet's checksum is the folded base sum plus that word.
        template = bytes(payload)
        if txids is not None:
            template = b"\x00\x00" + template[2:]
        self.template = template
        seg_len = UDP_HEADER_LEN + len(template)
        src_int = ip_to_int(src)
        dst_int = ip_to_int(dst)
        self._base_sum = ones_complement_sum(
            _UDP_HEADER.pack(sport, dport or 0, seg_len, 0) + template,
            (src_int >> 16) + (src_int & 0xFFFF)
            + (dst_int >> 16) + (dst_int & 0xFFFF) + PROTO_UDP + seg_len,
        )

    def __len__(self) -> int:
        return len(self.idents)

    def dport_at(self, i: int) -> int:
        """Destination port of packet ``i``."""
        return self.dport if self.dports is None else self.dports[i]

    def payload(self, i: int) -> bytes:
        """UDP payload bytes of packet ``i``."""
        if self.txids is None:
            return self.template
        txid = self.txids[i]
        return bytes((txid >> 8, txid & 0xFF)) + self.template[2:]

    def index_of(self, txid: int, start: int = 0) -> int | None:
        """Index ``>= start`` of the packet carrying ``txid`` (TXID
        trains; constant time on the ``range``)."""
        if txid not in self.txids:
            return None
        index = self.txids.index(txid)
        return index if index >= start else None

    def word(self, i: int) -> int:
        """The varying word of packet ``i``: its TXID or its dport."""
        return self.txids[i] if self.txids is not None else self.dports[i]

    def packet(self, i: int) -> Ipv4Packet:
        """Materialise packet ``i`` exactly as ``make_udp_packet`` does."""
        checksum = _udp_checksum(self._base_sum, self.word(i))
        payload = self.payload(i)
        dport = self.dport_at(i)
        datagram = UdpDatagram(sport=self.sport, dport=dport,
                               payload=payload)
        segment = _UDP_HEADER.pack(self.sport, dport,
                                   UDP_HEADER_LEN + len(payload),
                                   checksum) + payload
        return Ipv4Packet(src=self.src, dst=self.dst, proto=PROTO_UDP,
                          payload=segment, ident=self.idents[i],
                          udp=datagram)


class FragmentTrain:
    """``len(idents)`` spoofed non-first IP fragments from ``src`` to
    ``dst`` that differ only in the IP ident.

    Packet ``i`` is the UDP fragment carrying ``payload`` at
    ``frag_offset`` (8-byte units, as on the wire) under ``idents[i]``.
    A non-first fragment carries no transport header, so a lone one
    can never complete a datagram: the receiver plants each under its
    reassembly key without building the packet.
    """

    __slots__ = ("src", "dst", "payload", "frag_offset", "mf", "idents")

    def __init__(self, src: str, dst: str, payload: bytes,
                 frag_offset: int, idents: Sequence[int],
                 mf: bool = False):
        if not 1 <= frag_offset <= 0x1FFF:
            raise ValueError(
                f"a fragment train carries non-first fragments; offset"
                f" {frag_offset} is out of 1..8191")
        _check_idents(idents)
        self.src = src
        self.dst = dst
        self.payload = bytes(payload)
        self.frag_offset = frag_offset
        self.mf = mf
        self.idents = idents

    def __len__(self) -> int:
        return len(self.idents)

    def packet(self, i: int) -> Ipv4Packet:
        """Materialise fragment ``i`` as a hand-built raw fragment."""
        return Ipv4Packet(src=self.src, dst=self.dst, proto=PROTO_UDP,
                          payload=self.payload, ident=self.idents[i],
                          mf=self.mf, frag_offset=self.frag_offset)


class IcmpErrorTrain:
    """The ICMP port-unreachable errors a host returns, from ``src``, for
    some packets of one :class:`UdpTrain` (``offending``).

    Error ``i`` carries IP ident ``idents[i]`` and embeds the first
    :data:`EMBEDDED_LEN` bytes of offending packet ``indices[i]``.  The
    train keeps only the header fields the embedded bytes need, plus
    the IP ident and varying word of each offending packet it answers
    (at most one ICMP burst under a rate limit), so it never keeps the
    offending train — possibly a 2^16-packet flood — alive.
    """

    __slots__ = ("src", "dst", "idents", "sport", "_offending_dst",
                 "_dport", "_seg_len", "_base_sum", "_offending_idents",
                 "_words")

    def __init__(self, src: str, offending: UdpTrain,
                 indices: Sequence[int], idents: Sequence[int]):
        if len(indices) != len(idents):
            raise ValueError(
                f"{len(idents)} idents for {len(indices)} errors")
        _check_idents(idents)
        self.src = src
        self.dst = offending.src
        self.idents = idents
        # Every offending packet leaves from the same source port, so
        # every error demultiplexes to the same socket at ``dst``.
        self.sport = offending.sport
        self._offending_dst = offending.dst
        self._dport = offending.dport
        self._seg_len = UDP_HEADER_LEN + len(offending.template)
        self._base_sum = offending._base_sum
        self._offending_idents = [offending.idents[i] for i in indices]
        self._words = [offending.word(i) for i in indices]

    def __len__(self) -> int:
        return len(self.idents)

    def _embedded(self, i: int) -> bytes:
        """The offending header bytes error ``i`` embeds."""
        word = self._words[i]
        dport = self._dport if self._dport is not None else word
        header = _UDP_HEADER.pack(self.sport, dport, self._seg_len,
                                  _udp_checksum(self._base_sum, word))
        # Only the total length of the offending packet reaches the
        # embedded bytes, so the payload past the UDP header is filler.
        offending = Ipv4Packet(
            src=self.dst, dst=self._offending_dst, proto=PROTO_UDP,
            payload=header + bytes(self._seg_len - UDP_HEADER_LEN),
            ident=self._offending_idents[i])
        return encode_ipv4(offending)[:EMBEDDED_LEN]

    def packet(self, i: int) -> Ipv4Packet:
        """Materialise error ``i`` exactly as the host sends one alone."""
        return make_icmp_packet(
            src=self.src, dst=self.dst,
            message=IcmpMessage(icmp_type=ICMP_DEST_UNREACHABLE,
                                code=ICMP_PORT_UNREACHABLE,
                                embedded=self._embedded(i)),
            ident=self.idents[i])


#: Any of the train kinds the fabric carries as one event.
Train = UdpTrain | FragmentTrain | IcmpErrorTrain
