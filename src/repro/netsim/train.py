"""UDP packet trains: a run of spoofed packets that travels as one event.

The off-path volume attacks send long runs of UDP packets that are
identical except for one 16-bit field: a SadDNS TXID flood varies the
DNS transaction ID (the first payload word) over a fixed port, and a
SadDNS probe batch varies the destination port over a fixed payload.
A :class:`UdpTrain` carries such a run through the fabric as a single
scheduler event (see :meth:`repro.netsim.network.Network.transmit_train`)
and the receiving host settles it in bulk
(:meth:`repro.netsim.host.Host.receive_train`).

Any packet of the train can still be materialised exactly with
:meth:`UdpTrain.packet` — the same segment bytes, UDP checksum, IP ident
and attached :class:`UdpDatagram` that
:func:`repro.netsim.wire.make_udp_packet` builds — which is what the
per-packet fallback and the ICMP errors (they embed the offending
header) use.  Because the varying field is one 16-bit word, the UDP
checksum is maintained incrementally from the sum with that word zeroed.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.netsim.addresses import ip_to_int
from repro.netsim.checksum import ones_complement_sum
from repro.netsim.packet import (
    PROTO_UDP,
    UDP_HEADER_LEN,
    Ipv4Packet,
    UdpDatagram,
)

_UDP_HEADER = struct.Struct("!HHHH")


def _check_16bit(what: str, values) -> None:
    for value in values:
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"{what} out of range: {value}")


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
        count = len(idents)
        if count == 0:
            raise ValueError("a train needs at least one packet")
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
        _check_16bit("IP ident", (min(idents), max(idents)))
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

    def packet(self, i: int) -> Ipv4Packet:
        """Materialise packet ``i`` exactly as ``make_udp_packet`` does."""
        word = self.txids[i] if self.txids is not None else self.dports[i]
        total = self._base_sum + word
        total = (total & 0xFFFF) + (total >> 16)
        checksum = (~total) & 0xFFFF
        if checksum == 0:
            checksum = 0xFFFF
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
