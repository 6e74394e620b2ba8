"""Byte-accurate IPv4/UDP/ICMP substrate with simulated hosts and links.

This package is the "operating system and wire" of the reproduction.  The
three attack methodologies in the paper manipulate concrete kernel
mechanisms — the global ICMP rate limit (SadDNS), the IP defragmentation
cache and UDP checksum (FragDNS) and plain spoofed delivery (HijackDNS) —
so those mechanisms are implemented here for real, over real byte
encodings, with the same constants the paper exploits (50 ICMP errors per
second, 64-slot reassembly cache, 68-byte minimum MTU, 16-bit IP-ID).
"""

from repro.netsim.addresses import int_to_ip, ip_in_prefix, ip_to_int
from repro.netsim.checksum import internet_checksum, udp_checksum
from repro.netsim.fragmentation import ReassemblyCache, fragment_packet
from repro.netsim.host import Host, UdpSocket
from repro.netsim.ipid import (
    GlobalCounterIPID,
    IPIDAllocator,
    PerDestinationIPID,
    RandomIPID,
)
from repro.netsim.network import Network
from repro.netsim.packet import (
    ICMP_DEST_UNREACHABLE,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_FRAG_NEEDED,
    ICMP_PORT_UNREACHABLE,
    PROTO_ICMP,
    PROTO_UDP,
    IcmpMessage,
    Ipv4Packet,
    UdpDatagram,
)
from repro.netsim.ratelimit import TokenBucket
from repro.netsim.train import FragmentTrain, IcmpErrorTrain, UdpTrain
from repro.netsim.wire import (
    decode_ipv4,
    decode_udp_payload,
    encode_ipv4,
    encode_udp,
)

__all__ = [
    "FragmentTrain",
    "GlobalCounterIPID",
    "Host",
    "ICMP_DEST_UNREACHABLE",
    "ICMP_ECHO_REPLY",
    "ICMP_ECHO_REQUEST",
    "ICMP_FRAG_NEEDED",
    "ICMP_PORT_UNREACHABLE",
    "IPIDAllocator",
    "IcmpErrorTrain",
    "IcmpMessage",
    "Ipv4Packet",
    "Network",
    "PROTO_ICMP",
    "PROTO_UDP",
    "PerDestinationIPID",
    "RandomIPID",
    "ReassemblyCache",
    "TokenBucket",
    "UdpDatagram",
    "UdpSocket",
    "UdpTrain",
    "decode_ipv4",
    "decode_udp_payload",
    "encode_ipv4",
    "encode_udp",
    "fragment_packet",
    "int_to_ip",
    "internet_checksum",
    "ip_in_prefix",
    "ip_to_int",
    "udp_checksum",
]
