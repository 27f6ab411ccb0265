"""Simulated network substrate.

The paper ran over 100 Mbit switched ethernet and an 11 Mbit/s 802.11b
wireless LAN.  This subpackage provides a deterministic, discrete-event
replacement for that infrastructure:

- :mod:`repro.network.clock` — simulated time source and event scheduler;
- :mod:`repro.network.simnet` — hosts, links (wired and shared wireless),
  routing, unicast/multicast transfers with per-transfer accounting;
- :mod:`repro.network.transport` — message channels: raw binary sockets vs
  SOAP-over-HTTP, including marshalling cost models;
- :mod:`repro.network.faults` — deterministic fault injection: host
  crashes, link flaps, latency spikes, transfer loss, partitions;
- :mod:`repro.network.marshalling` — the Java-style introspection marshaller
  the paper identifies as its bootstrap bottleneck, and the fast binary
  path RAVE uses after "backing off from SOAP".
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.network.clock": ("SimClock", "Simulator", "Ticker"),
    "repro.network.faults": ("FaultEvent", "FaultInjector"),
    "repro.network.simnet": ("Host", "Link", "Network", "TransferRecord",
                             "WirelessCell"),
    "repro.network.transport": ("BinaryChannel", "Channel", "SoapChannel"),
    "repro.network.marshalling": ("BinaryMarshaller",
                                  "IntrospectionMarshaller", "MarshalResult"),
})
