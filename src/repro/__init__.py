"""repro — reproduction of "A Technical Approach to Net Neutrality" (HotNets 2006).

The package implements the paper's neutralizer service — a stateless
anonymizing box that prevents an ISP from discriminating against packets based
on contents, application types, or non-customer addresses — together with
every substrate the design and its evaluation depend on: a from-scratch crypto
layer (RSA, AES, the stateless key derivation), a packet model with the shim
layer, a discrete-event network simulator with ISPs and anycast routing, DNS
bootstrap with encrypted transport, an IPsec-like end-to-end layer, DiffServ/
IntServ QoS, discriminatory-ISP policy models, an onion-routing baseline, a
pushback DoS defense, and application workloads (VoIP/web/video) used by the
experiments.

Quick start::

    from repro import quickstart_topology  # see examples/quickstart.py

Subpackages
-----------
``repro.core``
    The paper's contribution: neutralizer, key setup, host stacks, anycast
    deployment, multihoming, offloading.
``repro.crypto`` / ``repro.packet`` / ``repro.netsim`` / ``repro.dns`` /
``repro.e2e`` / ``repro.qos`` / ``repro.discrimination``
    Substrates.
``repro.baselines`` / ``repro.defense`` / ``repro.apps`` / ``repro.analysis``
    Baselines (vanilla forwarding, onion routing), pushback, application
    models and the experiment/report harness.
``repro.scale``
    Flow-level (fluid) fleet simulator: client populations as vectorized
    aggregate demand, fleets spread by their own consistent-hash ring, a
    numpy max-min fair capacity solver, a campaign runner sweeping
    10^3–10^6 clients, and cross-validation against the packet-level
    simulator.  It imports numpy and the light leaves (``repro.units``,
    ``repro.packet``, ``repro.analysis.report``); the packet-level
    simulator only inside the functions that drive it (the
    cross-validation's packet arms, ``CryptoCostModel.calibrated``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
