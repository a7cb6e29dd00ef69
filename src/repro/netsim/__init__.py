"""The ship's network and DCOM substitute.

"Communication among the DC's and the PDME is done using DCOM."  We
have no Windows; what the architecture actually relies on is an RPC
boundary over an unreliable shipboard network.  This package provides a
discrete-event simulation kernel, link models with latency, jitter,
drop and reordering, a byte-level transport, and an RPC façade with
timeouts and retries — enough to exercise §4.9's "power supply and
communications ... may not be the same on board the ships" scenarios.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.netsim.kernel": ["EventKernel"],
    "repro.netsim.network": ["Link", "LinkConfig", "Network"],
    "repro.netsim.rpc": ["RpcEndpoint", "RpcError"],
    "repro.netsim.transport": ["decode_message", "encode_message"],
})
