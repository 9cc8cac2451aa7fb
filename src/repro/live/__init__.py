"""Live runtime: real AVMON overlays over UDP on real clocks.

The discrete-event simulator exercises :class:`~repro.core.node.AvmonNode`
against virtual time and a modelled network.  This package is the second
:class:`~repro.core.node.NodeRuntime` implementation — the production-shaped
one: every node is an asyncio process with a UDP socket, timers run on the
wall clock, datagrams really traverse the loopback (or, by config, a LAN),
and churn is injected by killing and restarting OS processes.

Layers, bottom up:

* :mod:`repro.live.codec` — versioned, deterministic wire encoding for
  every protocol message in :data:`repro.core.messages.MESSAGE_TYPES`;
* :mod:`repro.live.control` — the control-plane message set (introducer
  registration, directories, status scraping, chaos/shutdown);
* :mod:`repro.live.transport` — an asyncio UDP endpoint that decodes,
  counts and dispatches datagrams (malformed input is dropped, never fatal);
* :mod:`repro.live.introducer` — the bootstrap service: registration,
  heartbeat-based aliveness and the peer directory;
* :mod:`repro.live.runtime` — :class:`LiveRuntime` (the ``NodeRuntime``
  over UDP + wall clock) and :class:`LiveNode` (one full protocol node:
  transport, timers, periodic ticks, persistent state, status reporting);
* :mod:`repro.live.node_main` — ``python -m repro.live.node_main``, the
  entry point the supervisor spawns one OS process per node from;
* :mod:`repro.live.supervisor` — the one orchestration loop, on either
  fabric: boots an overlay, injects churn through any registered ``churn``
  component, scrapes per-node metrics into the standard
  :class:`~repro.experiments.summary.SimulationSummary`, and persists it
  to a :class:`~repro.experiments.store.SummaryStore`.

* :mod:`repro.live.faults` — declarative, seeded
  :class:`~repro.live.faults.FaultPlan` fault injection (loss, latency,
  jitter, duplication, reordering, timed partitions) shared by every
  fabric;
* :mod:`repro.live.memory_transport` — a deterministic in-process
  transport and the virtual-clock memory fabric the supervisor also runs
  on, so the whole stack runs in pytest without sockets or subprocesses.

The CLI front end is ``avmon live up|status|chaos|down``.
"""

import importlib

# Exports resolve lazily (PEP 562): the simulation layer imports
# ``repro.live.faults`` at module scope, and an eager supervisor import
# here would close a cycle back through ``repro.experiments``.
_EXPORTS = {
    "CodecError": "codec",
    "WIRE_VERSION": "codec",
    "decode": "codec",
    "encode": "codec",
    "wire_types": "codec",
    "FaultInjector": "faults",
    "FaultPlan": "faults",
    "LiveNode": "runtime",
    "LiveRuntime": "runtime",
    "MemoryNetwork": "memory_transport",
    "MemoryTransport": "memory_transport",
    "run_memory_overlay": "memory_transport",
    "LiveConfig": "supervisor",
    "LiveReport": "supervisor",
    "live_config_key": "supervisor",
    "run_live": "supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: resolve each export once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
