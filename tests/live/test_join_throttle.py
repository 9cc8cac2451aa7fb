"""Regression: a rejoin into a converged overlay must not storm JOINs.

Figure 1's weight rule only decrements when a recipient *adds* the origin
to its coarse view, so once an origin is in every CV a residual JOIN
forwards forever.  The simulator's modelled per-hop latency bounds that
loop; zero-latency localhost UDP does not (measured >100k JOIN datagrams
in 3 s on 6 nodes before the per-origin admission budget existed).
"""

from __future__ import annotations

import asyncio
import collections

from repro.core.config import AvmonConfig
from repro.core.messages import Join
from repro.live.introducer import Introducer
from repro.live.runtime import LiveNode, LiveNodeSpec


def test_converged_rejoin_join_traffic_is_bounded():
    join_count = collections.Counter()

    async def scenario():
        introducer = Introducer(ttl=2.0)
        addr = await introducer.start()
        nodes = []
        try:
            for i in range(6):
                spec = LiveNodeSpec(
                    node=i,
                    introducer_host=addr[0],
                    introducer_port=addr[1],
                    avmon=AvmonConfig(
                        n_expected=6,
                        k=2,
                        cvs=6,  # >= population: every CV saturates
                        protocol_period=0.2,
                        monitoring_period=0.2,
                        ping_timeout=0.08,
                        forgetful_tau=0.5,
                    ),
                    heartbeat_interval=0.1,
                    directory_interval=0.2,
                    snapshot_interval=0.0,
                    seed=3,
                )
                node = LiveNode(spec)
                inner = node._handle

                def spy(message, source, inner=inner):
                    if isinstance(message, Join):
                        join_count["joins"] += 1
                    inner(message, source)

                node._handle = spy  # transports bind the attribute at start
                await node.start()
                nodes.append(node)
            await asyncio.sleep(1.5)  # converge
            join_count.clear()
            nodes[0].node.begin_join()  # full-weight JOIN into saturated CVs
            await asyncio.sleep(1.5)
            # Unthrottled, this exceeds 50k in the window; a legitimate
            # join tree is a few dozen datagrams overlay-wide.
            assert join_count["joins"] < 500, join_count["joins"]
            # The budget engaged rather than the storm never forming.
            assert sum(n.joins_throttled for n in nodes) > 0
        finally:
            for node in nodes:
                await node.stop(graceful=False)
            introducer.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
