"""One live deployment (:class:`LiveConfig`) and its store key.

:meth:`LiveConfig.avmon` is the one :class:`~repro.core.config.AvmonConfig`
every node of the deployment runs (it travels in each
:class:`~repro.live.runtime.LiveNodeSpec`).  It is validated when the
config is built, so a bad K or ping timeout fails before anything spawns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.config import AvmonConfig
from ..core.hashing import NodeId
from ..registry import canonical_name, create
from .faults import FaultPlan
from .runtime import LiveNodeSpec
from .transport import Address

__all__ = ["LiveConfig", "live_config_key"]


@dataclass
class LiveConfig:
    """One live deployment, declaratively (JSON-portable)."""

    nodes: int = 8
    duration: float = 20.0
    seed: int = 1
    #: Consistent parameters; None -> the paper's defaults for ``nodes``.
    k: Optional[int] = None
    cvs: Optional[int] = None
    #: Live runs compress the paper's 60 s periods to wall-clock seconds.
    protocol_period: float = 1.0
    monitoring_period: float = 1.0
    ping_timeout: float = 0.25
    forgetful_tau: float = 2.0
    forgetful_c: float = 1.0
    enable_forgetful: bool = True
    #: PR2 (Section 5.4) defaults ON for live deployments: a node whose
    #: boot-time join tree under-seeded its in-degree (or whose CV entries
    #: all churned away) refreshes itself back into its neighbours' views —
    #: the paper's own remedy for exactly the decay real clocks and real
    #: packet loss produce.
    enable_pr2: bool = True
    hash_algorithm: str = "md5"
    #: Churn component key (the PR-1 registry) driving process churn.
    churn: str = "STAT"
    churn_per_hour: float = 0.2
    birth_death_per_day: float = 0.2
    #: One-shot chaos: SIGKILL a random node this many seconds in.
    crash_after: Optional[float] = None
    crash_downtime: float = 3.0
    host: str = "127.0.0.1"
    #: Operator control endpoint; 0 binds an ephemeral port, -1 disables.
    control_port: int = 0
    #: HTTP availability-serving port; 0 binds an ephemeral port, None
    #: (the default) runs the overlay without a serving front end.
    serve_port: Optional[int] = None
    sample_interval: float = 2.0
    heartbeat_interval: float = 0.5
    introducer_ttl: float = 2.5
    #: Bootstrap quorum size: introducer replicas to spawn.  Nodes learn
    #: every replica's address and fail over on silence; replicas
    #: anti-entropy-sync their directories (``IntroducerSync``).
    introducers: int = 1
    #: Replica-to-replica directory sync period, seconds.
    introducer_sync_interval: float = 1.0
    #: One-shot HA chaos: kill the primary introducer this many seconds
    #: in (requires ``introducers`` >= 2; never kills the last replica).
    kill_introducer_after: Optional[float] = None
    #: Node state files live here; empty -> a run-scoped temp directory.
    #: Process fabric only: the memory fabric keeps the same JSON in memory.
    state_dir: str = ""
    #: Fault component key (registry kind ``fault``) shaping the network.
    fault: str = "NONE"
    #: Overrides for the fault component's factory (e.g. ``loss=0.25``).
    fault_params: Dict[str, Any] = field(default_factory=dict)
    label: str = "LIVE"

    def __post_init__(self) -> None:
        self.avmon()  # N, K, cvs, periods and timeouts: one validation
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.crash_after is not None and not (
            0.0 < self.crash_after < self.duration
        ):
            raise ValueError(
                f"crash_after must fall inside the run "
                f"(0, {self.duration}), got {self.crash_after}"
            )
        if self.introducers < 1:
            raise ValueError(
                f"introducers must be >= 1, got {self.introducers}"
            )
        if self.kill_introducer_after is not None:
            if self.introducers < 2:
                raise ValueError(
                    "kill_introducer_after needs a bootstrap quorum "
                    f"(introducers >= 2), got {self.introducers}"
                )
            if not 0.0 < self.kill_introducer_after < self.duration:
                raise ValueError(
                    f"kill_introducer_after must fall inside the run "
                    f"(0, {self.duration}), got {self.kill_introducer_after}"
                )

    def avmon(self) -> AvmonConfig:
        """The AVMON parameters every node of this deployment runs."""
        consistent = {
            name: value
            for name, value in (("k", self.k), ("cvs", self.cvs))
            if value is not None
        }
        return AvmonConfig.paper_defaults(
            self.nodes,
            protocol_period=self.protocol_period,
            monitoring_period=self.monitoring_period,
            ping_timeout=self.ping_timeout,
            forgetful_tau=self.forgetful_tau,
            forgetful_c=self.forgetful_c,
            enable_forgetful=self.enable_forgetful,
            enable_pr2=self.enable_pr2,
            hash_algorithm=self.hash_algorithm,
            **consistent,
        )

    def resolved_k(self) -> int:
        return self.avmon().k

    def resolved_cvs(self) -> int:
        return self.avmon().cvs

    def resolved_fault_plan(self) -> FaultPlan:
        """The :class:`~repro.live.faults.FaultPlan` this deployment runs
        under, built through the ``fault`` component registry."""
        params = dict(self.fault_params)
        params.setdefault("seed", self.seed)
        return create("fault", self.fault, **params)

    def node_spec(
        self,
        node: NodeId,
        introducer: Address,
        *,
        epoch: float,
        state_file: str,
        host: str,
        introducers: Sequence[Address] = (),
    ) -> LiveNodeSpec:
        return LiveNodeSpec(
            node=node,
            introducer_host=introducer[0],
            introducer_port=introducer[1],
            avmon=self.avmon(),
            seed=self.seed,
            host=host,
            epoch=epoch,
            heartbeat_interval=self.heartbeat_interval,
            directory_interval=max(
                self.heartbeat_interval, self.protocol_period / 2.0
            ),
            snapshot_interval=self.protocol_period,
            state_file=state_file,
            introducers=tuple(introducers),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def live_config_key(
    config: LiveConfig, *, plan: Optional[FaultPlan] = None
) -> Tuple:
    """The structural identity of a live deployment, store-addressable.

    Unlike simulation keys this does not promise byte-identical summaries
    — wall clocks and real packet loss are not replayable — so the store
    holds the *latest* run of each distinct deployment (re-running a
    deployment overwrites its cell, exactly what a monitoring dashboard
    wants).

    *plan* overrides the config's own fault component — the in-memory
    harness accepts an explicit :class:`FaultPlan`, and a faulty run must
    never land in (and clobber) the fault-free deployment's cell.
    """
    key = (
        "LIVE-RUN",
        config.nodes,
        config.duration,
        config.seed,
        config.resolved_k(),
        config.resolved_cvs(),
        config.protocol_period,
        config.monitoring_period,
        config.ping_timeout,
        config.forgetful_tau,
        config.forgetful_c,
        config.enable_forgetful,
        config.enable_pr2,
        config.hash_algorithm,
        canonical_name(config.churn),
        config.churn_per_hour,
        config.birth_death_per_day,
        config.crash_after,
        config.crash_downtime,
    )
    if plan is None:
        plan = config.resolved_fault_plan()
    if not plan.is_null():
        # Appended only for faulty deployments, so every pre-fault store
        # cell keeps its address.
        key = key + (plan.key(),)
    if config.introducers != 1 or config.kill_introducer_after is not None:
        # Same append-only-when-non-default rule: single-introducer
        # deployments (everything that existed before HA) keep their
        # store addresses bit-for-bit.
        key = key + (
            "INTRODUCERS",
            config.introducers,
            config.kill_introducer_after,
        )
    return key
