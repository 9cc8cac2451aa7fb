#!/usr/bin/env python3
"""Why selfish and colluding nodes fail against AVMON.

Demonstrates the paper's adversary model end to end:

1. a selfish node tries to report colluders as its monitors -> caught by
   the consistency-condition check (verifiability);
2. colluding monitors overreport availability -> diluted by random monitor
   selection, quantified like Figure 20;
3. contrast with the self-reporting baseline, where lying is undetectable.
"""

from repro.baselines.self_report import SelfReportScheme
from repro.core.reporting import audit_subject, verify_monitor_report
from repro.experiments.runner import run_simulation
from repro.experiments.scenarios import scenario


def main() -> None:
    # Fast churn (10-minute mean sessions) so true availabilities sit near
    # 0.5 and an overreported "100% available" is a visible lie.
    config = scenario(
        "SYNTH", 80, "test", seed=9,
        overreport_fraction=0.2, churn_per_hour=6.0,
    )
    print("running SYNTH (10-min sessions) with 20% of nodes overreporting "
          "their targets' availability")
    result = run_simulation(config)
    condition = result.cluster.relation.condition

    # --- 1. forged monitor reports are caught -----------------------------
    subject = next(
        node for node in result.cluster.nodes.values() if len(node.ps) >= 1
    )
    accomplice = next(
        u for u in range(10_000) if u != subject.id and not condition.holds(u, subject.id)
    )
    forged = tuple(subject.ps)[:1] + (accomplice,)
    verdict = verify_monitor_report(condition, subject.id, forged, min_monitors=2)
    print(f"\nnode {subject.id} reports monitors {forged} "
          f"(last one is an accomplice):")
    print(f"  accepted: {verdict.accepted}, rejected: {verdict.rejected}, "
          f"policy satisfied: {verdict.satisfied}")

    # --- 2. colluding monitors get averaged away -------------------------
    affected = result.summary().fraction_affected(threshold=0.2)
    audits = result.availability_audit(control_only=False, alive_only=True)
    print(f"\noverreporting attack (Figure 20's metric):")
    print(f"  {len(audits)} live nodes audited; fraction with availability "
          f"error > 0.2: {affected:.3f}")

    # A full audit of one node: only verified monitors contribute.
    node_id, (estimate, truth) = sorted(audits.items())[0]
    node = result.cluster.nodes[node_id]
    reports = {}
    for monitor_id in list(node.ps):
        monitor = result.cluster.nodes.get(monitor_id)
        if monitor is not None and monitor.store.get(node_id) is not None:
            reports[monitor_id] = monitor.availability_report(node_id)
    if reports:
        _, aggregate = audit_subject(
            condition, node_id, list(reports), reports, min_monitors=1
        )
        print(f"  node {node_id}: verified-monitor aggregate {aggregate:.2f}, "
              f"true uptime {truth:.2f}")

    # --- 3. the self-reporting strawman (same 20% liar fraction) ----------
    actual = {n: truth for n, (_, truth) in audits.items()}
    liars = set(sorted(actual)[: len(actual) // 5])
    outcome = SelfReportScheme().evaluate(actual, liars)
    print(f"\nself-reporting baseline with the same liar fraction:")
    print(f"  nodes with error > 0.2: "
          f"{outcome.nodes_with_error_above(0.2)} of {len(actual)} "
          f"(every lie sticks - nothing to verify against)")


if __name__ == "__main__":
    main()
