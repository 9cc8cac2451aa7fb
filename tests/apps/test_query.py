"""Tests of the network-level availability query flow (§3.3)."""

import pytest

from repro.apps.query import QueryClient
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.net.network import SimHost


@pytest.fixture(scope="module")
def system():
    """A warmed-up STAT system plus an attached query client."""
    result = run_simulation(
        SimulationConfig(model="STAT", n=60, duration=2400.0, warmup=600.0, seed=23)
    )
    network = result.network
    condition = result.cluster.relation.condition
    host = SimHost(network, 100_000, result.cluster.source.node_stream(100_000))
    client = QueryClient(100_000, condition, host, min_monitors=1, timeout=10.0)
    host.attach(client)
    host.bring_up()
    return result, client


def run_query(system, subject, **kwargs):
    result, client = system
    sim = result.cluster.sim
    outcome = []
    client.query(subject, outcome.append, **kwargs)
    sim.run_until(sim.now + 30.0)
    assert len(outcome) == 1
    return outcome[0]


class TestQueryFlow:
    def test_successful_query(self, system):
        result, _ = system
        subject = next(
            node.id
            for node in result.cluster.nodes.values()
            if node.ps and result.network.is_alive(node.id)
        )
        query_result = run_query(system, subject)
        assert query_result.policy_satisfied
        assert query_result.complete
        assert query_result.verified_monitors
        assert not query_result.rejected_monitors
        # STAT network: the subject was up the whole time.
        assert query_result.availability > 0.9

    def test_reports_come_from_monitors(self, system):
        result, _ = system
        subject = next(
            node.id
            for node in result.cluster.nodes.values()
            if len(node.ps) >= 2 and result.network.is_alive(node.id)
        )
        query_result = run_query(system, subject)
        condition = result.cluster.relation.condition
        for monitor in query_result.reports:
            assert condition.holds(monitor, subject)

    def test_query_to_down_subject_times_out_empty(self, system):
        result, client = system
        sim = result.cluster.sim
        victim = next(
            node.id
            for node in result.cluster.nodes.values()
            if result.network.is_alive(node.id) and node.id not in client.pending_subjects()
        )
        result.cluster.take_down(victim)
        outcome = []
        client.query(victim, outcome.append)
        sim.run_until(sim.now + 30.0)
        assert len(outcome) == 1
        assert not outcome[0].policy_satisfied
        assert outcome[0].reports == {}
        result.cluster.bring_up(victim)

    def test_duplicate_query_rejected(self, system):
        result, client = system
        client.query(999_999, lambda _: None)
        with pytest.raises(ValueError):
            client.query(999_999, lambda _: None)
        result.cluster.sim.run_until(result.cluster.sim.now + 30.0)

    def test_invalid_parameters(self, system):
        result, _ = system
        condition = result.cluster.relation.condition
        host = result.network.host(100_000)
        with pytest.raises(ValueError):
            QueryClient(1, condition, host, min_monitors=0)
        with pytest.raises(ValueError):
            QueryClient(1, condition, host, timeout=0.0)
        with pytest.raises(ValueError):
            QueryClient(1, condition, host, report_retries=-1)
        client = QueryClient(1, condition, host)
        with pytest.raises(ValueError):
            client.query(5, lambda _: None, min_monitors=0)
        with pytest.raises(ValueError):
            client.query(5, lambda _: None, timeout=-1.0)


class TestDeadlinesAndPartialResults:
    def _alive_subject(self, system, min_ps=1):
        result, client = system
        return next(
            node.id
            for node in result.cluster.nodes.values()
            if len(node.ps) >= min_ps
            and result.network.is_alive(node.id)
            and node.id not in client.pending_subjects()
        )

    def test_per_request_min_monitors_override(self, system):
        subject = self._alive_subject(system, min_ps=2)
        query_result = run_query(system, subject, min_monitors=2)
        # Whether or not the policy is satisfiable with l=2, the request
        # must carry the override: either >=2 verified monitors, or the
        # policy honestly reported unsatisfied.
        if query_result.policy_satisfied:
            assert len(query_result.verified_monitors) >= 2

    def test_down_subject_marks_timeout(self, system):
        result, client = system
        sim = result.cluster.sim
        victim = self._alive_subject(system)
        result.cluster.take_down(victim)
        outcome = []
        client.query(victim, outcome.append, timeout=5.0)
        sim.run_until(sim.now + 6.0)
        assert len(outcome) == 1
        assert outcome[0].timed_out
        assert outcome[0].monitors_queried == 0
        assert outcome[0].monitors_answered == 0
        result.cluster.bring_up(victim)

    def test_back_to_back_queries_keep_their_own_timers(self, system):
        """Timers of a query that finished early are dead: neither its
        deadline nor its report retries may act on a later query for the
        same subject."""
        from repro.core.messages import ReportRequest

        result, client = system
        sim = result.cluster.sim
        subject = self._alive_subject(system)
        first = []
        client.query(subject, first.append, timeout=9.0)  # retries at +3, +6
        sim.run_until(sim.now + 2.0)
        assert len(first) == 1 and not first[0].timed_out
        # The second query loses its ReportRequest and recovers on its own
        # retry at +2+4; the first's timers fire meanwhile at +3, +6, +9.
        real_send = client.runtime.send
        requests = []

        def lossy_send(target, message):
            if isinstance(message, ReportRequest):
                requests.append(message)
                if len(requests) == 1:
                    return
            real_send(target, message)

        client.runtime.send = lossy_send
        try:
            second = []
            client.query(subject, second.append, timeout=12.0)
            sim.run_until(sim.now + 3.0)  # past the first's +3 retry
            assert len(requests) == 1 and not second
            sim.run_until(sim.now + 11.0)
        finally:
            client.runtime.send = real_send
        assert len(requests) == 2
        assert len(second) == 1
        assert second[0].complete and not second[0].timed_out

    def test_partial_result_when_monitors_die_mid_query(self, system):
        result, client = system
        sim = result.cluster.sim
        subject_node = next(
            node
            for node in result.cluster.nodes.values()
            if len(node.ps) >= 2
            and result.network.is_alive(node.id)
            and node.id not in client.pending_subjects()
        )
        # Take the subject's whole monitor set down: the report phase
        # still verifies (the subject itself answers), but no history
        # reply can arrive — the query must finish at the deadline with
        # an honest partial (here: empty) aggregate, not stall forever.
        casualties = [
            monitor
            for monitor in subject_node.ps
            if result.network.is_alive(monitor)
        ]
        assert casualties, "test premise: subject has alive monitors"
        for monitor in casualties:
            result.cluster.take_down(monitor)
        try:
            outcome = []
            client.query(
                subject_node.id, outcome.append, min_monitors=2, timeout=5.0
            )
            sim.run_until(sim.now + 6.0)
            assert len(outcome) == 1
            partial = outcome[0]
            assert partial.timed_out
            assert not partial.complete
            assert partial.verified_monitors
            assert partial.monitors_queried == len(partial.verified_monitors)
            assert partial.monitors_answered < partial.monitors_queried
        finally:
            for monitor in casualties:
                result.cluster.bring_up(monitor)

    @pytest.mark.parametrize("claim", [1.5, -0.25, float("nan"), float("inf")])
    def test_out_of_range_report_is_ignored_like_an_unasked_one(
        self, system, claim
    ):
        result, client = system
        sim = result.cluster.sim
        subject_node = next(
            node
            for node in result.cluster.nodes.values()
            if len(node.ps) >= 2
            and all(result.network.is_alive(m) for m in node.ps)
            and result.network.is_alive(node.id)
            and node.id not in client.pending_subjects()
        )
        liar = result.cluster.nodes[min(subject_node.ps)]
        liar.availability_report = lambda target: claim
        try:
            outcome = []
            client.query(
                subject_node.id,
                outcome.append,
                min_monitors=len(subject_node.ps),
                timeout=5.0,
            )
            sim.run_until(sim.now + 6.0)
        finally:
            del liar.availability_report
        (partial,) = outcome
        assert liar.id in partial.verified_monitors
        assert liar.id not in partial.reports
        assert partial.timed_out and not partial.complete
        assert partial.monitors_answered == partial.monitors_queried - 1
        assert 0.0 <= partial.availability <= 1.0

    def test_fetch_monitors_skips_history_phase(self, system):
        subject = self._alive_subject(system)
        result, client = system
        sim = result.cluster.sim
        outcome = []
        client.fetch_monitors(subject, outcome.append)
        sim.run_until(sim.now + 30.0)
        assert len(outcome) == 1
        fetched = outcome[0]
        assert fetched.verified_monitors
        assert fetched.reports == {}
        assert fetched.monitors_queried == 0
        assert not fetched.timed_out

    def test_report_retry_recovers_lost_request(self, system):
        result, client = system
        sim = result.cluster.sim
        subject = self._alive_subject(system)
        # Swallow the first ReportRequest; the in-deadline retry must
        # still complete the query.
        real_send = client.runtime.send
        dropped = []

        def lossy_send(target, message):
            from repro.core.messages import ReportRequest

            if isinstance(message, ReportRequest) and not dropped:
                dropped.append(message)
                return
            real_send(target, message)

        client.runtime.send = lossy_send
        try:
            outcome = []
            client.query(subject, outcome.append, timeout=8.0)
            sim.run_until(sim.now + 10.0)
        finally:
            client.runtime.send = real_send
        assert dropped, "test premise: first request was dropped"
        assert len(outcome) == 1
        assert outcome[0].policy_satisfied
        assert not outcome[0].timed_out
