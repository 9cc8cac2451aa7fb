"""End-to-end serving tests over the in-memory fabric (virtual clock).

Each test boots a real overlay (`MemoryOverlay`: real introducer, real
``LiveNode`` instances, bytes through the codec), attaches the serving
surface via its ``workload`` hook, and drives requests through the actual
HTTP parse path with :class:`~repro.serve.http.MemoryHttpClient` — no
sockets, deterministic for a fixed seed.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import pytest

from repro.live.memory_transport import MemoryOverlay
from repro.live.supervisor import LiveConfig
from repro.serve.backend import memory_backend
from repro.serve.http import MemoryHttpClient
from repro.serve.service import UNMATCHED_ROUTE, AvailabilityService, ServeConfig


def run_serve(body, *, nodes=12, duration=20.0, seed=7, settle=10.0,
              serve_config=None, prepare=None, **live):
    """Boot an overlay, attach a service, run *body(overlay, service, http)*.

    *prepare(overlay)* runs after the settle sleep, before the backend
    starts — the hook tests use to sabotage a node.
    """

    async def workload(overlay):
        await asyncio.sleep(settle)  # let monitors discover their targets
        if prepare is not None:
            prepare(overlay)
        backend = memory_backend(overlay)
        await backend.start()
        service = AvailabilityService(
            backend,
            serve_config if serve_config is not None else ServeConfig(),
            clock=asyncio.get_running_loop().time,
        )
        http = MemoryHttpClient(service)
        try:
            return await body(overlay, service, http)
        finally:
            await backend.close()

    overlay = MemoryOverlay(
        LiveConfig(nodes=nodes, duration=duration, seed=seed, **live),
        workload=workload,
    )
    overlay.run()
    return overlay.workload_result


class TestVerifiedFlow:
    def test_availability_end_to_end(self):
        async def body(overlay, service, http):
            status, payload, _ = await http.get("/availability/3?l=1")
            return overlay.condition, status, payload

        condition, status, payload = run_serve(body)
        assert status == 200
        assert payload["policy_satisfied"]
        assert payload["complete"]
        assert not payload["timed_out"]
        assert payload["verified_monitors"]
        assert payload["monitors_answered"] == payload["monitors_queried"]
        assert 0.0 < payload["availability"] <= 1.0
        # Every reporting monitor genuinely satisfies H(m, x) <= K/N.
        for monitor in payload["reports"]:
            assert condition.holds(int(monitor), 3)

    def test_monitors_endpoint_skips_history(self):
        async def body(overlay, service, http):
            status, payload, _ = await http.get("/monitors/5")
            return status, payload

        status, payload = run_serve(body)
        assert status == 200
        assert payload["policy_satisfied"]
        assert payload["verified_monitors"]
        assert "availability" not in payload
        assert "reports" not in payload

    def test_nodes_and_healthz(self):
        async def body(overlay, service, http):
            s1, nodes_payload, _ = await http.get("/nodes")
            s2, health, _ = await http.get("/healthz")
            return s1, nodes_payload, s2, health

        s1, nodes_payload, s2, health = run_serve(body)
        assert s1 == 200
        assert nodes_payload["nodes"] == list(range(12))
        assert s2 == 200
        assert health["status"] == "ok"
        assert health["overlay_nodes"] == 12

    def test_replicate_prefers_high_availability(self):
        async def body(overlay, service, http):
            status, payload, _ = await http.post(
                "/replicate", body={"nodes": [0, 1, 2, 3], "count": 2}
            )
            return status, payload

        status, payload = run_serve(body)
        assert status == 200
        assert len(payload["replicas"]) == 2
        assert payload["policy"] == "highest-availability"
        assert 0.0 <= payload["placement_availability"] <= 1.0
        chosen = {payload["availability"][str(r)] for r in payload["replicas"]}
        others = {
            a
            for n, a in payload["availability"].items()
            if int(n) not in payload["replicas"]
        }
        if others:
            assert min(chosen) >= max(others) - 1e-9


class TestColluderRejection:
    def test_colluder_named_monitors_are_rejected(self):
        subject = 3

        def sabotage(overlay):
            node = overlay.nodes[subject].node
            condition = overlay.condition
            # Ids the subject could plausibly invent that do NOT satisfy
            # the consistency condition for it: classic colluder report.
            colluders = [
                c
                for c in range(200, 400)
                if not condition.holds(c, subject)
            ][:3]
            assert len(colluders) == 3
            genuine = node.report_monitors

            def lying_report(min_monitors):
                return tuple(genuine(min_monitors)) + tuple(colluders)

            node.report_monitors = lying_report

        async def body(overlay, service, http):
            status, payload, _ = await http.get(f"/availability/{subject}")
            _, metrics, _ = await http.get("/metrics")
            return status, payload, metrics

        status, payload, metrics = run_serve(body, prepare=sabotage)
        assert status == 200
        assert len(payload["rejected_monitors"]) == 3
        # The colluders were never asked for history: only verified
        # monitors contribute to the aggregate.
        for rejected in payload["rejected_monitors"]:
            assert str(rejected) not in payload["reports"]
        assert metrics["query"]["monitors_rejected"] == 3


class TestForgedHistory:
    def test_out_of_range_reports_never_reach_the_response_body(self):
        """A *genuine* monitor answering 7.5 — or NaN, which the parent
        codec carried and ``/availability`` then served as the non-JSON
        body ``{"availability": NaN}`` — is treated as silent."""
        subject = 3

        class RawClient(MemoryHttpClient):
            _parse_response = staticmethod(lambda raw: raw)

        def reject_constant(name):
            raise AssertionError(f"{name} in an application/json body")

        def pin_reported_pair(overlay):
            # report_monitors samples its PS with the node's rng, so two
            # queries need not name the same pair: report a fixed genuine
            # pair, so the liars set below are the ones asked.
            node = overlay.nodes[subject].node
            pair = tuple(
                m for m in sorted(node.ps) if overlay.condition.holds(m, subject)
            )[:2]
            node.report_monitors = lambda min_monitors: pair

        async def body(overlay, service, http):
            _, before, _ = await http.get(f"/monitors/{subject}?l=2")
            liars = before["verified_monitors"][:2]
            assert len(liars) == 2
            for liar, claim in zip(liars, (7.5, float("nan"))):
                overlay.nodes[liar].node.availability_report = (
                    lambda target, claim=claim: claim
                )
            raw = await RawClient(service).get(f"/availability/{subject}?l=2")
            return liars, raw, [overlay.nodes[liar] for liar in liars]

        liars, raw, nodes = run_serve(
            body,
            serve_config=ServeConfig(cache_ttl=0.0, query_timeout=1.0),
            prepare=pin_reported_pair,
        )
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        answer = json.loads(payload, parse_constant=reject_constant)
        assert 0.0 <= answer["availability"] <= 1.0
        assert answer["timed_out"] and not answer["complete"]
        assert answer["monitors_queried"] == len(answer["verified_monitors"])
        assert answer["monitors_answered"] == answer["monitors_queried"] - 2
        for liar in liars:
            assert str(liar) not in answer["reports"]
        # 7.5 crossed the wire and was ignored by the query client; NaN
        # never left its node: the codec refused to encode it.
        assert [node.transport.stats.handler_errors for node in nodes] == [0, 1]


class TestTimeoutPaths:
    def test_unknown_subject_times_out_partial(self):
        async def body(overlay, service, http):
            status, payload, _ = await http.get("/availability/999999")
            _, metrics, _ = await http.get("/metrics")
            return status, payload, metrics

        status, payload, metrics = run_serve(body)
        # An unreachable subject is an honest answer, not an error.
        assert status == 200
        assert payload["timed_out"]
        assert not payload["policy_satisfied"]
        assert payload["availability"] == 0.0
        assert payload["monitors_answered"] == 0
        assert metrics["query"]["timed_out"] == 1

    def test_back_to_back_queries_keep_their_own_deadlines(self):
        """A query that finishes early leaves its deadline timer behind;
        it must not cut short the next query for the same subject."""

        async def body(overlay, service, http):
            backend = service.backend
            first = await backend.query(3, l=1, timeout=1.0)
            await asyncio.sleep(0.4)
            # In flight from t+0.8 to t+1.2: spans the first's deadline.
            second = await backend.query(3, l=1, timeout=1.0)
            return first, second

        # 100 ms one-way, no jitter, no loss: a query is four hops, 0.4 s.
        first, second = run_serve(
            body,
            fault="WAN",
            fault_params={"loss": 0.0, "latency": 0.1, "jitter": 0.0},
        )
        assert first.complete and not first.timed_out
        assert second.complete and not second.timed_out
        assert second.monitors_answered == second.monitors_queried > 0

    def test_replicate_reports_incomplete_targets(self):
        async def body(overlay, service, http):
            status, payload, _ = await http.post(
                "/replicate", body={"nodes": [0, 1, 999999], "count": 2}
            )
            return status, payload

        status, payload = run_serve(body)
        assert status == 200
        assert payload["incomplete"] == [999999]
        assert 999999 not in payload["replicas"]


class TestPolicyLayers:
    def test_cache_hits_and_ttl_expiry_on_virtual_clock(self):
        async def body(overlay, service, http):
            await http.get("/availability/2")  # miss
            await http.get("/availability/2")  # hit
            await http.get("/availability/2?l=2")  # different key: miss
            await asyncio.sleep(service.config.cache_ttl + 0.5)
            await http.get("/availability/2")  # expired: miss again
            return service.cache.stats

        stats = run_serve(body)
        assert stats.hits == 1
        assert stats.misses == 3
        assert stats.expirations == 1

    def test_rate_limiter_sheds_with_429_and_zero_5xx(self):
        config = ServeConfig(
            global_rate=5.0,
            global_burst=5.0,
            client_rate=1000.0,
            client_burst=1000.0,
        )

        async def body(overlay, service, http):
            statuses = []
            for _ in range(30):
                status, payload, headers = await http.get("/availability/1")
                statuses.append((status, headers.get("retry-after")))
            _, metrics, _ = await http.get("/metrics")
            return statuses, metrics

        statuses, metrics = run_serve(body, serve_config=config)
        codes = [s for s, _ in statuses]
        assert codes.count(200) >= 5
        assert codes.count(429) >= 20
        assert all(code in (200, 429) for code in codes)
        # Every 429 carried a Retry-After.
        assert all(ra is not None for s, ra in statuses if s == 429)
        assert metrics["totals"]["server_errors"] == 0
        assert metrics["totals"]["rate_limited"] == codes.count(429)

    def test_per_client_buckets_isolate_clients(self):
        config = ServeConfig(
            global_rate=1000.0,
            global_burst=1000.0,
            client_rate=1.0,
            client_burst=2.0,
        )

        async def body(overlay, service, http):
            greedy = []
            for _ in range(5):
                status, payload, _ = await http.get(
                    "/availability/1", headers={"X-Client-Id": "greedy"}
                )
                greedy.append(status)
            polite, _, _ = await http.get(
                "/availability/1", headers={"X-Client-Id": "polite"}
            )
            return greedy, polite

        greedy, polite = run_serve(body, serve_config=config)
        assert greedy[:2] == [200, 200]
        assert set(greedy[2:]) == {429}
        assert polite == 200

    def test_admission_control_sheds_concurrent_overload(self):
        config = ServeConfig(max_concurrency=2, cache_ttl=0.0)

        async def body(overlay, service, http):
            # Fire concurrent *distinct* queries (no cache/coalesce help):
            # beyond 2 in flight, the rest must shed as 429 "overloaded".
            tasks = [
                asyncio.ensure_future(http.get(f"/availability/{n}"))
                for n in range(8)
            ]
            results = await asyncio.gather(*tasks)
            return [status for status, _, _ in results], service.metrics

        codes, metrics = run_serve(body, serve_config=config)
        assert codes.count(429) >= 1
        assert all(code in (200, 429) for code in codes)
        assert metrics.shed_overload == codes.count(429)

    def test_serve_status_reply_projects_metrics(self):
        async def body(overlay, service, http):
            await http.get("/availability/1")
            await http.get("/availability/1")
            await http.get("/availability/bogus")
            return service.serve_status_reply(probe=42)

        reply = run_serve(body)
        assert reply.probe == 42
        assert reply.requests == 3
        assert reply.ok == 2
        assert reply.client_errors == 1
        assert reply.cache_hits == 1
        assert reply.cache_misses == 1
        assert reply.monitors_verified >= 1


class TestDeterminism:
    def test_metrics_byte_identical_across_identical_runs(self):
        """The CI perf-smoke serve gate, in miniature: same seed, same request
        schedule => byte-identical /metrics JSON (latencies included —
        they are virtual-clock measurements)."""

        async def body(overlay, service, http):
            for n in (1, 2, 1, 3, 999999, 2):
                await http.get(f"/availability/{n}")
            await http.get("/monitors/4")
            await http.post(
                "/replicate", body={"nodes": [0, 1, 2], "count": 2}
            )
            _, metrics, _ = await http.get("/metrics")
            return json.dumps(metrics, sort_keys=True)

        first = run_serve(body, seed=11)
        second = run_serve(body, seed=11)
        assert first == second

    def test_metrics_surface_pinned_across_commits(self):
        """SHA-256 of the ``/metrics`` JSON (``sort_keys``) and Prometheus
        text for a fixed seeded WAN schedule. Run-to-run equality (above)
        misses a change that moves every run the same way; these digests
        catch it. Python 3.11 and 3.12 give the same bytes. A deliberate
        change to the serving metrics regenerates them by printing the two
        ``hashlib.sha256(...).hexdigest()`` values from this body."""

        async def body(overlay, service, http):
            clients = iter(range(100))

            async def call(method, target, **kwargs):
                # One client id per call keeps the per-client limiter out
                # of the way; the "greedy" burst below is the 429 case.
                headers = {"X-Client-Id": f"c{next(clients)}"}
                status, _, _ = await http.request(
                    method, target, headers=headers, **kwargs
                )
                return status

            codes = [
                await call("GET", f"/availability/{n}?l=1")
                for n in (1, 2, 1, 3, 2, 5)
            ]
            codes.append(await call("GET", "/availability/abc"))
            codes += [await call("GET", f"/monitors/{n}") for n in (4, 6, 4)]
            codes.append(await call("GET", "/nodes"))
            codes.append(await call("POST", "/predict", body={
                "predictor": "counter",
                "samples": [[0.0, True], [3600.0, False], [7200.0, True]],
            }))
            for _ in range(4):
                status, _, _ = await http.get(
                    "/nodes", headers={"X-Client-Id": "greedy"}
                )
                codes.append(status)
            _, payload, _ = await http.get("/metrics")
            _, text, _ = await http.get("/metrics?format=prometheus")
            return codes, json.dumps(payload, sort_keys=True), text

        codes, metrics_json, prometheus = run_serve(
            body,
            seed=5,
            fault="WAN",
            serve_config=ServeConfig(client_rate=0.5, client_burst=2.0),
        )
        assert codes == [200] * 6 + [400] + [200] * 7 + [429, 429]
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (metrics_json, prometheus)
        )
        assert digests == (
            "563cf36dde6569c951af195afe40692af1b41a7036488d7221d8baa796bc7337",
            "15f8e9cd71bfdf1aa1c8850b546ae3a84f782a2d134f2cb5892f2a735fcf2b41",
        )


class TestRequestValidation:
    def test_bad_inputs_are_4xx_never_5xx(self):
        async def body(overlay, service, http):
            results = {}
            results["bad_id"] = await http.get("/availability/abc")
            results["bad_l"] = await http.get("/availability/1?l=zero")
            results["big_l"] = await http.get("/availability/1?l=9999")
            results["unknown"] = await http.get("/no/such/route")
            results["post_get"] = await http.get("/predict")
            results["no_body"] = await http.post("/predict")
            results["bad_samples"] = await http.post(
                "/predict", body={"predictor": "counter", "samples": []}
            )
            results["bad_policy"] = await http.post(
                "/replicate", body={"nodes": [1], "count": 0}
            )
            results["bool_nodes"] = await http.post(
                "/replicate", body={"nodes": [True], "count": 1}
            )
            _, metrics, _ = await http.get("/metrics")
            return results, metrics

        results, metrics = run_serve(body)
        expectations = {
            "bad_id": 400,
            "bad_l": 400,
            "big_l": 400,
            "unknown": 404,
            "post_get": 404,
            "no_body": 400,
            "bad_samples": 400,
            "bad_policy": 400,
            "bool_nodes": 400,
        }
        for name, expected in expectations.items():
            status, payload, _ = results[name]
            assert status == expected, (name, status, payload)
            assert "error" in payload
        assert metrics["totals"]["server_errors"] == 0

    def test_unmatched_paths_do_not_mint_metrics(self):
        """Client-chosen paths must not set the metrics cardinality: every
        request that matches no route counts under one fixed label."""

        async def body(overlay, service, http):
            await http.get("/nodes")
            await http.get("/metrics")
            before = len(service.metrics.registry.names())
            for index in range(100):
                await http.get(f"/scan/{index}")
                await http.post(f"/availability/{index}")
            _, metrics, _ = await http.get("/metrics")
            return before, len(service.metrics.registry.names()), metrics

        before, after, metrics = run_serve(body)
        # One label's five counters and one latency histogram, at most.
        assert after - before <= 6
        assert set(metrics["endpoints"]) == {"/nodes", "/metrics", UNMATCHED_ROUTE}
        unmatched = metrics["endpoints"][UNMATCHED_ROUTE]
        assert unmatched["requests"] == unmatched["client_errors"] == 200

    def test_predict_periodic(self):
        async def body(overlay, service, http):
            samples = [[hour * 3600.0, hour < 12] for hour in range(24)] * 3
            status, payload, _ = await http.post(
                "/predict",
                body={
                    "predictor": "periodic",
                    "cycle": 86400.0,
                    "buckets": 24,
                    "samples": samples,
                    "at": 6 * 3600.0,
                },
            )
            return status, payload

        status, payload = run_serve(body)
        assert status == 200
        assert payload["prediction_up"] is True
        assert payload["probability_up"] == 1.0
