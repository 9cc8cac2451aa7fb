"""Task-lease semantics, on a hand-cranked clock.

The board is the store daemon's coordination brain, and a sweep names
each task by its cell's store key, so the task is the one record of who
is computing a cell.  These tests pin the lifecycle decisions the remote
fleet builds on: leases expire without auto-requeue (a parent owns the
retry), settled tasks refuse duplicate reports but accept expired
stragglers (at-least-once), publishing a live id is a no-op, a retry is
compare-and-set on the attempt, and every event names the publisher of
its attempt.  ``TestSweepRunFollowsOneTask`` drives parents'
``_SweepRun`` against one in-process daemon, and the last class drives
the board through the daemon's HTTP routes; both are socket-free.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.backends.remote import RemoteWorkerBackend, _SweepRun
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.experiments.store import SummaryStore, config_key
from repro.experiments.store_backends import FilesystemBackend
from repro.experiments.store_server import StoreService
from repro.experiments.summary import summarize
from repro.experiments.taskboard import MAX_SETTLED, TaskBoard
from repro.serve.http import MemoryHttpClient


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestTaskBoard:
    def test_publish_claim_done_roundtrip(self):
        board = TaskBoard(Clock())
        board.publish("p:0", "payload0", key="k0.json", lease_ttl=10.0)
        task = board.claim("w1")
        assert (task.id, task.state, task.worker) == ("p:0", "leased", "w1")
        assert board.claim("w2") is None  # board drained
        assert board.done("p:0", "w1", {"persisted": True})
        assert board.stats() == {"done": 1}

    def test_claim_order_is_fifo(self):
        board = TaskBoard(Clock())
        board.publish("p:0", "a")
        board.publish("p:1", "b")
        assert board.claim("w").id == "p:0"
        assert board.claim("w").id == "p:1"

    def test_lease_expiry_needs_parent_republish(self):
        clock = Clock()
        board = TaskBoard(clock)
        board.publish("p:0", "a", lease_ttl=5.0)
        board.claim("w1")
        clock.advance(6.0)
        # Expired, NOT auto-requeued: the parent owns the retry decision.
        assert board.claim("w2") is None
        _, events = board.events_since(0)
        assert [e["kind"] for e in events] == ["claimed", "expired"]
        # The parent republishes with the next attempt; a new worker leases.
        board.publish("p:0", "a", lease_ttl=5.0, attempt=2)
        task = board.claim("w2")
        assert (task.worker, task.attempt) == ("w2", 2)

    def test_beat_extends_and_reports_lost_leases(self):
        clock = Clock()
        board = TaskBoard(clock)
        board.publish("p:0", "a", lease_ttl=5.0)
        board.claim("w1")
        clock.advance(4.0)
        assert board.beat("p:0", "w1")  # extended to t=9
        clock.advance(4.0)
        assert board.beat("p:0", "w1")
        assert not board.beat("p:0", "w2")  # wrong worker
        clock.advance(6.0)
        assert not board.beat("p:0", "w1")  # lapsed

    def test_expired_straggler_done_is_accepted(self):
        clock = Clock()
        board = TaskBoard(clock)
        board.publish("p:0", "a", lease_ttl=5.0)
        board.claim("w1")
        clock.advance(10.0)
        # w1 lost the lease but finished anyway: at-least-once keeps it.
        assert board.done("p:0", "w1", {"persisted": True})
        # A second completion report is refused.
        assert not board.done("p:0", "w2", {"persisted": True})

    def test_done_from_wrong_worker_on_live_lease_refused(self):
        board = TaskBoard(Clock())
        board.publish("p:0", "a")
        board.claim("w1")
        assert not board.done("p:0", "w2", {})
        assert board.done("p:0", "w1", {})

    def test_failed_settles_task(self):
        board = TaskBoard(Clock())
        board.publish("p:0", "a")
        board.claim("w1")
        assert board.failed("p:0", "w1", "boom")
        assert not board.failed("p:0", "w1", "boom again")
        _, events = board.events_since(0)
        assert events[-1]["kind"] == "failed"
        assert events[-1]["error"] == "boom"

    def test_events_drain_by_cursor(self):
        board = TaskBoard(Clock())
        board.publish("a:0", "x")
        board.publish("b:0", "y")
        board.claim("w1")
        cursor, events = board.events_since(0)
        assert [e["task"] for e in events] == ["a:0"]
        board.claim("w2")
        cursor, later = board.events_since(cursor)
        assert [e["task"] for e in later] == ["b:0"]
        assert board.events_since(cursor) == (cursor, [])

    def test_republish_same_id_requeues(self):
        board = TaskBoard(Clock())
        board.publish("p:0", "a")
        board.claim("w1")
        board.publish("p:0", "a", attempt=2)  # idempotent re-queue
        task = board.claim("w2")
        assert (task.id, task.attempt) == ("p:0", 2)

    def test_each_board_has_its_own_epoch(self):
        # A restarted daemon is a new board: parents tell by the epoch.
        assert TaskBoard(Clock()).epoch != TaskBoard(Clock()).epoch


class TestOneTaskPerCell:
    """The contract that lets one task per store key replace cell claims."""

    def test_publishing_a_live_id_is_a_no_op(self):
        board = TaskBoard(Clock())
        board.publish("k.json", "cfg", key="k.json", publisher="A")
        again = board.publish("k.json", "other", key="k.json", publisher="B")
        assert (again.state, again.publisher, again.payload) == (
            "queued", "A", "cfg",
        )
        board.claim("w1")
        again = board.publish("k.json", "cfg", key="k.json", publisher="B")
        assert (again.state, again.worker, again.publisher) == (
            "leased", "w1", "A",
        )
        assert board.claim("w2") is None  # still one task, still w1's
        # A joining parent learns the task's attempt, not its own.
        board.publish("k.json", "cfg", attempt=2, publisher="A")  # retry
        joined = board.publish("k.json", "cfg", attempt=1, publisher="C")
        assert (joined.attempt, joined.publisher) == (2, "A")

    def test_retry_of_an_expiry_is_compare_and_set_on_the_attempt(self):
        clock = Clock()
        board = TaskBoard(clock)
        board.publish("k.json", "cfg", lease_ttl=5.0, publisher="A")
        board.claim("w1")
        clock.advance(6.0)
        board.expire()
        # Same attempt: the expiry is not re-queued behind anyone's back.
        assert board.publish("k.json", "cfg", publisher="B").state == "expired"
        # Two parents saw the one expiry; both retry at attempt 2.
        first = board.publish("k.json", "cfg", attempt=2, publisher="B")
        second = board.publish("k.json", "cfg", attempt=2, publisher="A")
        assert (first.state, second.publisher) == ("queued", "B")
        assert board.claim("w2").attempt == 2
        assert board.claim("w3") is None  # re-queued once, leased once

    def test_settled_ids_still_requeue(self):
        board = TaskBoard(Clock())
        board.publish("unit-0", "payload")  # unkeyed, as avbench drives it
        board.claim("w")
        board.done("unit-0", "w", {"persisted": True})
        again = board.publish("unit-0", "payload", publisher="B")
        assert (again.state, again.attempt, again.publisher) == ("queued", 1, "B")
        board.claim("w")
        board.failed("unit-0", "w", "boom")
        again = board.publish("unit-0", "payload", publisher="C")
        assert (again.state, again.publisher) == ("queued", "C")
        assert board.claim("w").id == "unit-0"

    def test_one_lapsed_lease_among_thousands_of_settled_tasks(self):
        clock = Clock()
        board = TaskBoard(clock)
        for index in range(3000):
            board.publish(f"s{index}", "cfg", lease_ttl=5.0)
            board.claim("w")
            board.done(f"s{index}", "w", {"persisted": True})
        board.publish("k.json", "cfg", lease_ttl=5.0)
        board.claim("w1")
        cursor, _ = board.events_since(0)
        clock.advance(6.0)
        assert board.expire() == 1
        assert board.expire() == 0
        _, events = board.events_since(cursor)
        assert [(e["kind"], e["task"]) for e in events] == [
            ("expired", "k.json"),
        ]
        # Settled tasks stay listed after the lapse.
        assert board.stats() == {"done": 3000, "expired": 1}

    def test_a_long_lived_board_forgets_the_oldest_settled_tasks(self):
        clock = Clock()
        board = TaskBoard(clock)
        board.publish("live.json", "cfg", lease_ttl=1e9)
        board.claim("w0")
        total = 32_000
        for index in range(total):
            board.publish(f"s{index}", "cfg", lease_ttl=5.0)
            board.claim("w")
            if index % 2:
                board.done(f"s{index}", "w", {"persisted": True})
            else:
                board.failed(f"s{index}", "w", "boom")
            clock.advance(0.01)
        half = MAX_SETTLED // 2
        assert board.stats() == {"leased": 1, "done": half, "failed": half}
        kept = {f"s{index}" for index in range(total - MAX_SETTLED, total)}
        assert {task["id"] for task in board.tasks()} == kept | {"live.json"}
        assert board.beat("live.json", "w0")
        # A forgotten id answers as a settled one does.
        for task_id in ("s0", "s1", f"s{total - 1}"):
            assert not board.beat(task_id, "w")
            assert not board.done(task_id, "w")
            assert not board.failed(task_id, "w", "late")
        for task_id in ("s0", f"s{total - 1}"):
            again = board.publish(task_id, "cfg", publisher="B")
            assert (again.state, again.attempt, again.publisher) == ("queued", 1, "B")
        assert [board.claim("w").id, board.claim("w").id] == ["s0", f"s{total - 1}"]
        # Republished, the newest id left the settled list, so the list
        # is one short: the second task settled now is the first to
        # forget the oldest kept one, and neither republished id goes.
        for extra in ("x0", "x1"):
            board.publish(extra, "cfg")
            board.claim("w")
            board.done(extra, "w")
            listed = {task["id"] for task in board.tasks()}
            assert (f"s{total - MAX_SETTLED}" in listed) == (extra == "x0")
        assert {"s0", f"s{total - 1}", "x0", "x1"} <= listed

    def test_a_retry_moves_the_lease_to_its_new_worker(self):
        clock = Clock()
        board = TaskBoard(clock)
        board.publish("k.json", "cfg", lease_ttl=5.0)
        board.claim("w1")  # w1's deadline: t=5
        clock.advance(2.0)
        board.publish("k.json", "cfg", lease_ttl=5.0, attempt=2)
        cursor, _ = board.events_since(0)
        clock.advance(4.0)  # t=6: past w1's deadline, attempt 2 queued
        assert board.expire() == 0
        assert not board.beat("k.json", "w1")
        board.claim("w2")  # w2's deadline: t=11
        clock.advance(4.5)
        assert board.expire() == 0
        clock.advance(1.0)  # t=11.5: past w2's
        _, events = board.events_since(cursor)
        assert [(e["kind"], e["attempt"], e["worker"]) for e in events] == [
            ("claimed", 2, "w2"),
            ("expired", 2, "w2"),
        ]

    def test_every_event_names_its_attempts_publisher(self):
        clock = Clock()
        board = TaskBoard(clock)
        board.publish("k.json", "cfg", lease_ttl=5.0, publisher="A")
        board.claim("w1")
        clock.advance(6.0)
        board.expire()
        board.publish("k.json", "cfg", lease_ttl=5.0, attempt=2, publisher="B")
        board.claim("w2")
        board.done("k.json", "w2", {"persisted": True})
        _, events = board.events_since(0)
        assert [(e["kind"], e["attempt"], e["publisher"]) for e in events] == [
            ("claimed", 1, "A"),
            ("expired", 1, "A"),
            ("claimed", 2, "B"),
            ("done", 2, "B"),
        ]


class Daemon:
    """Sync driver over the daemon's HTTP surface with a test clock."""

    def __init__(self, tmp_path) -> None:
        self.clock = Clock()
        self.service = StoreService(
            FilesystemBackend(tmp_path), clock=self.clock
        )
        self.client = MemoryHttpClient(self.service)

    def call(self, method, target, body=None):
        status, payload, _ = asyncio.run(
            self.client.request(method, target, body=body)
        )
        return status, payload

    def get(self, name):
        """The store read ``_SweepRun`` makes through its coordinator."""
        status, payload = self.call("GET", f"/objects/{name}")
        return payload["text"] if status == 200 else None


class TestTaskRoutesOverHttp:
    def test_publish_claim_beat_done_over_the_wire(self, tmp_path):
        daemon = Daemon(tmp_path)
        status, payload = daemon.call(
            "POST",
            "/tasks",
            {"id": "p:0", "payload": "cGF5bG9hZA==", "key": "k.json",
             "lease_ttl": 5.0},
        )
        assert status == 200
        assert payload["published"]["state"] == "queued"
        status, payload = daemon.call("POST", "/tasks/claim", {"worker": "w"})
        assert status == 200
        assert payload["task"]["id"] == "p:0"
        assert payload["task"]["payload"] == "cGF5bG9hZA=="
        status, _ = daemon.call("POST", "/tasks/p:0/beat", {"worker": "w"})
        assert status == 200
        status, payload = daemon.call(
            "POST", "/tasks/p:0/done", {"worker": "w", "persisted": True}
        )
        assert (status, payload["done"]) == (200, True)
        # Duplicate completion is a 409, not a success.
        status, payload = daemon.call(
            "POST", "/tasks/p:0/done", {"worker": "w", "persisted": True}
        )
        assert (status, payload["done"]) == (409, False)

    def test_beat_after_expiry_is_409(self, tmp_path):
        daemon = Daemon(tmp_path)
        daemon.call(
            "POST", "/tasks", {"id": "p:0", "payload": "x", "lease_ttl": 5.0}
        )
        daemon.call("POST", "/tasks/claim", {"worker": "w"})
        daemon.clock.advance(6.0)
        status, payload = daemon.call(
            "POST", "/tasks/p:0/beat", {"worker": "w"}
        )
        assert (status, payload["leased"]) == (409, False)

    def test_events_drain_by_cursor_with_epoch(self, tmp_path):
        daemon = Daemon(tmp_path)
        daemon.call("POST", "/tasks", {"id": "a:0", "payload": "x"})
        daemon.call("POST", "/tasks", {"id": "b:0", "payload": "y"})
        daemon.call("POST", "/tasks/claim", {"worker": "w"})
        status, payload = daemon.call("GET", "/tasks/events?since=0")
        assert status == 200
        assert [e["task"] for e in payload["events"]] == ["a:0"]
        assert payload["epoch"] == daemon.service.board.epoch
        cursor = payload["cursor"]
        status, payload = daemon.call("GET", f"/tasks/events?since={cursor}")
        assert payload["events"] == []

    def test_empty_board_claim_is_null(self, tmp_path):
        status, payload = Daemon(tmp_path).call(
            "POST", "/tasks/claim", {"worker": "w"}
        )
        assert (status, payload["task"]) == (200, None)

    def test_bad_publish_is_400(self, tmp_path):
        daemon = Daemon(tmp_path)
        status, _ = daemon.call("POST", "/tasks", {"id": "p:0"})
        assert status == 400
        status, _ = daemon.call("POST", "/tasks/claim", {})
        assert status == 400


    def test_bad_lease_fields_are_400(self, tmp_path):
        daemon = Daemon(tmp_path)
        for field, value in (
            ("lease_ttl", "abc"),
            ("lease_ttl", float("nan")),  # json.loads takes NaN
            ("lease_ttl", float("inf")),
            ("lease_ttl", 0),
            ("lease_ttl", -5.0),
            ("lease_ttl", None),
            ("attempt", 0),
            ("attempt", 1.5),
            ("attempt", "2"),
            ("attempt", True),
        ):
            status, payload = daemon.call(
                "POST", "/tasks", {"id": "p:0", "payload": "x", field: value}
            )
            assert status == 400, (field, value, payload)
        assert daemon.service.board.tasks() == []
        # A NaN lease would never lapse; a sane one still does.
        daemon.call("POST", "/tasks", {"id": "p:0", "payload": "x", "lease_ttl": 5})
        daemon.call("POST", "/tasks/claim", {"worker": "w"})
        daemon.clock.advance(1e9)
        assert [t["state"] for t in daemon.service.board.tasks()] == ["expired"]


def _tiny(seed: int = 1) -> SimulationConfig:
    return SimulationConfig(
        model="STAT", n=16, duration=900.0, warmup=300.0, seed=seed
    )


@pytest.fixture(scope="module")
def tiny_summary_json():
    return summarize(run_simulation(_tiny())).to_json()


class Parent:
    """One sweep parent's ``_SweepRun`` against an in-process daemon."""

    def __init__(self, daemon: Daemon, owner: str, configs) -> None:
        self.backend = RemoteWorkerBackend(
            owner=owner, retry_backoff=0.0, lease_ttl=5.0, poll_interval=0.0
        )
        self.records = {}

        def record(index, summary, error, **fields):
            self.records[index] = (summary, error)

        self.run = _SweepRun(
            self.backend, daemon, list(enumerate(configs)), record
        )

    def start(self) -> None:
        """What ``run`` does before its loop: learn the epoch, publish."""
        self.run.drain_events()
        self.run.publish_outstanding()

    @property
    def counts(self) -> dict:
        return self.backend._event_counts


def _work_one(daemon: Daemon, summary_json: str, *, computed=True) -> str:
    """A worker's turn: lease the next task, write through, report done."""
    _, payload = daemon.call("POST", "/tasks/claim", {"worker": "w"})
    task = payload["task"]
    daemon.call("PUT", f"/objects/{task['key']}", {"text": summary_json})
    daemon.call(
        "POST",
        f"/tasks/{task['id']}/done",
        {"worker": "w", "persisted": True, "computed": computed},
    )
    return task["id"]


class TestSweepRunFollowsOneTask:
    """Parents publish one task per store key and follow each other's."""

    def test_only_the_publisher_reports_cell_done(self, tmp_path, tiny_summary_json):
        daemon = Daemon(tmp_path)
        first, second = Parent(daemon, "A", [_tiny()]), Parent(daemon, "B", [_tiny()])
        first.start()
        second.start()  # the key is live: B follows A's task
        assert [t["publisher"] for t in daemon.service.board.tasks()] == ["A"]
        key = _work_one(daemon, tiny_summary_json)
        assert key == SummaryStore.name_for(config_key(_tiny()))
        first.run.drain_events()
        second.run.drain_events()
        assert first.counts.get("fleet.cell_done") == 1
        assert "fleet.cell_adopted" not in first.counts
        assert second.counts.get("fleet.cell_adopted") == 1
        assert "fleet.cell_done" not in second.counts
        for parent in (first, second):
            summary, error = parent.records[0]
            assert (summary.to_json(), error) == (tiny_summary_json, None)
            assert not parent.run.outstanding

    def test_a_store_hit_is_adopted_not_done(self, tmp_path, tiny_summary_json):
        daemon = Daemon(tmp_path)
        parent = Parent(daemon, "A", [_tiny()])
        parent.start()
        _work_one(daemon, tiny_summary_json, computed=False)
        parent.run.drain_events()
        assert parent.counts.get("fleet.cell_adopted") == 1
        assert "fleet.cell_done" not in parent.counts

    def test_one_config_listed_twice_is_one_task(self, tmp_path, tiny_summary_json):
        daemon = Daemon(tmp_path)
        parent = Parent(daemon, "A", [_tiny(), _tiny()])
        parent.start()
        assert len(daemon.service.board.tasks()) == 1
        _work_one(daemon, tiny_summary_json)
        parent.run.drain_events()
        assert sorted(parent.records) == [0, 1]
        assert parent.records[0][0].to_json() == parent.records[1][0].to_json()
        assert not parent.run.outstanding
        assert parent.counts.get("fleet.cell_done") == 1

    def test_a_lost_workers_late_write_is_done_by_its_publisher(
        self, tmp_path, tiny_summary_json
    ):
        daemon = Daemon(tmp_path)
        first, second = Parent(daemon, "A", [_tiny()]), Parent(daemon, "B", [_tiny()])
        first.start()
        second.start()
        _, payload = daemon.call("POST", "/tasks/claim", {"worker": "w1"})
        key = payload["task"]["id"]
        daemon.clock.advance(6.0)  # w1 stalls past its lease
        first.run.drain_events()
        second.run.drain_events()
        second.run.publish_due_retries()  # B's retry wins the attempt
        first.run.publish_due_retries()
        daemon.call("POST", "/tasks/claim", {"worker": "w2"})
        # w1 finishes anyway: its write lands, its report is refused.
        daemon.call("PUT", f"/objects/{key}", {"text": tiny_summary_json})
        status, _ = daemon.call(
            "POST", f"/tasks/{key}/done", {"worker": "w1", "persisted": True}
        )
        assert status == 409
        # w2 finds the store hit.
        daemon.call(
            "POST",
            f"/tasks/{key}/done",
            {"worker": "w2", "persisted": True, "computed": False},
        )
        first.run.drain_events()
        second.run.drain_events()
        # w1 computed it for A's attempt: A reports it, B adopts.
        assert first.counts.get("fleet.cell_done") == 1
        assert "fleet.cell_adopted" not in first.counts
        assert second.counts.get("fleet.cell_adopted") == 1
        assert "fleet.cell_done" not in second.counts

    def test_a_retry_skips_a_cell_settled_since_the_last_drain(
        self, tmp_path, tiny_summary_json
    ):
        daemon = Daemon(tmp_path)
        first, second = Parent(daemon, "A", [_tiny()]), Parent(daemon, "B", [_tiny()])
        first.start()
        second.start()
        daemon.call("POST", "/tasks/claim", {"worker": "w1"})
        daemon.clock.advance(6.0)
        first.run.drain_events()
        second.run.drain_events()  # both parents schedule one retry

        ticks = []

        def tick(events):
            # A's retry goes out, and a worker finishes it, while B is
            # between its drain and its next loop step.
            if not ticks:
                first.run.publish_due_retries()
                _work_one(daemon, tiny_summary_json)
            ticks.append(events)

        second.run.run(tick)
        first.run.drain_events()
        assert not first.run.outstanding and not second.run.outstanding
        states = [t["state"] for t in daemon.service.board.tasks()]
        assert states == ["done"]  # the finished task was not re-queued
        done = first.counts.get("fleet.cell_done", 0) + second.counts.get(
            "fleet.cell_done", 0
        )
        assert done == 1

    def test_a_restarted_daemon_gets_every_outstanding_cell_back(self, tmp_path):
        daemon = Daemon(tmp_path)
        parent = Parent(daemon, "A", [_tiny(1), _tiny(2)])
        parent.start()
        before = daemon.service.board.epoch
        # The daemon restarts: same store directory, empty board.
        daemon.service = StoreService(FilesystemBackend(tmp_path), clock=daemon.clock)
        daemon.client = MemoryHttpClient(daemon.service)
        assert daemon.service.board.epoch != before
        parent.run.drain_events()
        tasks = daemon.service.board.tasks()
        assert sorted(t["id"] for t in tasks) == sorted(parent.run.cells)
        assert {(t["state"], t["publisher"]) for t in tasks} == {("queued", "A")}
        snapshot = daemon.service.registry.deterministic_snapshot()
        assert snapshot["store.tasks_published"] == 2
