"""The streaming service end to end, over real sockets.

Each scenario boots a :class:`ServiceThread` on an ephemeral port and
drives it with the stdlib :class:`ServiceClient`. The chain workload's
schemas are R(A), S(A, B), T(B); a "matching triple" ``[R(v), S(v, v),
T(v)]`` joins end to end, so every third update emits a result delta.

The request-surface tests run on both hosting modes: at module level on
an isolated service (one lane per query), and again in
:class:`TestSharedHosting` on a shared-engine service (one lane over a
``MultiQueryEngine`` holding every member).
"""

import random
import threading
import time

import pytest

from repro.api import EngineConfig
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)

CHAIN = {
    "kind": "chain",
    "params": {"window_r": 32, "window_s": 32, "window_t": 32},
}


def _triple(value):
    return [["R", [value]], ["S", [value, value]], ["T", [value]]]


def _wait(predicate, timeout_s=20.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def _wait_processed(client, query, seq):
    assert _wait(
        lambda: client.status(query)["processed_seq"] >= seq
    ), f"engine never reached seq {seq}"


@pytest.fixture()
def service():
    thread = ServiceThread(ServiceConfig())
    thread.start()
    try:
        yield thread
    finally:
        thread.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.base_url)


# ----------------------------------------------------------------------
# Registration and the request surface
# ----------------------------------------------------------------------
def test_register_ingest_results_roundtrip(client):
    status = client.register("q", CHAIN)
    assert status["query"] == "q"
    assert status["schema"] == {"R": ["A"], "S": ["A", "B"], "T": ["B"]}

    ack_status, ack = client.ingest("q", _triple(1))
    assert ack_status == 202
    assert (ack["seq_first"], ack["seq_last"]) == (0, 2)
    assert ack["durable"] is False  # no wal_root on this config

    _wait_processed(client, "q", 2)
    results = client.results("q")
    assert [e["seq"] for e in results["entries"]] == [0, 1, 2]
    # Only the triple-completing T insert emits the join result.
    assert results["entries"][0]["deltas"] == []
    [[sign, rows]] = results["entries"][2]["deltas"]
    assert sign == 1
    assert sorted(rows) == [["R", [1]], ["S", [1, 1]], ["T", [1]]]

    assert client.healthz()["status"] == "ok"
    ready, _ = client.readyz()
    assert ready
    assert "repro_service_queue_depth_updates" in client.metrics_text()


def test_register_is_idempotent_and_conflicts_are_409(client):
    client.register("q", CHAIN)
    assert client.register("q", CHAIN)["query"] == "q"  # same spec: 200
    with pytest.raises(Exception) as err:
        client.register("q", {"kind": "chain", "params": {"window_r": 64}})
    assert "409" in str(err.value) or "different spec" in str(err.value)


def test_ingest_validation_is_a_400_not_a_quarantine(client):
    client.register("q", CHAIN)
    bad = [
        [["Z", [1]]],            # unknown relation
        [["R", [1, 2]]],         # R takes one value
        [["S", [1]]],            # S takes two
        [["R", [True]]],         # bools are not data
        [["R", None]],           # values must be a list
        [],                      # empty batch
        "nope",                  # arrivals must be a list
    ]
    for arrivals in bad:
        # Raw POST: some of these the client helper would refuse to
        # serialize, and the server must 400 them all the same.
        status, _, data = client._request(
            "POST", "/v1/queries/q/ingest",
            body={"tenant": "t", "arrivals": arrivals},
        )
        assert status == 400, (arrivals, data)
    # Nothing reached the windows or the engine.
    assert client.status("q")["acked_seq"] == -1


def test_idempotency_key_replays_instead_of_reingesting(client):
    client.register("q", CHAIN)
    first_status, first = client.ingest(
        "q", _triple(5), idempotency_key="abc"
    )
    replay_status, replay = client.ingest(
        "q", _triple(5), idempotency_key="abc"
    )
    assert (first_status, replay_status) == (202, 202)
    assert replay["replayed"] is True
    assert (replay["seq_first"], replay["seq_last"]) == (
        first["seq_first"], first["seq_last"],
    )
    _wait_processed(client, "q", first["seq_last"])
    # The batch went in exactly once.
    assert client.status("q")["acked_seq"] == first["seq_last"]


# ----------------------------------------------------------------------
# Backpressure: the acceptance-criterion test
# ----------------------------------------------------------------------
def test_429_issued_before_any_queue_overflow():
    """With the engine wedged, ingest keeps getting 202s while the
    bounded queue has room and a 429 the moment it does not — and no
    accepted update is ever dropped.

    Deterministic by construction: the engine executor is blocked on an
    event, so queue depth moves only when the (serial) test ingests.
    """
    config = ServiceConfig(
        queue_capacity_updates=60,
        tenant_rate=1e9, tenant_burst=1e9,   # admission out of the way
        # Keep the degradation ladder's own 503 out of the way too: this
        # test pins down the queue-full 429 specifically.
        reject_depth_fraction=1.0,
        shed_lag_s=3600.0, pause_lag_s=3600.0, reject_lag_s=3600.0,
    )
    thread = ServiceThread(config)
    thread.start()
    release = threading.Event()
    try:
        client = ServiceClient(thread.base_url)
        client.register("q", CHAIN)
        host = thread.service.hosts["q"]

        thread.service._engine_exec.submit(release.wait)

        # Worst-case reservation is 2 updates per arrival; each triple
        # actually lands 3 updates. Capacity 60 admits exactly 19
        # batches (57 queued updates; the 20th would need 6 more).
        acks = []
        rejection = None
        for i in range(25):
            status, payload = client.ingest(
                "q", _triple(i), retry=False
            )
            if status == 202:
                assert rejection is None, "202 after a 429"
                acks.append(payload)
            else:
                rejection = (status, payload)
                break
        assert [a["seq_last"] for a in acks][-1] == 56
        assert rejection is not None
        assert rejection[0] == 429
        assert rejection[1]["error"] == "queue_full"
        assert rejection[1]["retry_after_s"] > 0

        # The 429 fired while the queue was still within its bound.
        assert host.queue.depth_updates == 57 <= config.queue_capacity_updates

        # Un-wedge the engine: every acknowledged update must surface.
        release.set()
        _wait_processed(client, "q", 56)
        assert client.status("q")["queue_depth_updates"] == 0
        results = client.results("q", limit=100)
        assert [e["seq"] for e in results["entries"]] == list(range(57))
    finally:
        release.set()  # un-wedge even on assertion failure, or stop() waits
        thread.stop()


def test_degradation_ladder_recovers_after_burst():
    config = ServiceConfig(
        queue_capacity_updates=30,
        tenant_rate=1e9, tenant_burst=1e9,
    )
    thread = ServiceThread(config)
    thread.start()
    release = threading.Event()
    try:
        client = ServiceClient(thread.base_url)
        client.register("q", CHAIN)
        thread.service._engine_exec.submit(release.wait)
        for i in range(9):  # 27/30 updates: deep into the ladder
            status, _ = client.ingest("q", _triple(i), retry=False)
            assert status == 202
        assert client.status("q")["tier"] != "normal"
        release.set()
        _wait_processed(client, "q", 26)
        assert _wait(lambda: client.status("q")["tier"] == "normal")
        ready, _ = client.readyz()
        assert ready
    finally:
        release.set()
        thread.stop()


def test_admission_turns_excess_away_and_keeps_every_acked_update():
    """Offered load past the tenant's token bucket: the excess gets an
    ``admission`` 429 (the queue has room throughout), the rejections
    are the admission controller's, and every 202'd update is
    processed and returned."""
    config = ServiceConfig(
        # 30 tokens buy ten triples; refilling one triple takes 30 s.
        tenant_rate=0.1, tenant_burst=30.0, queue_capacity_updates=2048,
    )
    thread = ServiceThread(config)
    thread.start()
    try:
        client = ServiceClient(thread.base_url)
        client.register("q", CHAIN)
        acked_last, rejected = -1, 0
        for i in range(15):
            status, payload = client.ingest("q", _triple(i), retry=False)
            if status == 202:
                acked_last = payload["seq_last"]
            else:
                assert (status, payload["error"]) == (429, "admission")
                rejected += 1
        assert acked_last == 29 and rejected == 5
        _wait_processed(client, "q", acked_last)
        status = client.status("q")
        assert status["admission"]["rejections"] == rejected
        assert status["tier"] == "normal"
        results = client.results("q", limit=100)
        assert [e["seq"] for e in results["entries"]] == list(range(30))
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# Subscriptions
# ----------------------------------------------------------------------
def test_subscription_streams_deltas_and_backfills(service, client):
    client.register("q", CHAIN)
    client.ingest("q", _triple(1))
    _wait_processed(client, "q", 2)

    with client.subscribe("q", since_seq=-1) as sub:
        frame = sub.recv()
        assert frame["type"] == "deltas"
        assert frame.get("backfill") is True
        assert [e["seq"] for e in frame["entries"]] == [2]

        client.ingest("q", _triple(2))
        live = sub.recv()
        assert live["type"] == "deltas"
        assert live["seq_last"] == 5
        assert not live.get("gap")
    # Subscriber detaches cleanly.
    assert _wait(lambda: client.status("q")["subscribers"] == 0)


def test_subscription_flow_control_blocks_until_credits():
    # One initial credit: the server must stop after one data frame and
    # wait for a grant instead of flooding the subscriber.
    thread = ServiceThread(ServiceConfig(subscriber_initial_credits=1))
    thread.start()
    try:
        client = ServiceClient(thread.base_url)
        client.register("q", CHAIN)
        # A huge negative low-water disables the client's auto-grant so
        # the test controls every credit by hand.
        sub = client.subscribe("q", credit_low_water=-(10 ** 9))
        try:
            assert _wait(lambda: client.status("q")["subscribers"] == 1)
            client.ingest("q", _triple(1))
            first = sub.recv()
            assert first["type"] == "deltas"
            # The only credit is spent; the next batch must block.
            client.ingest("q", _triple(2))
            waiting = sub.recv()
            assert waiting == {"type": "flow", "state": "credit_wait"}
            sub.grant(10)
            second = sub.recv()
            assert second["type"] == "deltas"
            assert second["seq_last"] == 5
        finally:
            sub.close()
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
def test_drain_completes_work_then_rejects_new(service, client):
    client.register("q", CHAIN)
    client.ingest("q", _triple(1))
    summary = client.drain()
    assert summary["drained"] == {"q": True}
    ready, body = client.readyz()
    assert not ready and body["reason"] == "draining"
    status, payload = client.ingest("q", _triple(2), retry=False)
    assert status == 503 and payload["error"] == "draining"
    with pytest.raises(Exception):
        client.register("q2", CHAIN)
    # Drained means processed: the pre-drain triple is in the log.
    assert client.status("q")["processed_seq"] == 2


# ----------------------------------------------------------------------
# The two hosting modes
# ----------------------------------------------------------------------
class TestSharedHosting:
    """The request-surface tests above on a shared-engine service."""

    @pytest.fixture()
    def service(self):
        thread = ServiceThread(ServiceConfig(shared_engine=True))
        thread.start()
        try:
            yield thread
        finally:
            thread.stop()

    test_register_ingest_results_roundtrip = staticmethod(
        test_register_ingest_results_roundtrip
    )
    test_register_is_idempotent_and_conflicts_are_409 = staticmethod(
        test_register_is_idempotent_and_conflicts_are_409
    )
    test_ingest_validation_is_a_400_not_a_quarantine = staticmethod(
        test_ingest_validation_is_a_400_not_a_quarantine
    )
    test_idempotency_key_replays_instead_of_reingesting = staticmethod(
        test_idempotency_key_replays_instead_of_reingesting
    )
    test_subscription_streams_deltas_and_backfills = staticmethod(
        test_subscription_streams_deltas_and_backfills
    )
    test_drain_completes_work_then_rejects_new = staticmethod(
        test_drain_completes_work_then_rejects_new
    )


def test_isolated_engine_registry_reaches_metrics(client):
    client.register("q1", CHAIN)
    _, ack = client.ingest("q1", _triple(1))
    _wait_processed(client, "q1", ack["seq_last"])
    text = client.metrics_text()
    # The engine's own families, labeled by query like a shared member's.
    assert 'query_id="q1"' in text
    assert 'repro_service_queue_depth_updates{query="q1"}' in text


def _seeded_arrivals(seed, batches=60):
    rng = random.Random(seed)
    for _ in range(batches):
        batch = []
        for _ in range(rng.randint(1, 8)):
            a, b = rng.randrange(6), rng.randrange(6)
            batch.append(rng.choice(
                (["R", [a]], ["S", [a, b]], ["T", [b]])
            ))
        yield batch


def test_one_member_shared_lane_equals_isolated_lane():
    """Same registration, same seeded ingest: the shared lane with one
    member and the isolated lane serve byte-identical results."""
    observed = []
    for shared in (False, True):
        thread = ServiceThread(ServiceConfig(shared_engine=shared))
        thread.start()
        try:
            client = ServiceClient(thread.base_url)
            client.register("q", CHAIN)
            last = -1
            for arrivals in _seeded_arrivals(seed=34):
                status, ack = client.ingest("q", arrivals)
                assert status == 202
                last = ack["seq_last"]
            _wait_processed(client, "q", last)
            code, _, body = client._request(
                "GET", "/v1/queries/q/results?since_seq=-1&limit=10000"
            )
            assert code == 200
            observed.append((body, client.status("q")))
        finally:
            thread.stop()
    (isolated_body, isolated), (shared_body, shared) = observed
    assert isolated["shedding"]["shed_total"] == 0
    assert isolated["shedding"]["quarantined"] == 0
    assert shared["shedding"] is None and shared["shared_engine"] is True
    assert isolated_body == shared_body
    assert isolated["processed_seq"] == shared["processed_seq"] == last
    assert isolated["outputs_emitted"] == shared["outputs_emitted"] > 0


# ----------------------------------------------------------------------
# Durability: kill -9 and recover
# ----------------------------------------------------------------------
def test_kill_then_recover_preserves_every_acked_delta(tmp_path):
    root = str(tmp_path / "wal")
    config = ServiceConfig(wal_root=root, checkpoint_interval=20)
    thread = ServiceThread(config)
    thread.start()
    client = ServiceClient(thread.base_url)
    client.register("q", CHAIN)
    acked_last = -1
    for i in range(30):
        status, ack = client.ingest("q", _triple(i))
        assert status == 202 and ack["durable"] is True
        acked_last = ack["seq_last"]
    _wait_processed(client, "q", acked_last)
    before = client.results("q", limit=1000)["entries"]
    thread.kill()  # no drain, no checkpoint, journal truncated to fsync

    revived = ServiceThread(ServiceConfig(wal_root=root))
    revived.start()
    try:
        client2 = ServiceClient(revived.base_url)
        status = client2.status("q")  # re-hosted from the journal root
        assert status["resumed"] is True
        assert status["acked_seq"] == acked_last
        after = client2.results("q", limit=1000)["entries"]
        acked_before = [e for e in before if e["seq"] <= acked_last]
        assert after == acked_before  # byte-identical acked history

        # Sequence numbering and processing continue where they left off.
        status2, ack = client2.ingest("q", _triple(99))
        assert status2 == 202
        assert ack["seq_first"] == acked_last + 1
        _wait_processed(client2, "q", ack["seq_last"])
    finally:
        revived.stop()


# ----------------------------------------------------------------------
# Membership changes land between batches
# ----------------------------------------------------------------------
def _membership_run(wedge):
    """Members a and c on a shared lane; three triples through a; b is
    registered and c deleted; two more triples. With ``wedge`` the
    registration and the DELETE are sent while the engine executor is
    stopped inside the third triple's batch; without it they are sent
    after that batch. Returns a's and b's ``/results`` entries."""
    thread = ServiceThread(ServiceConfig(
        shared_engine=True, tenant_rate=1e9, tenant_burst=1e9,
    ))
    thread.start()
    release = threading.Event()
    try:
        client = ServiceClient(thread.base_url)
        client.register("a", CHAIN)
        client.register("c", CHAIN)
        for value in (1, 2):
            assert client.ingest("a", _triple(value))[0] == 202
        _wait_processed(client, "a", 5)

        service = thread.service
        lane = service._shared_lane
        entered = threading.Event()
        process = lane.multi.process

        def wedged(update):
            # Inside the batch of seqs 6..8, between its first two updates.
            if wedge and update.seq == 7:
                entered.set()
                release.wait(20)
            return process(update)

        lane.multi.process = wedged
        assert client.ingest("a", _triple(3))[0] == 202
        if wedge:
            assert entered.wait(20)
        else:
            _wait_processed(client, "a", 8)

        def change_membership():
            other = ServiceClient(thread.base_url)
            other.register("b", CHAIN)
            other.unregister("c")

        changer = threading.Thread(target=change_membership)
        changer.start()
        if wedge:
            # The registration is either done (it did not wait for the
            # batch) or queued behind the batch on the engine executor.
            queued = service._engine_exec._work_queue
            assert _wait(lambda: not changer.is_alive() or queued.qsize())
            release.set()
        changer.join(30)
        assert not changer.is_alive()
        for value in (4, 5):
            assert client.ingest("a", _triple(value))[0] == 202
        _wait_processed(client, "a", 14)
        assert "c" not in service.hosts
        return [
            client.results(name, limit=100)["entries"] for name in ("a", "b")
        ]
    finally:
        release.set()
        thread.stop()


def test_register_and_delete_land_between_batches():
    """A registration and a DELETE sent while a batch is mid-way through
    the shared engine take effect after that batch: every member's
    ``/results`` equal a run where they were sent between the batches."""
    between = _membership_run(wedge=False)
    assert [e["seq"] for e in between[1]] == list(range(9, 15))
    assert _membership_run(wedge=True) == between
