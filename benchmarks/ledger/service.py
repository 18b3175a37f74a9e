"""The ``service_durable`` workload: ``repro serve`` driven over its socket.

The server is a child process (``python -m repro serve --port 0
--wal-root DIR``); this module is its load generator and its judge. Two
client threads talk to it — one ingest thread POSTing seeded batches and
one WebSocket subscriber stamping the arrival of every delta frame. The
clients are pinned to one CPU and the server to the other, so which of
the five threads shares a core with which is not left to the scheduler.

* open loop: batches are due on a fixed schedule and each is timed from
  its *due* time, so a stall also delays (and is charged to) the
  requests queued behind it; how late the generator itself ran is
  reported;
* closed loop: the next POST leaves when the previous 202 arrives;
* crash: ``SIGKILL``, restart on the same ``--wal-root``, wait for
  ``/readyz``, and compare the acknowledged delta log byte for byte.

The end-to-end run repeats set-up and both load phases (closed loop
first, see ``CLOSED_CHUNKS``) on fresh servers, one per 0.7 s of
``--seconds``, each fed the same seeded arrivals. The load comes in
windows of a few tenths of a second with the calibration kernel run on
both CPUs between them; every reading is divided by the kernels
bracketing its window, and the median over the repeats is reported.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

from repro.errors import ServiceError
from repro.service.client import RetryPolicy, ServiceClient

from .micro import NOMINAL_KERNEL_NS, Kernel, calibration_kernel
from .workloads import Outcome, percentile

QUERY = "ledger"
SPEC = {
    "kind": "chain",
    "params": {"window_r": 32, "window_s": 32, "window_t": 32},
}
BATCH_ARRIVALS = 10
# Once the three 32-row windows are full every arrival is an insert plus
# the expiry delete it pushes out, so a batch is 20 updates; open-loop
# rates are stated in updates/s on that basis.
BATCH_UPDATES = 2 * BATCH_ARRIVALS
VALUE_DOMAIN = 64
# Steps between a batch's four value walks (three R/S/T triples and the
# extra R): the second triple trails the first by 8 batches, inside
# the windows' reach, which gives ~0.9 deltas per update; the other
# walks never meet a live row.
WALK_LAGS = (0, 8, 32, 48)
STEP_RATES = (1000, 2000, 4000)
LATENCY_RATE = 2000            # the step the end-to-end latency is read at
LATENCY_LIMIT_MS = 50.0
DISCARD_S = 0.4                # of each open-loop step, left out
WARMUP_BATCHES = 30
# The end-to-end load comes in windows short enough for the kernels
# around one to say how fast the machine was during it (its two CPUs
# change speed independently, several times a second).
WINDOW_S = 0.3                 # one open-loop window
CHUNK_BATCHES = 30             # one closed-loop window, ~0.1 s
KERNEL_SAMPLES = 2             # per CPU, at each window boundary
# What one fresh server is fed end to end, and why not more. The server
# checkpoints every 1000 processed updates (50 batches) and a checkpoint
# stalls the batch behind it: those stalls are the p99. A checkpoint
# pickles the whole delta log, so its cost follows the server's age:
# ~4-8 ms for the first two, level at 12-14 ms from update 3000 to
# 7000, then climbing past 50 ms by 12000. The closed loop takes the
# server through the cheap ones; the open loop then covers exactly the
# level stretch - five checkpoints in 210 batches, so the 99th
# percentile is the middle one of five alike stalls and not the edge
# between two kinds. More load per server would leave that stretch;
# more --seconds buys more servers instead.
CLOSED_CHUNKS = 4              # batches 31-150: updates ~500 -> ~2900
OPEN_WINDOWS = 7               # batches 151-360: updates -> ~7100
REPEAT_S = 0.7                 # one fresh server per this much of --seconds
CLIENT_CPU, SERVER_CPU = 0, 1
# The CPUs this process may use, read before anything is pinned:
# ``sched_getaffinity`` answers for the calling thread, so once a thread
# has pinned itself it (and every child forked from it) sees one CPU.
ALLOWED = sorted(os.sched_getaffinity(0))
BANNER = re.compile(r"serving at (http://[\d.]+:\d+)")


def pin(cpu: int) -> None:
    """Restrict the calling thread (and what it starts later) to one
    CPU, where there are two to share out."""
    if len(ALLOWED) > 1:
        os.sched_setaffinity(0, {ALLOWED[cpu]})


def local_kernel() -> Kernel:
    """The calibration kernel right now: the quicker of two runs on the
    server's CPU (the calling thread moves there for them; the server
    is idle between windows) averaged with the same on the clients'
    CPU, where the calling thread ends up."""
    best = []
    for cpu in (SERVER_CPU, CLIENT_CPU):
        pin(cpu)
        best.append(min(
            (calibration_kernel() for _ in range(KERNEL_SAMPLES)),
            key=lambda k: k.wall_ns,
        ))
    return Kernel(
        statistics.fmean(k.wall_ns for k in best),
        statistics.fmean(k.cpu_ns for k in best),
    )


def between(k0: Kernel, k1: Kernel) -> Kernel:
    """The kernel a window bracketed by ``k0`` and ``k1`` is divided by."""
    return Kernel(
        (k0.wall_ns + k1.wall_ns) / 2, (k0.cpu_ns + k1.cpu_ns) / 2
    )


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, src_dir: str, wal_root: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--wal-root", wal_root],
            env=env,
            preexec_fn=partial(pin, SERVER_CPU),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
            line = self.process.stdout.readline() if ready else ""
            match = BANNER.search(line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            # The split the numbers rest on: the server on its own CPU.
            if len(ALLOWED) > 1 and os.sched_getaffinity(self.pid) != {
                ALLOWED[SERVER_CPU]
            }:
                raise RuntimeError("repro serve is not on the server CPU")
        except BaseException:
            self.kill()
            raise
        self.url = match.group(1)

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_ns(self) -> int:
        """CPU time of the child's threads so far (``schedstat``'s
        nanoseconds; ``/proc/<pid>/stat`` only counts 10 ms ticks)."""
        total = 0
        for task in os.listdir(f"/proc/{self.pid}/task"):
            path = f"/proc/{self.pid}/task/{task}/schedstat"
            with open(path, encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        return total

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """``SIGKILL`` and reap."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()

    def stop(self) -> None:
        """``SIGTERM`` (graceful drain) and reap; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


class Subscriber(threading.Thread):
    """Reads delta frames; maps each frame's ``seq_last`` to its arrival."""

    def __init__(self, client: ServiceClient, query: str):
        super().__init__(name="ledger-subscriber", daemon=True)
        self.subscription = client.subscribe(query, frame_timeout_s=120.0)
        self.arrival: Dict[int, float] = {}
        self.start()

    def run(self) -> None:
        for frame in self.subscription:
            if frame.get("type") == "deltas":
                self.arrival[frame["seq_last"]] = time.perf_counter()

    def close(self) -> None:
        self.subscription.close()
        self.join(timeout=10.0)


@dataclass
class Post:
    """One ingest request as the generator saw it."""

    due: float
    sent: float
    acked: float
    status: int
    seq_last: int = -1
    updates: int = 0


@dataclass
class Phase:
    """The requests of one load phase plus what bracketed it."""

    posts: List[Post] = field(default_factory=list)
    started: float = 0.0
    drained: float = 0.0        # when processed caught up with acked
    cpu_ns: int = 0             # the server's, started -> drained

    @property
    def updates(self) -> int:
        return sum(p.updates for p in self.posts)


class Load:
    """The seeded arrival generator and the ingest thread's loops."""

    def __init__(self, client: ServiceClient, server: Server, seed: int):
        self.client = client
        self.server = server
        rng = random.Random(seed)
        # The seed picks one start and one (odd) stride; the four value
        # walks are that one walk at fixed lags. Another seed relabels
        # the 64 values (v -> start + v * stride is a bijection), so
        # which rows meet in the windows, and with it every batch's
        # join output, is the same whatever the seed. Independent walks
        # were not: their chance collisions moved the output volume,
        # and with it the checkpoint stalls, by +-19% between seeds.
        start = rng.randrange(VALUE_DOMAIN)
        stride = 2 * rng.randrange(VALUE_DOMAIN // 2) + 1
        self.walks = [
            ((start + lag * stride) % VALUE_DOMAIN, stride)
            for lag in WALK_LAGS
        ]
        self.batches = 0

    def batch(self) -> List[Tuple[str, tuple]]:
        """Three matching R/S/T triples and one extra R: every batch
        ends in at least one join result, so every batch owes the
        subscriber a delta frame."""
        values = [
            (start + self.batches * stride) % VALUE_DOMAIN
            for start, stride in self.walks
        ]
        self.batches += 1
        arrivals: List[Tuple[str, tuple]] = []
        for v in values[:-1]:
            arrivals += [("R", (v,)), ("S", (v, v)), ("T", (v,))]
        arrivals.append(("R", (values[-1],)))
        return arrivals

    def post(self, due: float) -> Post:
        sent = time.perf_counter()
        status, payload = self.client.ingest(QUERY, self.batch(), retry=False)
        acked = time.perf_counter()
        if status != 202:
            return Post(due, sent, acked, status)
        return Post(
            due, sent, acked, status, payload["seq_last"], payload["updates"]
        )

    def _run(self, posts) -> Phase:
        """Issue ``posts(started)`` (a generator that sends as it is
        consumed), then wait for the server to process what it
        acknowledged."""
        cpu_started = self.server.cpu_ns()
        phase = Phase(started=time.perf_counter())
        phase.posts.extend(posts(phase.started))
        wait_processed(self.client)
        phase.drained = time.perf_counter()
        phase.cpu_ns = self.server.cpu_ns() - cpu_started
        return phase

    def open_loop(self, rate_updates_s: float, seconds: float) -> Phase:
        interval = BATCH_UPDATES / rate_updates_s

        def posts(started: float):
            for i in range(int(seconds / interval)):
                due = started + i * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                yield self.post(due)

        return self._run(posts)

    def closed_loop(self, batches: int) -> Phase:
        """A fixed number of batches back to back — a fixed amount of
        work, not of time, so the server's memory does not depend on
        how fast the machine happens to be."""
        def posts(_started: float):
            for _ in range(batches):
                yield self.post(time.perf_counter())

        return self._run(posts)


def wait_processed(client: ServiceClient, timeout_s: float = 60.0) -> dict:
    """Poll until every acknowledged update has been processed."""
    deadline = time.monotonic() + timeout_s
    while True:
        status = client.status(QUERY)
        if (
            status["processed_seq"] >= status["acked_seq"]
            or time.monotonic() > deadline
        ):
            return status
        time.sleep(0.005)


def wait_ready(client: ServiceClient, timeout_s: float = 60.0) -> bool:
    """Poll ``/readyz`` until it answers 200; False if it never does."""
    deadline = time.monotonic() + timeout_s
    while not client.readyz()[0]:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def wait_frames(subscriber: Subscriber, posts: List[Post],
                timeout_s: float = 5.0) -> None:
    """Give the last acknowledged batch's frame time to land."""
    acked = [p.seq_last for p in posts if p.status == 202]
    deadline = time.monotonic() + timeout_s
    while acked and acked[-1] not in subscriber.arrival:
        if time.monotonic() > deadline:
            return
        time.sleep(0.01)


def delta_latencies_ms(
    phase: Phase, arrival: Dict[int, float], discard_s: float = DISCARD_S
) -> List[float]:
    """Due time -> delta frame, one sample per update, for the batches
    due after the step's first ``discard_s`` whose frame arrived."""
    out: List[float] = []
    for p in phase.posts:
        if (
            p.status == 202
            and p.due >= phase.started + discard_s
            and p.seq_last in arrival
        ):
            out += [(arrival[p.seq_last] - p.due) * 1e3] * p.updates
    return out


def failures(posts: List[Post], arrival: Dict[int, float]) -> Tuple[int, int]:
    """``(attempted, failed)`` in updates: refused batches count their
    arrivals, acknowledged batches whose frame never came their updates."""
    attempted = failed = 0
    for p in posts:
        if p.status != 202:
            attempted += BATCH_ARRIVALS
            failed += BATCH_ARRIVALS
        else:
            attempted += p.updates
            if p.seq_last not in arrival:
                failed += p.updates
    return attempted, failed


def acked_log(client: ServiceClient, acked_seq: int) -> Dict[int, str]:
    """The delta log through ``acked_seq``, each entry as canonical JSON."""
    log: Dict[int, str] = {}
    since = -1
    while since < acked_seq:
        entries = client.results(QUERY, since_seq=since, limit=10_000)[
            "entries"
        ]
        if not entries:
            break
        for entry in entries:
            if entry["seq"] <= acked_seq:
                log[entry["seq"]] = json.dumps(
                    entry["deltas"], separators=(",", ":")
                )
        since = entries[-1]["seq"]
    return log


class DepthPoller(threading.Thread):
    """Samples the server's queue depth at 4 Hz."""

    def __init__(self, client: ServiceClient):
        super().__init__(name="ledger-depth-poller", daemon=True)
        self.client = client
        self.samples: List[Tuple[float, int]] = []
        self._stop_event = threading.Event()
        self.start()

    def run(self) -> None:
        while not self._stop_event.wait(0.25):
            try:
                depth = self.client.status(QUERY)["queue_depth_updates"]
            except ServiceError:
                continue
            self.samples.append((time.perf_counter(), depth))

    def between(self, start: float, end: float) -> List[Tuple[float, int]]:
        return [(t, d) for t, d in self.samples if start <= t <= end]

    def close(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)


def backlog_growth(samples: List[Tuple[float, int]]) -> float:
    """Least-squares slope of queue depth over time, updates/s."""
    if len(samples) < 3:
        return 0.0
    mean_t = statistics.fmean(t for t, _ in samples)
    mean_d = statistics.fmean(d for _, d in samples)
    spread = sum((t - mean_t) ** 2 for t, _ in samples)
    if spread == 0.0:
        return 0.0
    return sum((t - mean_t) * (d - mean_d) for t, d in samples) / spread


def _connect(src_dir: str, wal_root: str):
    """Boot a server, register the query, open the subscription."""
    server = Server(src_dir, wal_root)
    try:
        client = ServiceClient(server.url, retry=RetryPolicy(max_retries=2))
        client.register(QUERY, SPEC)
        subscriber = Subscriber(client, QUERY)
    except BaseException:
        server.kill()
        raise
    return server, client, subscriber


def _measure(
    load: Load, subscriber: Subscriber, chunks: int, windows: int
) -> Tuple[Dict[str, object], List[Post]]:
    """One server's load: ``chunks`` closed-loop windows, then
    ``windows`` open-loop ones, the kernel run between all of them.
    Every reading is divided by the kernels bracketing its window (so
    in kernel units; the caller scales the medians back to nominal
    time)."""
    kernels = [local_kernel()]
    closed: List[Phase] = []
    for _ in range(chunks):
        closed.append(load.closed_loop(CHUNK_BATCHES))
        kernels.append(local_kernel())
    chunk_kernels = [between(k0, k1) for k0, k1 in zip(kernels, kernels[1:])]
    kernels = kernels[-1:]
    steps: List[Phase] = []
    for _ in range(windows):
        steps.append(load.open_loop(LATENCY_RATE, WINDOW_S))
        kernels.append(local_kernel())
    posts = [p for phase in closed + steps for p in phase.posts]
    wait_frames(subscriber, posts)
    latencies: List[float] = []
    for step, k0, k1 in zip(steps, kernels, kernels[1:]):
        wall = between(k0, k1).wall_ns
        latencies += [
            ms * 1e6 / wall
            for ms in delta_latencies_ms(step, subscriber.arrival, 0.0)
        ]
    if not latencies:
        raise RuntimeError(
            "no delta frame of the open-loop windows reached the subscriber"
        )
    latencies.sort()
    return {
        "latency_p50": percentile(latencies, 0.50),
        "latency_p99": percentile(latencies, 0.99),
        "chunk_wall": [
            (c.drained - c.started) * 1e9 / k.wall_ns
            for c, k in zip(closed, chunk_kernels)
        ],
        "chunk_cpu": [
            c.cpu_ns / k.cpu_ns for c, k in zip(closed, chunk_kernels)
        ],
        "updates": sum(c.updates for c in closed),
    }, posts


def run_service(
    src_dir: str,
    scratch_dir: str,
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool,
) -> Outcome:
    """Run the workload once; ``traced`` picks the per-layer phases."""
    os.makedirs(scratch_dir, exist_ok=True)
    root = tempfile.mkdtemp(prefix="service-", dir=scratch_dir)
    pin(CLIENT_CPU)
    notes: List[str] = []
    metrics: Dict[str, float] = {}
    repeats: List[Dict[str, float]] = []
    attempted = failed = 0
    server = subscriber = poller = None
    try:
        if traced:
            repeat_count = 1
        elif quick:
            repeat_count = 2
        else:
            repeat_count = max(3, round(seconds / REPEAT_S))
        for attempt in range(repeat_count):
            # -- set-up: boot -> register -> subscribed -------------------
            wal_root = os.path.join(root, f"wal-{attempt}")
            before = local_kernel()
            started = time.perf_counter()
            server, client, subscriber = _connect(src_dir, wal_root)
            setup_s = time.perf_counter() - started
            setup = setup_s * 1e9 / between(before, local_kernel()).wall_ns
            last = attempt == repeat_count - 1

            # -- untimed warm-up: fill the three windows ------------------
            load = Load(client, server, seed)
            posts = [
                load.post(time.perf_counter()) for _ in range(WARMUP_BATCHES)
            ]
            wait_processed(client)

            if traced:
                poller = DepthPoller(client)
                step_s = 2.0 if quick else seconds / len(STEP_RATES)
                steps = {
                    rate: load.open_loop(rate, step_s) for rate in STEP_RATES
                }
                for phase in steps.values():
                    posts += phase.posts
                wait_frames(subscriber, posts)
                poller.close()
                metrics.update(_step_metrics(steps, subscriber, poller))
            else:
                chunks = 2 if quick else CLOSED_CHUNKS
                windows = 2 if quick else OPEN_WINDOWS
                measured, phase_posts = _measure(
                    load, subscriber, chunks, windows
                )
                measured["setup"] = setup
                repeats.append(measured)
                posts += phase_posts
                notes.append(
                    f"repeat {attempt}: uncalibrated set-up {setup_s:.3f}s; "
                    f"{chunks * CHUNK_BATCHES} closed-loop batches, "
                    f"{windows} open-loop windows"
                )
            batch_attempted, batch_failed = failures(posts, subscriber.arrival)
            final = wait_processed(client)
            attempted += batch_attempted
            failed += batch_failed + max(
                0, final["acked_seq"] - final["processed_seq"]
            )
            if not last:
                subscriber.close()
                server.stop()

        if not traced:
            # Per closed-loop window the median over the repeats, then
            # summed, as the in-process workloads do with their
            # segments; kernel units -> the kernel's nominal time.
            def median(name: str) -> float:
                return statistics.median(r[name] for r in repeats)

            def summed(name: str) -> float:
                return sum(
                    map(statistics.median, zip(*(r[name] for r in repeats)))
                )

            nominal = NOMINAL_KERNEL_NS
            updates = repeats[0]["updates"]
            metrics.update({
                "updates_per_s": (
                    updates / (summed("chunk_wall") * nominal / 1e9)
                ),
                "update_latency_p50_us": median("latency_p50") * nominal / 1e3,
                "update_latency_p99_us": median("latency_p99") * nominal / 1e3,
                "cpu_us_per_update": (
                    summed("chunk_cpu") * nominal / 1e3 / updates
                ),
                "setup_s": median("setup") * nominal / 1e9,
                "peak_rss_mb": server.peak_rss_mib(),
            })

        # -- crash and recover -------------------------------------------
        acked_seq = final["acked_seq"]
        before_kill = acked_log(client, acked_seq)
        subscriber.close()
        server.kill()
        started = time.perf_counter()
        server = Server(src_dir, wal_root)
        client = ServiceClient(server.url, retry=RetryPolicy(max_retries=2))
        ready = wait_ready(client)
        recovery_s = time.perf_counter() - started
        if ready:
            recovered = wait_processed(client)
            after = acked_log(client, acked_seq)
        else:
            # A server that never came back has lost all it acknowledged.
            recovered = {
                "processed_seq": -1, "resumed": False, "replayed_updates": 0,
            }
            after = {}
        loss = max(0, acked_seq - recovered["processed_seq"])
        identical = before_kill == after and len(before_kill) > 0
        correct = ready and identical and loss == 0 and recovered["resumed"]
        if not correct:
            notes.append(
                f"recovery check FAILED: ready={ready} identical={identical} "
                f"loss={loss} resumed={recovered['resumed']} "
                f"entries={len(before_kill)}"
            )
        if traced:
            metrics["service.recovery_ready_s"] = recovery_s
            metrics["service.replayed_updates"] = recovered["replayed_updates"]
            metrics["service.acked_loss_updates"] = loss
            metrics["service.recovered_byte_identical"] = int(identical)
        notes.append(
            f"recovered in {recovery_s:.3f}s, replayed "
            f"{recovered['replayed_updates']} updates, {len(before_kill)} "
            f"acked entries byte-identical={identical}, acked loss {loss}"
        )
        server.stop()
        server = None
        return Outcome(metrics, attempted, failed + loss, correct, notes)
    finally:
        if poller is not None:
            poller.close()
        if subscriber is not None:
            subscriber.close()
        if server is not None:
            server.kill()
        shutil.rmtree(root, ignore_errors=True)


def _step_metrics(
    steps: Dict[int, Phase], subscriber: Subscriber, poller: DepthPoller
) -> Dict[str, float]:
    """The ``service.*`` load metrics from the three open-loop steps."""
    metrics: Dict[str, float] = {}
    arrival = subscriber.arrival
    sustained = 0
    posts_all: List[Post] = []
    for rate, phase in steps.items():
        latencies = delta_latencies_ms(phase, arrival)
        p99 = percentile(latencies, 0.99) if latencies else float("inf")
        metrics[f"service.latency_p99_ms_at_{rate}"] = p99
        growth = backlog_growth(poller.between(phase.started, phase.drained))
        _, failed = failures(phase.posts, arrival)
        if p99 <= LATENCY_LIMIT_MS and growth <= 0.02 * rate and not failed:
            sustained = max(sustained, rate)
        posts_all += phase.posts
    top = steps[max(steps)]
    ok = [p for p in posts_all if p.status == 202]
    acks = [(p.acked - p.sent) * 1e3 for p in ok]
    after_ack = [
        (arrival[p.seq_last] - p.acked) * 1e3
        for p in ok if p.seq_last in arrival
    ]
    metrics["service.ack_latency_p50_ms"] = percentile(acks, 0.50)
    metrics["service.ack_latency_p99_ms"] = percentile(acks, 0.99)
    metrics["service.delta_after_ack_p50_ms"] = percentile(after_ack, 0.50)
    metrics["service.max_rate_within_limit"] = sustained
    metrics["service.queue_depth_max_updates"] = max(
        (d for _, d in poller.samples), default=0
    )
    metrics["service.backlog_growth_updates_per_s"] = backlog_growth(
        poller.between(top.started, top.drained)
    )
    metrics["service.rejected_fraction"] = (
        sum(1 for p in posts_all if p.status != 202) / len(posts_all)
    )
    metrics["service.generator_late_max_ms"] = max(
        (p.sent - p.due) * 1e3 for p in posts_all
    )
    return metrics
