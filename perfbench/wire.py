"""The ``serve_wire`` workload: the decision server driven over TCP.

``python -m repro serve`` (OL_GD, periodic checkpoints) runs in a child
process.  The harness realises bursty demand from the benchmark seed,
splits every request's demand into several offers per slot in a shuffled
arrival order, and drives one loopback connection:

* **closed loop** — each slot is sent as soon as the previous ``decide``
  answered: full wire slots and the server's capacity (untraced run);
* **open loop** — traced run only: a sender thread offers on a fixed slot
  schedule while the main thread reads the answers, and each ``decide``
  is timed from when it was due, so a stall also delays later slots.

The server only ever sees offers; the demand seed stays in the harness.
Afterwards the same lines are replayed in process through
``repro.serve.protocol.handle_line`` and every placement's ``trace_key``
must match the wire's.  The traced run replays them a second time with
spans on, which is where the serving layers' per-layer metrics come from.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from checks import CheckFailure, check_placement
from layers import breakdown, instrumented, layer_metrics
from slotloop import WORLD_SEED, RunLength, geomean, quantile
from spans import Tracer

__all__ = ["WireWorkload", "run_wire_workload"]

#: Offers each request's slot demand is split into.
OFFERS_PER_REQUEST = 3
#: Open-loop slot period (seconds): about half the closed-loop capacity
#: measured when this benchmark was written (~23 slots/s).
OPEN_PERIOD_S = 0.1
#: When in the slot ``decide`` is due: late enough that the answers to
#: the slot's offers have arrived, so ``decide`` is timed on its own.
DECIDE_AT = 0.6
#: Latency limit of a ``decide``, timed from when it was due.
SLO_MS = 100.0
#: Server snapshot cadence (slots); every fifth decide also checkpoints.
CHECKPOINT_EVERY = 5
#: Bound on any single wait for the server.
IO_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class WireWorkload:
    """The decision server (OL_GD, given demands) at one world size."""

    name: str
    n_requests: int
    n_stations: int
    #: Slots from slot 0 whose delays make up ``delay_ms_geomean``.
    quality_slots: int = 250


def _config(workload: WireWorkload, checkpoint_dir: Path) -> Any:
    """The in-process twin of the child server's command line."""
    from repro.api import ServeConfig

    return ServeConfig(
        controller="OL_GD",
        seed=WORLD_SEED,
        n_requests=workload.n_requests,
        n_stations=workload.n_stations,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=CHECKPOINT_EVERY,
    )


class ServerProcess:
    """``python -m repro serve`` in a child process, stopped on exit."""

    def __init__(self, workload: WireWorkload, root: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--controller", "OL_GD",
            "--seed", str(WORLD_SEED),
            "--requests", str(workload.n_requests),
            "--stations", str(workload.n_stations),
            "--port", "0",
            "--jobs", "1",
            "--checkpoint-dir", str(workdir / "checkpoints"),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._stderr = (workdir / "server.log").open("wb")
        started = perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        banner = self.process.stdout.readline()
        self.startup_s = perf_counter() - started
        self.address: Optional[Tuple[str, int]] = None
        if not banner.startswith("serving on "):
            self.close()
            log = (workdir / "server.log").read_text(errors="replace")
            raise RuntimeError(
                f"server did not come up (said {banner!r}); its stderr:\n{log[-2000:]}"
            )
        host, port = banner.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def close(self) -> None:
        """Ask the server to drain and exit; terminate it if it will not."""
        process = self.process
        if process.poll() is None:
            if not self._request_shutdown():
                process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self._stderr.close()

    def _request_shutdown(self) -> bool:
        """Send the protocol's ``shutdown``; False when it cannot be sent."""
        if self.address is None:
            return False
        try:
            with socket.create_connection(self.address, timeout=5) as sock:
                sock.sendall(b'{"op": "shutdown"}\n')
                sock.recv(4096)
        except OSError:
            return False
        return True


class OfferStream:
    """The generated protocol lines, realised slot by slot and kept."""

    def __init__(self, requests: List[Any], seed: int) -> None:
        from repro.api import make_workload
        from repro.utils.seeding import RngRegistry

        rngs = RngRegistry(seed)
        self._demand = make_workload("bursty", requests, rngs.get("perfbench/demand"))
        self._split = rngs.get("perfbench/offers")
        self._n = len(requests)
        self.n_offers = self._n * OFFERS_PER_REQUEST
        self.offers: List[bytes] = []
        self.decides: List[bytes] = []

    def extend(self, n_slots: int) -> None:
        """Realise slots up to ``n_slots`` (in order: the split RNG is shared)."""
        for slot in range(len(self.offers), n_slots):
            parts = self._split.dirichlet(np.ones(OFFERS_PER_REQUEST), size=self._n)
            volumes = parts * self._demand.demand_at(slot)[:, None]
            order = self._split.permutation(self.n_offers)
            lines = [
                json.dumps(
                    {
                        "op": "offer",
                        "request": int(code // OFFERS_PER_REQUEST),
                        "volume_mb": float(volumes.flat[code]),
                    }
                )
                for code in order
            ]
            self.offers.append(("\n".join(lines) + "\n").encode())
            self.decides.append(
                (json.dumps({"op": "decide", "slot": slot}) + "\n").encode()
            )


class Connection:
    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def read_offer_replies(self, count: int) -> int:
        """Read ``count`` offer answers; returns how many were refused."""
        refused = 0
        for _ in range(count):
            if b'"accepted": true' not in self.reader.readline():
                refused += 1
        return refused

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _placement(line: bytes) -> Optional[Dict[str, Any]]:
    reply = json.loads(line)
    return reply["placement"] if reply.get("ok") else None


def _trace_key(placement: Dict[str, Any]) -> tuple:
    return (
        placement["slot"],
        tuple(placement["station_of"]),
        tuple(tuple(pair) for pair in placement["cached"]),
        placement["delay_ms"],
        placement["n_offers"],
        placement["rejected"],
    )


def closed_loop(
    conn: Connection, stream: OfferStream, min_slots: int, seconds: float
) -> Tuple[List[float], List[Optional[Dict[str, Any]]], int]:
    """Slots from 0 until ``seconds`` passed and ``min_slots`` ran.

    Returns (slot seconds, placements, refused offers).
    """
    durations: List[float] = []
    placements: List[Optional[Dict[str, Any]]] = []
    refused = 0
    deadline = perf_counter() + seconds
    slot = 0
    while slot < min_slots or perf_counter() < deadline:
        stream.extend(slot + 1)
        started = perf_counter()
        conn.sock.sendall(stream.offers[slot] + stream.decides[slot])
        refused += conn.read_offer_replies(stream.n_offers)
        line = conn.reader.readline()
        durations.append(perf_counter() - started)
        placements.append(_placement(line))
        slot += 1
    return durations, placements, refused


def open_loop(
    conn: Connection, stream: OfferStream, slots: range
) -> Tuple[List[float], List[float], List[Optional[Dict[str, Any]]], int]:
    """(decide latency from due, send lateness, placements, refused offers)."""
    n = len(slots)
    stream.extend(slots.stop)
    lateness: List[float] = []
    failure: List[BaseException] = []
    start = perf_counter() + 0.01

    def send() -> None:
        try:
            for k, slot in enumerate(slots):
                for offset, payload in (
                    (0.0, stream.offers[slot]),
                    (DECIDE_AT, stream.decides[slot]),
                ):
                    when = start + (k + offset) * OPEN_PERIOD_S
                    pause = when - perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    lateness.append(perf_counter() - when)
                    conn.sock.sendall(payload)
        except OSError as error:
            failure.append(error)

    sender = threading.Thread(target=send, name="perfbench-open-loop")
    sender.start()
    latencies, placements, refused = [], [], 0
    try:
        for k in range(n):
            refused += conn.read_offer_replies(stream.n_offers)
            line = conn.reader.readline()
            latencies.append(perf_counter() - start - (k + DECIDE_AT) * OPEN_PERIOD_S)
            placements.append(_placement(line))
    finally:
        sender.join(timeout=IO_TIMEOUT_S)
    if failure or sender.is_alive():
        raise RuntimeError(f"open-loop sender failed: {failure}")
    return latencies, lateness, placements, refused


class Replayer:
    """An in-process server fed the same protocol lines as the wire."""

    def __init__(self, workload: WireWorkload, checkpoint_dir: Path) -> None:
        from repro.serve import DecisionServer

        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        self.server = DecisionServer(_config(workload, checkpoint_dir))
        self.server.start()

    def step(self, stream: OfferStream, slot: int, tracer: Optional[Tracer] = None) -> float:
        """Handle one slot's lines; returns the slot's seconds."""
        from repro.serve import protocol

        lines = stream.offers[slot].decode().splitlines()
        lines.append(stream.decides[slot].decode())
        if tracer is not None:
            tracer.slot = slot
            root = tracer.begin("slot")
        started = perf_counter()
        for line in lines:
            protocol.handle_line(self.server, line)
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.end(root)
            tracer.slot = -1
        return elapsed

    def placements(self, n_slots: int) -> tuple:
        """The server's placements, one per slot."""
        placements = self.server.placement_history()
        if len(placements) != n_slots:
            raise CheckFailure(f"replay decided {len(placements)} of {n_slots} slots")
        return placements


@dataclass
class WireRun:
    """What the child server did over the wire."""

    startups: List[float]
    durations: List[float]
    placements: List[Optional[Dict[str, Any]]]
    refused: int
    latencies: List[float]
    lateness: List[float]
    peak_rss_mb: float


def drive_server(
    workload: WireWorkload,
    length: RunLength,
    stream: OfferStream,
    *,
    seconds: float,
    open_loop_too: bool,
    root: Path,
    workdir: Path,
) -> WireRun:
    """Start the server ``setup_repeats`` times, then drive the last one."""
    startups: List[float] = []
    for attempt in range(length.setup_repeats):
        server = ServerProcess(workload, root, workdir / f"server{attempt}")
        startups.append(server.startup_s)
        if attempt < length.setup_repeats - 1:
            server.close()
    latencies: List[float] = []
    lateness: List[float] = []
    try:
        conn = Connection(server.address)
        try:
            durations, placements, refused = closed_loop(
                conn,
                stream,
                max(length.warmup_slots + length.min_timed_slots, workload.quality_slots),
                seconds,
            )
            if open_loop_too:
                first = len(placements)
                n_open = max(length.min_timed_slots, int(seconds / OPEN_PERIOD_S))
                latencies, lateness, opened, refused_open = open_loop(
                    conn, stream, range(first, first + n_open)
                )
                placements += opened
                refused += refused_open
        finally:
            conn.close()
    finally:
        server.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return WireRun(
        startups, durations, placements, refused, latencies, lateness, peak_rss_mb
    )


def check_against_replay(
    wire: WireRun, replayed: tuple, service_of: np.ndarray, n_stations: int
) -> None:
    """Valid placements, each equal to the in-process replay's."""
    for slot, (placement, expected) in enumerate(zip(wire.placements, replayed)):
        if placement is None:
            continue
        check_placement(
            np.array(placement["station_of"]),
            np.array(placement["cached"]),
            placement["delay_ms"],
            service_of,
            n_stations,
            where=f"serve_wire slot {slot}",
        )
        if _trace_key(placement) != expected.trace_key():
            raise CheckFailure(
                f"serve_wire slot {slot}: wire placement differs from the "
                "in-process replay of the same offers"
            )


def run_wire_workload(
    workload: WireWorkload,
    length: RunLength,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    log: Any,
) -> Tuple[Dict[str, float], int, int, Optional[Tracer]]:
    """One run; returns (metrics, attempted, failed, tracer-or-None).

    The untraced run is the closed loop only.  The traced run splits its
    time between a closed and an open loop; the open loop's latency from
    due varies too much from run to run on a shared host to carry a
    regression bound, so it is reported per layer.
    """
    from repro.core import OlGdController

    workdir = root / ".perfbench" / f"serve-{os.getpid()}"
    # The replay server is built first: its requests define the offers.
    plain = Replayer(workload, workdir / "replay")
    tracer: Optional[Tracer] = None
    traced: Optional[Replayer] = None
    replay_s: List[float] = []
    traced_s: List[float] = []
    try:
        requests = plain.server.requests
        stream = OfferStream(requests, seed)
        wire = drive_server(
            workload,
            length,
            stream,
            seconds=seconds / 2 if trace else seconds,
            open_loop_too=trace,
            root=root,
            workdir=workdir,
        )
        # The traced run steps a traced server in turn with the plain one,
        # so the tracing overhead is not confounded with drift in host speed.
        if trace:
            tracer = Tracer()
            with instrumented(tracer, (OlGdController,)):
                traced = Replayer(workload, workdir / "traced")
        for slot in range(len(wire.placements)):
            replay_s.append(plain.step(stream, slot))
            if traced is not None:
                with instrumented(tracer, (OlGdController,)):
                    traced_s.append(traced.step(stream, slot, tracer))
    finally:
        plain.server.stop()
        if traced is not None:
            traced.server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    n_slots = len(wire.placements)
    replayed = plain.placements(n_slots)
    service_of = np.array([r.service_index for r in requests], dtype=np.int64)
    check_against_replay(wire, replayed, service_of, workload.n_stations)
    failed_decides = sum(p is None for p in wire.placements)
    attempted = n_slots * (stream.n_offers + 1)
    failed = wire.refused + failed_decides
    timed = wire.durations[length.warmup_slots :]
    print(
        f"serve_wire: {len(wire.durations)} closed-loop + {len(wire.latencies)} "
        f"open-loop slots, {stream.n_offers} offers/slot, "
        f"{len(wire.startups)} server starts",
        file=log,
    )
    metrics = {
        "setup_s": statistics.median(wire.startups),
        "slot_ms_p50": 1e3 * quantile(timed, 0.5),
        "slot_ms_p90": 1e3 * quantile(timed, 0.9),
        "slots_per_s": len(timed) / sum(timed),
        "delay_ms_geomean": geomean(
            [p["delay_ms"] for p in wire.placements[: workload.quality_slots]]
        ),
        "peak_rss_mb": wire.peak_rss_mb,
    }
    if tracer is None or traced is None:
        return metrics, attempted, failed, None

    if [p.trace_key() for p in traced.placements(n_slots)] != [
        p.trace_key() for p in replayed
    ]:
        raise CheckFailure("serve_wire: traced replay decided differently")
    timed_slots = set(range(length.warmup_slots, n_slots))
    open_placements = wire.placements[len(wire.durations) :]
    slo_missed = sum(p is None for p in open_placements) + sum(
        1e3 * x > SLO_MS for x in wire.latencies
    )
    untraced_p50 = quantile(replay_s[length.warmup_slots :], 0.5)
    traced_p50 = quantile(traced_s[length.warmup_slots :], 0.5)
    layer = layer_metrics(
        tracer,
        timed_slots,
        {
            "gan.prediction_mae_mb": 0.0,
            "setup.server_start_ms": 1e3 * statistics.median(wire.startups),
            "serve.wire_decide_ms_p50": 1e3 * quantile(wire.latencies, 0.5),
            "serve.wire_decide_ms_p90": 1e3 * quantile(wire.latencies, 0.9),
            "serve.slo_miss_share": 100.0 * slo_missed / len(wire.latencies),
            "harness.lag_ms_p90": 1e3 * quantile(wire.lateness, 0.9),
            "harness.trace_overhead_share": 100.0 * (traced_p50 / untraced_p50 - 1.0),
        },
    )
    print(breakdown(tracer, timed_slots), file=log)
    return layer, 2 * attempted, failed, tracer
