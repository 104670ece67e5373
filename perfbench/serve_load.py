"""Load generation against a ``repro serve`` process.

One asyncio generator in the harness process sends every request, over
at most ``connections`` concurrent connections (the server closes each
connection after its response).

* Open loop: requests fall due on a seeded Poisson schedule at a fixed
  rate, whether or not earlier ones finished, and each is timed from
  its due time, so waiting for a free connection counts.  How late the
  generator woke after each due time is recorded; a phase whose p99
  lateness passes ``LATE_LIMIT_MS`` is invalid.
* Closed loop: each connection sends its next request when the last
  one completes; completions per second is the capacity.

Every response is checked against the reference rows of its database.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import speed

#: p99 generator lateness beyond which an open-loop phase is invalid:
#: the generator fell behind its schedule by about a request's latency.
LATE_LIMIT_MS = 15.0

@dataclass
class Sample:
    key: str  # the database asked
    due: float
    woke: float
    sent: float = 0.0
    done: float = 0.0
    http_status: int = 0
    server_wall_s: float = 0.0
    body_bytes: int = 0
    payload: bytes = b""
    ok: bool = False
    #: raw to host-adjusted time, from the probes around its segment
    scale: float = 1.0


@dataclass
class Phase:
    """One load level, run as several segments; samples are pooled."""

    name: str
    seconds: float = 0.0
    #: ``seconds``, each segment's scaled by its probes
    adjusted_seconds: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    #: ``serve.requests_ok`` the server counted during the segments
    server_ok: int = 0

    @property
    def ok_count(self) -> int:
        return sum(s.http_status == 200 for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)


async def _http(port: int, verb: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{verb} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


class LoadGenerator:
    """Sends the request mix and checks each answer."""

    def __init__(
        self,
        port: int,
        databases: List[Dict],
        seed: int,
        connections: int,
        probe: Callable[[], float],
    ) -> None:
        self.port = port
        #: times the host-speed probe where the server runs
        self.probe = probe
        #: the probe's times, one before each segment and one at the end
        self.probes: List[float] = []
        #: database -> (query, its reference rows, sorted)
        self.expected = {
            db["name"]: (db["query"], sorted(map(tuple, db["rows"]), key=repr))
            for db in databases
        }
        self.names = sorted(self.expected)
        self.rng = random.Random(seed)
        self.deck: List[str] = []
        self.connections = connections
        self.seen: set = set()
        self.repeats = 0
        self.sent = 0

    def _next(self) -> str:
        # One query per database, default options: the database is the
        # key.  Databases are dealt from a shuffled deck, so every stretch
        # of requests asks each about equally often: the seed moves the
        # order and the arrival times, not the mix.
        if not self.deck:
            self.deck = self.rng.sample(self.names, len(self.names))
        name = self.deck.pop()
        self.sent += 1
        if name in self.seen:
            self.repeats += 1
        self.seen.add(name)
        return name

    async def _send(self, sample: Sample) -> None:
        name = sample.key
        query = self.expected[name][0]
        sample.sent = time.perf_counter()
        try:
            sample.http_status, sample.payload = await _http(
                self.port, "POST", f"/solve/{name}", json.dumps({"query": query}).encode()
            )
        except (OSError, ValueError, IndexError):  # a failed request
            pass
        sample.done = time.perf_counter()

    def check(self, sample: Sample) -> None:
        """Compares one answer with the reference, after its phase, so
        that decoding never delays the generator."""
        sample.body_bytes = len(sample.payload)
        if sample.http_status != 200:
            return
        try:
            body = json.loads(sample.payload)
        except ValueError:
            return
        sample.server_wall_s = body.get("wall_s", 0.0)
        rows = sorted(map(tuple, body.get("rows", [])), key=repr)
        sample.ok = body.get("status") == "complete" and rows == self.expected[sample.key][1]
        sample.payload = b""

    async def open_loop(self, phase: Phase, rate: float, seconds: float) -> None:
        slots = asyncio.Semaphore(self.connections)

        async def one(sample: Sample) -> None:
            async with slots:
                await self._send(sample)

        tasks = []
        start = time.perf_counter() + 0.01
        due = start + self.rng.expovariate(rate)
        while due < start + seconds:
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sample = Sample(self._next(), due, time.perf_counter())
            phase.samples.append(sample)
            tasks.append(asyncio.create_task(one(sample)))
            due += self.rng.expovariate(rate)
        await asyncio.gather(*tasks)

    async def closed_loop(self, phase: Phase, seconds: float) -> None:
        deadline = time.perf_counter() + seconds

        async def client() -> None:
            while time.perf_counter() < deadline:
                now = time.perf_counter()
                sample = Sample(self._next(), now, now)
                phase.samples.append(sample)
                await self._send(sample)

        await asyncio.gather(*(client() for _ in range(self.connections)))

    async def requests_ok(self) -> int:
        status, payload = await _http(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        for line in payload.decode().splitlines():
            if line.startswith("repro_serve_requests_ok_total "):
                return int(line.split()[1])
        return 0

    async def run(self, phase: Phase, rate: Optional[float], seconds: float) -> None:
        """One segment of ``phase``; closed loop when ``rate`` is None.
        The host's speed is probed just before and just after it, with
        no request in flight.  Afterwards the server's own count of its
        200s is read, and the answers are checked."""
        before = await self.requests_ok()
        start = len(phase.samples)
        if not self.probes:
            self.probes.append(self.probe())
        if rate is None:
            await self.closed_loop(phase, seconds)
        else:
            await self.open_loop(phase, rate, seconds)
        self.probes.append(self.probe())
        scale = speed.factor(self.probes[-2], self.probes[-1])
        phase.seconds += seconds
        phase.adjusted_seconds += seconds * scale
        phase.server_ok += await self.requests_ok() - before
        for sample in phase.samples[start:]:
            sample.scale = scale
            self.check(sample)


# -- the server process ------------------------------------------------------


class Server:
    """``repro serve`` in its own process, launched and stopped here."""

    def __init__(
        self, argv: List[str], env: Dict[str, str], workdir: str, cpus: Optional[Set[int]]
    ) -> None:
        """Launches the server, pinned to ``cpus`` unless None."""
        self.port_file = os.path.join(workdir, "serve.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(os.path.join(workdir, "serve.log"), "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + ["--port", "0", "--port-file", self.port_file],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=self.log,
            preexec_fn=lambda: speed.pin(cpus),
        )
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from launch until ``/readyz`` answered 200, raw."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if not self.port:
                try:
                    with open(self.port_file, encoding="utf-8") as handle:
                        self.port = int(handle.read().strip() or 0)
                except (OSError, ValueError):
                    pass
            if self.port:
                try:
                    status, _ = asyncio.run(_http(self.port, "GET", "/readyz"))
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("server not ready in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (the server drains), then wait for it to exit."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                return self.proc.wait()
        finally:
            self.log.close()
