"""The load generator against fake servers, and the op streams' seeds."""

import asyncio
import functools
import json
import socket
from itertools import islice

import serve
import sim
from measure import SLO_MS

OK_BODY = json.dumps(
    {"status": "ok", "content_hash": "h", "wall_time": 0.001}
).encode()


class FakeServer:
    """Serves requests one at a time, like a server with one busy core.

    ``behaviour(n)`` gives the n-th request ``(status, delay, stalls)``:
    the answer waits ``delay`` seconds, holding up every later request
    when ``stalls``.
    """

    def __init__(self, behaviour):
        self.behaviour = behaviour
        self.count = 0
        self.lock = asyncio.Lock()
        self.handlers = set()

    async def handle(self, reader, writer):
        self.handlers.add(asyncio.current_task())
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass  # request line and headers; the body is ignored
        async with self.lock:
            n = self.count
            self.count += 1
            status, delay, stalls = self.behaviour(n)
            if stalls:
                await asyncio.sleep(delay)
        if not stalls:
            await asyncio.sleep(delay)
        head = (f"HTTP/1.1 {status} X\r\nContent-Length: {len(OK_BODY)}\r\n"
                "X-Repro-Outcome: accepted\r\nConnection: close\r\n\r\n")
        try:
            writer.write(head.encode() + OK_BODY)
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    async def __aenter__(self):
        self.server = await asyncio.start_server(self.handle, serve.HOST, 0)
        return self.server.sockets[0].getsockname()[1]

    async def __aexit__(self, *exc):
        await asyncio.gather(*self.handlers)  # answers nobody waits for
        self.server.close()
        await self.server.wait_closed()


def _schedule(port, n, rate):
    return [(i / rate, port, serve.Op(i, f"h{i}", b"{}")) for i in range(n)]


def test_a_stall_is_carried_by_the_requests_due_behind_it():
    stall_at, stall_s, rate = 5, 0.2, 50.0

    async def main():
        fake = FakeServer(
            lambda n: (200, stall_s if n == stall_at else 0.0, True))
        async with fake as port:
            return await serve.open_loop(_schedule(port, 50, rate))

    results = sorted(asyncio.run(main()), key=lambda r: r["pos"])
    assert all(serve.failure(r) is None for r in results)
    lat = [(r["done"] - r["due"]) * 1e3 for r in results]
    lag = [(r["sent"] - r["due"]) * 1e3 for r in results]
    # the stalled request and the ones due during its stall all wait for
    # it; timing from the due time charges each the stall it sat behind
    assert lat[stall_at] >= 190
    assert lat[stall_at + 1] >= 150
    assert lat[stall_at + 5] >= 80
    # the generator ran out of slots, so the requests due behind the two
    # in flight were sent late, and their lag is part of their latency
    assert max(lag) >= 100
    assert all(lt >= lg for lt, lg in zip(lat, lag))
    # well after the stall, latencies recover
    assert sorted(lat[-10:])[5] < 50
    assert serve.slo_hits(results) < len(results)


def test_non_200_timeout_and_refused_are_failures_and_slo_misses():
    def behaviour(n):
        if n == 1:
            return 503, 0.0, True
        if n == 2:
            return 200, 1.0, False  # outlasts the client's timeout
        return 200, 0.0, True

    with socket.socket() as sock:  # a port nothing listens on
        sock.bind((serve.HOST, 0))
        dead_port = sock.getsockname()[1]

    async def main():
        fake = FakeServer(behaviour)
        async with fake as port:
            schedule = _schedule(port, 6, 50.0)
            schedule[4] = (schedule[4][0], dead_port, schedule[4][2])
            sender = functools.partial(serve.send, timeout=0.3)
            return await serve.open_loop(schedule, sender=sender,
                                         max_inflight=1)

    results = sorted(asyncio.run(main()), key=lambda r: r["pos"])
    why = [serve.failure(r) for r in results]
    assert why[1] == "HTTP 503"
    assert why[2] == "timeout"
    assert why[4].startswith("refused")
    assert [w is None for w in why] == [True, False, False, True, False, True]
    # a failure misses the service level however fast it came back
    fast = [r for r in results if (r["done"] - r["due"]) * 1e3 <= SLO_MS]
    assert serve.slo_hits(results) == sum(
        1 for r in fast if serve.failure(r) is None)
    assert serve.slo_hits(results) <= 3
    assert len(serve.answer_violations(results)) == 3


def test_closed_loop_clients_send_back_to_back():
    async def main():
        fake = FakeServer(lambda n: (200, 0.005, True))
        async with fake as port:
            ops = iter(op for _, _, op in _schedule(port, 10**4, 1.0))
            return await serve.closed_loop([(port, ops)] * 2, 0.3)

    results, wall = asyncio.run(main())
    assert 0.3 <= wall < 1.0
    assert len({r["pos"] for r in results}) == len(results) > 20


def test_the_seed_fixes_the_serve_op_stream():
    a = list(islice(serve.serve_ops(7), 1500))
    assert a == list(islice(serve.serve_ops(7), 1500))
    assert a != list(islice(serve.serve_ops(8), 1500))
    repeats = [op for op in a if op.source is not None]
    assert 0.10 < len(repeats) / len(a) < 0.20
    for op in repeats:
        src = a[op.source]
        assert src.source is None and op.body == src.body
        assert op.pos - op.source >= serve.REPEAT_GAP
    firsts = [op for op in a if op.source is None]
    assert len({op.job_hash for op in firsts}) == len(firsts)
    phase = sum(b"phase_statistics" in op.body for op in firsts) / len(firsts)
    assert abs(phase - serve.PHASE_SHARE) < 0.05


def test_the_seed_fixes_the_sim_op_seeds():
    assert sim.large_seeds(7) == sim.large_seeds(7) != sim.large_seeds(8)
    assert len(set(sim.large_seeds(7))) == sim.LARGE_SEEDS
    rounds = [sim.mix_seed(7, k) for k in range(50)]
    assert rounds == [sim.mix_seed(7, k) for k in range(50)]
    assert len(set(rounds)) == 50
