"""HTTP server and the two client shapes of §5.3.

* :class:`Wrk2Client` — keep-alive connections issuing back-to-back
  requests (wrk2's closed-loop mode: 100 connections over 2 threads in the
  paper); each response (~64 KB) streams over the established connection,
  so the cost per request is one request round trip plus the transfer.
* :class:`CurlSwarm` — one *fresh TCP connection per request*: handshake,
  slow-start ramp (the response is sent in exponentially growing rounds),
  teardown.  Every connection is new state for full-state emulators —
  exactly what melts Mininet's switches in Figure 6.

The server is a single-queue resource with a small per-request service
time; payloads travel as packets through the data plane so every shaping
and switch-overhead effect applies.
"""

from __future__ import annotations

import itertools
from typing import List

from repro.apps.rpc import ClosedLoop, FifoServer, Latencies
from repro.netstack.packet import Packet
from repro.sim import Simulator

__all__ = ["HttpServer", "Wrk2Client", "CurlSwarm"]

_REQUEST_BITS = 200 * 8.0
_MSS_BITS = 1448 * 8.0
_HANDSHAKE_PACKET_BITS = 66 * 8.0
_INITIAL_WINDOW_BITS = 10 * _MSS_BITS
_SERVICE_TIME = 100e-6


class HttpServer(FifoServer):
    """A single-threaded HTTP server: FIFO service, fixed response size.

    A response leaves when its service ends (``sim.at``, then a send), not
    through ``plane.send_at``: curl's handshakes and later rounds leave the
    same container outside the queue, which ``send_at`` does not allow.
    """

    def __init__(self, sim: Simulator, plane, name: str, *,
                 response_bits: float = 64 * 1024 * 8.0) -> None:
        super().__init__(sim, plane, name, _SERVICE_TIME)
        self.response_bits = response_bits
        self._connections = itertools.count()

    def accept(self) -> int:
        """Number one new connection to this server (0, 1, ...)."""
        return next(self._connections)

    def serve(self, respond, *args) -> None:
        """Queue one request; call ``respond(*args)`` when it is served."""
        self.sim.at(self.finish(self.sim.now), respond, *args)


class Wrk2Client(ClosedLoop):
    """Closed-loop keep-alive client: ``connections`` parallel streams."""

    _LOOPS = "connections"

    def __init__(self, sim: Simulator, plane, source: str,
                 server: HttpServer, *, connections: int = 100,
                 start: float = 0.0, stop: float = float("inf")) -> None:
        super().__init__(sim, plane, source, loops=connections, start=start,
                         stop=stop)
        self.server = server

    def _issue(self) -> None:
        now = self.sim.now
        if now >= self.stop_time:
            return
        request = Packet(self.source, self.server.name, _REQUEST_BITS,
                         kind="http-request", created=now)
        self.plane.send(request, self._at_server, self._retry)

    def _at_server(self, request: Packet) -> None:
        self.server.serve(self._send_response, request.created)

    def _send_response(self, created: float) -> None:
        response = Packet(self.server.name, self.source,
                          self.server.response_bits, kind="http-response",
                          created=created)
        self.plane.send(response, self._on_response, self._retry)

    def _on_response(self, response: Packet) -> None:
        self.stats.record(self.sim.now - response.created, response.size_bits)
        self._issue()


class CurlSwarm:
    """``clients`` independent curl loops: new connection per request.

    Each request performs a handshake (SYN / SYN-ACK as real packets), then
    receives the response in slow-start rounds: the server sends one burst
    per round, doubling from a 10-segment initial window, each round
    costing a full round trip (the defining cost of short flows).  The
    per-round bursts travel as packets tagged with the server's number for
    the connection, so full-state emulators pay their per-connection
    price.
    """

    def __init__(self, sim: Simulator, plane, sources: List[str],
                 server: HttpServer) -> None:
        self.server = server
        self.stats = Latencies()
        self.clients = [_Curl(sim, plane, source, server, self.stats)
                        for source in sources]


class _Curl(ClosedLoop):
    """One curl loop of a :class:`CurlSwarm`, recording into its stats.

    Every packet of a connection carries the connection's number as its
    payload and the request's start as ``created``.
    """

    backoff = 0.100

    def __init__(self, sim: Simulator, plane, source: str,
                 server: HttpServer, stats: Latencies) -> None:
        super().__init__(sim, plane, source, loops=1)
        self.server = server
        self.stats = stats

    def _issue(self) -> None:
        now = self.sim.now
        if now >= self.stop_time:
            return
        connection = self.server.accept()
        syn = Packet(self.source, self.server.name, _HANDSHAKE_PACKET_BITS,
                     f"syn:{connection}", connection, now)
        self.plane.send(syn, self._syn_ack, self._retry)

    def _syn_ack(self, syn: Packet) -> None:
        syn_ack = Packet(self.server.name, self.source,
                         _HANDSHAKE_PACKET_BITS, syn.kind, syn.payload,
                         syn.created)
        self.plane.send(syn_ack, self._send_get, self._retry)

    def _send_get(self, syn_ack: Packet) -> None:
        connection = syn_ack.payload
        get = Packet(self.source, self.server.name, _REQUEST_BITS,
                     f"http:{connection}", connection, syn_ack.created)
        self.plane.send(get, self._at_server, self._retry)

    def _at_server(self, get: Packet) -> None:
        self.server.serve(self._stream, get, self.server.response_bits,
                          _INITIAL_WINDOW_BITS)

    def _stream(self, get: Packet, remaining: float, window: float) -> None:
        burst = min(window, remaining)
        chunk = Packet(self.server.name, self.source, burst, get.kind,
                       get.payload, get.created)
        left = remaining - burst

        def on_chunk(_chunk: Packet) -> None:
            if left <= 0:
                self.stats.record(self.sim.now - get.created,
                                  self.server.response_bits)
                self._issue()
            else:
                # The client's ack releases the next, doubled round.
                ack = Packet(self.source, self.server.name,
                             _HANDSHAKE_PACKET_BITS, get.kind, get.payload,
                             get.created)
                self.plane.send(
                    ack, lambda _ack: self._stream(get, left, window * 2),
                    self._retry)

        self.plane.send(chunk, on_chunk, self._retry)
