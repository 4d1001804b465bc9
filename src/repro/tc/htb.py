"""htb class: bandwidth shaping for one destination.

Each packet is paced at ``rate``: it starts serializing when the packet
ahead of it has finished (or at once on an idle class) and leaves
``size / rate`` later, so :meth:`HtbClass.enqueue` returns the packet's
dequeue (transmission-complete) time, from which the caller schedules
delivery.  The backlog still waiting is bounded by ``queue_bits``.
Crucially — and this is the behaviour the paper's congestion model works
around — a packet that would overflow it is **not** dropped: ``enqueue``
raises :class:`BackPressure` with the earliest time it would fit, which
models TCP Small Queues throttling the sender's socket (a blocking write
waits until then).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["HtbClass", "BackPressure"]


class BackPressure(Exception):
    """Raised when the class queue is full; the sender must slow down."""

    def __init__(self, retry_at: float) -> None:
        super().__init__(f"htb queue full, retry at {retry_at:.6f}")
        self.retry_at = retry_at


@dataclass(slots=True)
class HtbClass:
    """One htb class: pacing at ``rate`` behind a finite queue.

    ``queue_bits`` bounds the backlog (default 128 full-size 1500 B frames,
    matching txqueuelen-scale defaults).
    """

    rate: float
    queue_bits: float = 1500 * 8.0 * 128
    # Internal pacing state: when the head of line finishes transmitting.
    _horizon: float = field(default=0.0, repr=False)
    bits_sent: float = field(default=0.0, repr=False)
    packets_sent: int = field(default=0, repr=False)
    backpressure_events: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.set_rate(self.rate)

    def set_rate(self, rate: float) -> None:
        """Change the shaping rate; takes effect for subsequent packets."""
        if rate <= 0:
            raise ValueError(f"htb rate must be positive: {rate}")
        self.rate = rate

    def admits(self, now: float, size_bits: float) -> bool:
        """Whether :meth:`enqueue` at ``now`` would take the packet — its
        admission test, with nothing counted and nothing raised."""
        horizon = self._horizon
        backlog = (horizon - now) * self.rate if horizon > now else 0.0
        return backlog + size_bits <= self.queue_bits + 1e-6

    def enqueue(self, now: float, size_bits: float) -> float:
        """Admit one packet; returns the time its transmission completes.

        Raises :class:`BackPressure` when the backlog would exceed the
        queue bound; the exception carries the earliest retry time.
        """
        horizon = self._horizon
        rate = self.rate
        # Same arithmetic as :meth:`admits`, kept inline: this runs once
        # per packet.
        backlog = (horizon - now) * rate if horizon > now else 0.0
        # The admission test carries a one-micro-bit tolerance, and the
        # retry delay a 1 ns floor: ``backlog`` is reconstructed from the
        # pacing horizon in floating point, so an exactly-full queue can
        # otherwise read as "over by 1e-12 bits" and produce a retry time
        # that does not advance the clock.
        if backlog + size_bits > self.queue_bits + 1e-6:
            self.backpressure_events += 1
            drain_time = (backlog + size_bits - self.queue_bits) / rate
            raise BackPressure(now + max(drain_time, 1e-9))
        # Serialization starts when the head of line clears; an idle class
        # releases a packet after its serialization time alone.
        start = horizon if horizon > now else now
        finish = start + size_bits / (rate if rate > 1e-9 else 1e-9)
        self._horizon = finish
        self.bits_sent += size_bits
        self.packets_sent += 1
        return finish

