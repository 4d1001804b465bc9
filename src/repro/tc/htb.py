"""Hierarchical token bucket qdisc (bandwidth shaping).

The htb qdisc enforces a rate by metering packets against a token bucket:
tokens accrue at ``rate`` bits/s up to ``burst`` bits; a packet dequeues when
enough tokens are available, otherwise it waits in a finite FIFO.  Crucially
— and this is the behaviour the paper's congestion model works around — when
the FIFO is full the qdisc does **not** drop: the enqueue call reports
back-pressure, which models TCP Small Queues throttling the sender's socket
(blocking I/O blocks; non-blocking I/O sees zero bytes written).

The simulated implementation is event-driven: :meth:`HtbClass.enqueue`
returns the packet's dequeue (transmission-complete) time, from which the
caller schedules delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["HtbClass", "HtbQdisc", "BackPressure"]


class BackPressure(Exception):
    """Raised when the class queue is full; the sender must slow down."""

    def __init__(self, retry_at: float) -> None:
        super().__init__(f"htb queue full, retry at {retry_at:.6f}")
        self.retry_at = retry_at


@dataclass(slots=True)
class HtbClass:
    """One htb class: token-bucket pacing at ``rate`` with a finite queue.

    ``queue_bits`` bounds the backlog (default 128 full-size 1500 B frames,
    matching txqueuelen-scale defaults); ``burst`` is the bucket depth.
    """

    rate: float
    burst: float = 1500 * 8.0 * 10
    queue_bits: float = 1500 * 8.0 * 128
    # Internal pacing state: when the head of line finishes transmitting.
    _horizon: float = field(default=0.0, repr=False)
    bits_sent: float = field(default=0.0, repr=False)
    packets_sent: int = field(default=0, repr=False)
    backpressure_events: int = field(default=0, repr=False)

    def set_rate(self, rate: float) -> None:
        """Change the shaping rate; takes effect for subsequent packets."""
        if rate <= 0:
            raise ValueError(f"htb rate must be positive: {rate}")
        self.rate = rate

    def backlog_bits(self, now: float) -> float:
        """Bits queued but not yet transmitted at simulated time ``now``."""
        return max(0.0, (self._horizon - now) * self.rate)

    def enqueue(self, now: float, size_bits: float) -> float:
        """Admit one packet; returns the time its transmission completes.

        Raises :class:`BackPressure` when the backlog would exceed the
        queue bound; the exception carries the earliest retry time.
        """
        horizon = self._horizon
        rate = self.rate
        # Same arithmetic as :meth:`backlog_bits`, kept inline: this runs
        # once per packet.
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
        # Serialization starts when the head of line clears.  (An idle
        # bucket releases a packet after its serialization time alone,
        # whatever ``burst`` is: nothing is queued ahead of it.)
        start = horizon if horizon > now else now
        finish = start + size_bits / (rate if rate > 1e-9 else 1e-9)
        self._horizon = finish
        self.bits_sent += size_bits
        self.packets_sent += 1
        return finish

    def reset_counters(self) -> None:
        self.bits_sent = 0.0
        self.packets_sent = 0


class HtbQdisc:
    """The per-interface htb root: one class per destination.

    Mirrors the paper's layout — "for each destination, Kollaps creates a
    htb qdisc that enforces the bandwidth allocated to flows towards that
    destination".
    """

    def __init__(self, default_rate: float = 10e9) -> None:
        self.default_rate = default_rate
        self._classes: Dict[int, HtbClass] = {}

    def ensure_class(self, class_id: int,
                     rate: Optional[float] = None) -> HtbClass:
        """The class ``class_id``, created at ``rate`` if it does not exist.

        ``rate=None`` selects the qdisc's default rate; any other rate must
        be positive, exactly as :meth:`HtbClass.set_rate` demands.
        """
        if class_id not in self._classes:
            if rate is None:
                rate = self.default_rate
            elif rate <= 0:
                raise ValueError(f"htb rate must be positive: {rate}")
            self._classes[class_id] = HtbClass(rate)
        return self._classes[class_id]

    def remove_class(self, class_id: int) -> None:
        try:
            del self._classes[class_id]
        except KeyError:
            raise KeyError(f"no htb class {class_id}") from None

    def get_class(self, class_id: int) -> HtbClass:
        try:
            return self._classes[class_id]
        except KeyError:
            raise KeyError(f"no htb class {class_id}") from None

    def set_rate(self, class_id: int, rate: float) -> None:
        self.ensure_class(class_id).set_rate(rate)

    def classes(self) -> Dict[int, HtbClass]:
        return dict(self._classes)

    def total_bits_sent(self) -> float:
        return sum(cls.bits_sent for cls in self._classes.values())
