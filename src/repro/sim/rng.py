"""Named, seeded random streams.

Every stochastic component (netem jitter, application think times, workload
key choice, ...) draws from its own stream derived from a root seed and a
stable name.  This keeps components independent: adding a new random draw in
one module does not perturb the sequence observed by any other module, which
is essential when comparing emulators against a "bare-metal" ground truth run
on the same seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory for deterministic per-component :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The per-stream seed is a SHA-256 of ``(root_seed, name)`` so streams
        are uncorrelated and stable across runs and platforms.
        """
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.root_seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(
                int.from_bytes(digest[:8], "big"))
        return self._streams[name]
