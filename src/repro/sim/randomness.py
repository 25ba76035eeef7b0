"""Deterministic randomness for simulation runs.

Every stochastic component (Poisson traffic, attack start jitter, nonce
generation, probabilistic packet marking) draws from a :class:`SeededRandom`
owned by the scenario, so a run is fully reproducible from its seed.  Child
streams derived with :meth:`SeededRandom.fork` keep components independent:
adding a new traffic source does not perturb the draws seen by existing ones.
"""

from __future__ import annotations

import random
import zlib
from functools import cached_property
from typing import Any, Optional, Sequence, TypeVar

T = TypeVar("T")


def stable_seed(*parts: Any) -> int:
    """A positive seed derived from ``parts``, stable across processes.

    Built on CRC-32 of the parts' reprs rather than Python's ``hash()``,
    which is randomised per process for strings (PYTHONHASHSEED): the same
    component name must produce the same stream in a sweep worker, in a
    fresh interpreter, and on a different machine, or runs are not
    reproducible from their seeds.
    """
    return zlib.crc32("\x1f".join(repr(p) for p in parts).encode("utf-8")) & 0x7FFFFFFF


class SeededRandom:
    """A named, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self._seed = int(seed)
        self._name = name
        self._children = 0

    @cached_property
    def _rng(self) -> random.Random:
        # Built by the first draw (2.5 kB of state; a fleet forks two streams
        # per router and draws from almost none).  Seeds and fork order are
        # fixed at construction, so no stream's draws depend on when.
        return random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    @property
    def name(self) -> str:
        """Human-readable stream name (for debugging)."""
        return self._name

    def fork(self, name: str) -> "SeededRandom":
        """Create an independent child stream.

        The child's seed is derived from the parent's seed, the child's
        name, and the fork order (via :func:`stable_seed`, so forks are
        stable across runs *and* across processes as long as the creation
        order is stable).
        """
        self._children += 1
        child_seed = stable_seed(self._seed, name, self._children)
        return SeededRandom(child_seed, name=f"{self._name}/{name}")

    # ------------------------------------------------------------------
    # draws used across the codebase
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high)."""
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time for a Poisson process of ``rate`` per second."""
        return self._rng.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def chance(self, probability: float) -> bool:
        """Bernoulli draw: True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list:
        """Sample ``k`` distinct elements."""
        return self._rng.sample(seq, k)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(items)

    def nonce(self, bits: int = 64) -> int:
        """Random nonce used by the AITF 3-way handshake."""
        return self._rng.getrandbits(bits)

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """Pareto draw (heavy-tailed flow sizes / burst lengths)."""
        return scale * self._rng.paretovariate(shape)

    def gauss(self, mean: float, stddev: float) -> float:
        """Normal draw."""
        return self._rng.gauss(mean, stddev)

    def jitter(self, value: float, fraction: float = 0.1) -> float:
        """Return ``value`` perturbed by up to +/- ``fraction`` of itself."""
        if fraction <= 0:
            return value
        return value * (1.0 + self.uniform(-fraction, fraction))


def default_rng(seed: Optional[int] = None) -> SeededRandom:
    """Convenience constructor: seed 0 unless told otherwise."""
    return SeededRandom(0 if seed is None else seed)
