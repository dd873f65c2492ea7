"""Deterministic random-stream handling.

Every stochastic routine takes an explicit stream description instead
of a bare seed so that replicate sets are reproducible and nested:
stream ``i`` of a given master seed is always the same, no matter how
many streams are drawn around it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class RngStreamSpec:
    """A named random stream: a 64-bit master seed plus a stream id."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for value in (self.master_seed, self.stream_id):
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ConfigError(f"seed and stream id must be integers, "
                                  f"got {value!r}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError(f"seed {self.master_seed} must lie in "
                              f"[0, 2**64)")
        if self.stream_id < 0:
            raise ConfigError("stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        """Instantiate the generator for this stream."""
        ss = np.random.SeedSequence(self.master_seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, offset: int) -> "RngStreamSpec":
        """Derive a sibling stream at ``stream_id + offset``."""
        return RngStreamSpec(self.master_seed, self.stream_id + offset)


def as_stream(seed) -> RngStreamSpec:
    """Coerce an integer seed or RngStreamSpec into an RngStreamSpec."""
    if isinstance(seed, RngStreamSpec):
        return seed
    return RngStreamSpec(seed)
