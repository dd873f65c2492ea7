"""Validation of random-stream descriptions."""

import numpy as np
import pytest

from cellpp.errors import ConfigError
from cellpp.rng import RngStreamSpec, as_stream


@pytest.mark.parametrize("seed, stream_id", [
    (3.7, 0), (3.0, 0), (True, 0), ("3", 0), (3, 1.5), (3, False),
], ids=["float-seed", "integral-float-seed", "bool-seed", "str-seed",
        "float-stream", "bool-stream"])
def test_non_integer_seeds_are_refused(seed, stream_id):
    with pytest.raises(ConfigError, match="must be integers"):
        RngStreamSpec(seed, stream_id)


def test_as_stream_does_not_truncate():
    with pytest.raises(ConfigError):
        as_stream(2.5)


def test_numpy_integers_pass():
    spec = RngStreamSpec(np.int64(3), np.uint32(2))
    assert (spec.generator().random() ==
            RngStreamSpec(3, 2).generator().random())
    assert as_stream(np.int32(3)) == RngStreamSpec(3)


def test_substream_does_not_truncate():
    assert RngStreamSpec(1, 2).substream(np.int64(3)) == RngStreamSpec(1, 5)
    with pytest.raises(ConfigError):
        RngStreamSpec(1).substream(2.5)
