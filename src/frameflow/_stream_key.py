"""The seed sequence of a path's Philox stream, kept apart from the engine
because it imports numpy.random, which ``import frameflow`` does not load."""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class StreamKey:
    """A seed sequence whose state is the Philox key (seed, stream), both
    taken modulo 2**64.

    Passing the key itself to Philox also builds a ``SeedSequence(None)``,
    which gathers OS entropy for nothing: 11 to 18 us a stream against 6 to 7.
    Registered rather than derived, so that a key has no ``__dict__``."""

    __slots__ = ("seed", "stream")

    def __init__(self, seed: int, stream: int):
        mask = (1 << 64) - 1
        self.seed, self.stream = seed & mask, stream & mask

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array([self.seed, self.stream], dtype=np.uint64)


ISeedSequence.register(StreamKey)
