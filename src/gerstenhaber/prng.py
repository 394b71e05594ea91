"""Deterministic pseudo random numbers for the verification suites.

The generator is SplitMix64 (Steele, Lea, Flood 2014): state advances by the
odd constant 0x9E3779B97F4A7C15 and each output is a finalized mix of the
state.  It is implemented here in full so that a seed produces the same trial
sequence on any platform or Python version; the standard library generator is
deliberately not used.
"""

from __future__ import annotations

MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return (z ^ (z >> 31)) & MASK

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top multiple of n."""
        if n <= 0:
            raise ValueError("empty range")
        lim = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < lim:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randrange(len(pool))))
        return out
