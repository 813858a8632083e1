"""Deterministic counter-based random stream.

The generator is a pure function of ``(seed, counter)`` so that independent
implementations can reproduce streams exactly:

    draw k (1-based):  mix64((seed + k * GAMMA) mod 2^64)

where ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` is the SplitMix64
finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2^64).  Uniform doubles in [0, 1) take the top 53 bits
of a draw: ``(u64 >> 11) * 2^-53``.  Normal variates use Box-Muller on
consecutive uniforms, two uniforms per pair of normals:

    r  = sqrt(-2 ln(1 - u1))
    z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

``normals(k)`` draws ceil(k/2) pairs and discards the unused half of the
final pair when k is odd, so consumption is aligned per call.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_VECTOR_MIN = 64  # fewer draws run faster one by one than through numpy's set-up


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class RngStream:
    """Splittable counter-based 64-bit generator (SplitMix64 core)."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK
        self.counter = counter

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64((self.seed + self.counter * _GAMMA) & _MASK)

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits of a draw."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, k: int) -> np.ndarray:
        """k draws of ``uniform``, bit for bit, as a float64 array of shape (k,).

        From 64 draws on they are computed in wrapping uint64 numpy, in place
        on one buffer of draws and one of shifted copies.
        """
        if k < _VECTOR_MIN:
            return np.array([self.uniform() for _ in range(k)], dtype=float)
        z = np.arange(1, k + 1, dtype=np.uint64)
        z += np.uint64(self.counter & _MASK)
        self.counter += k
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.seed)
        shifted = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=shifted)
            z ^= shifted
            z *= np.uint64(mix)
        np.right_shift(z, np.uint64(31), out=shifted)
        z ^= shifted
        z >>= np.uint64(11)
        out = z.astype(float)
        out *= 2.0**-53
        return out

    def normals(self, k: int) -> list[float]:
        """k standard normals via Box-Muller, two uniforms per pair."""
        out = []
        for _ in range((k + 1) // 2):
            u1 = self.uniform()
            u2 = self.uniform()
            r = math.sqrt(-2.0 * math.log(1.0 - u1))
            out.append(r * math.cos(2.0 * math.pi * u2))
            out.append(r * math.sin(2.0 * math.pi * u2))
        return out[:k]

    def normal(self) -> float:
        return self.normals(1)[0]

    def split(self, key: int) -> "RngStream":
        """Child stream decorrelated from the parent and from other keys.

        Child seed = mix64(seed XOR mix64((key + 1) * GAMMA)); the child
        starts at counter 0, so its draws do not depend on how much the
        parent has consumed.
        """
        return RngStream(self.seed ^ _mix64(((key + 1) * _GAMMA) & _MASK))


def rng_stream(seed: int) -> RngStream:
    """Deterministic generator handle for a 64-bit seed."""
    return RngStream(seed)
