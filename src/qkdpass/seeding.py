"""Deterministic per-module sub-seed derivation.

All randomness in a run flows from one 64-bit scenario seed. Each module
draws from its own ``numpy`` generator seeded with
``seed XOR sha256(module_name)[:8]``. The layers take generators, not
seeds, so a module-level test that builds the pipeline's generator with
``module_rng`` or ``module_streams`` sees the pipeline's streams. A
module with several noise sources spawns one child stream per source
from that same seed.
Long per-row draws over photon streams go through ``_uniform_below``
(thinning) and ``_add_normal`` (timing jitter), which draw the same
values as one whole draw, a chunk at a time; the normals are truncated
at NORMAL_BOUND standard deviations, which no draw reaches in practice.
Channel codes drawn a block at a time go through ``_two_bit_codes``.
"""
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, module_name: str) -> int:
    """Sub-seed for ``module_name``: seed XOR leading 8 bytes of its SHA-256."""
    digest = hashlib.sha256(module_name.encode("utf-8")).digest()
    tag = int.from_bytes(digest[:8], "little")
    return (int(seed) ^ tag) & _MASK64


def module_rng(seed: int, module_name: str) -> np.random.Generator:
    """PCG64 generator for one module's randomness within a run."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, module_name)))


def module_streams(seed: int, module_name: str, count: int) -> list[np.random.Generator]:
    """PCG64 generators for count noise sources, spawned from module_rng's seed sequence."""
    children = np.random.SeedSequence(derive_seed(seed, module_name)).spawn(count)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


# Uniforms per draw in _uniform_below: the buffer stays in cache
# instead of holding one float64 per row of a stream of 1e7 pairs.
_DRAW_CHUNK = 1 << 16


def _uniform_below(rng: np.random.Generator, probs, bounds) -> np.ndarray:
    """rng.random(bounds[-1]) < p, with p = probs[k] on rows bounds[k]:bounds[k + 1].

    The uniforms are drawn _DRAW_CHUNK at a time. A Generator's doubles
    do not depend on how a draw is split, so these are the uniforms of
    one whole draw, and the generator ends in the same state.
    """
    below = np.empty(int(bounds[-1]), dtype=bool)
    for p, lo, hi in zip(probs, bounds[:-1], bounds[1:]):
        for start in range(int(lo), int(hi), _DRAW_CHUNK):
            stop = min(start + _DRAW_CHUNK, int(hi))
            np.less(rng.random(stop - start), p, out=below[start:stop])
    return below


# Standard normals _add_normal truncates at, in units of its scale: one
# lies beyond with probability 1.5e-23, so the truncation only gives a
# consumer a hard bound on how far a value can move.
NORMAL_BOUND = 10.0


def _add_normal(rng: np.random.Generator, values: np.ndarray, scale: float) -> None:
    """values += rng.normal(0.0, scale, len(values)), in place.

    The normals are drawn _DRAW_CHUNK at a time as scale times
    standard normals clipped at +/-NORMAL_BOUND: rng.normal computes
    0.0 + scale * z from the same z, so the sums and the generator's
    final state are those of one whole draw.
    """
    for start in range(0, len(values), _DRAW_CHUNK):
        block = values[start:start + _DRAW_CHUNK]
        z = rng.standard_normal(len(block))
        np.clip(z, -NORMAL_BOUND, NORMAL_BOUND, out=z)
        z *= scale
        block += z


def _two_bit_codes(rng: np.random.Generator, spare: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next n uniform two-bit codes, and the spare codes left over.

    The codes are spare first, then the low two bits of each byte of
    raw 64-bit words, little-endian, eight codes a word. Whole words are
    drawn, and the codes not given out come back as the next call's
    spare, so the codes do not depend on how a stream is split into
    calls (a split integers(0, 4) draw would not repeat one whole draw).
    """
    words = rng.integers(0, 2**64 - 1, size=-(-(n - len(spare)) // 8),
                         dtype=np.uint64, endpoint=True)
    fresh = words.astype("<u8", copy=False).view(np.uint8) & 3
    codes = np.concatenate([spare, fresh]) if len(spare) else fresh
    return codes[:n], codes[n:].copy()
