"""Deterministic per-module sub-seed derivation.

All randomness in a run flows from one 64-bit scenario seed. Each module
draws from its own ``numpy`` generator seeded with
``seed XOR sha256(module_name)[:8]`` so that module-level tests and the
end-to-end pipeline see identical streams. A module with several noise
sources spawns one child stream per source from that same seed.
Long per-row uniform draws over photon streams go through
``_uniform_chunks``, which draws the same uniforms a chunk at a time.
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


# Uniforms per draw in the helpers below: the buffer stays in cache
# instead of holding one float64 per row of a stream of 1e7 pairs.
_DRAW_CHUNK = 1 << 16


def _uniform_chunks(rng: np.random.Generator, n: int):
    """rng.random(n) as consecutive (start, uniforms) pieces.

    A Generator's doubles do not depend on how a draw is split, so the
    pieces laid end to end are rng.random(n), and the generator ends in
    the same state.
    """
    for start in range(0, n, _DRAW_CHUNK):
        yield start, rng.random(min(_DRAW_CHUNK, n - start))


def _uniform_below(rng: np.random.Generator, probs, bounds) -> np.ndarray:
    """rng.random(bounds[-1]) < p, with p = probs[k] on rows bounds[k]:bounds[k + 1]."""
    below = np.empty(int(bounds[-1]), dtype=bool)
    for p, lo, hi in zip(probs, bounds[:-1], bounds[1:]):
        for start, u in _uniform_chunks(rng, int(hi - lo)):
            first = int(lo) + start
            np.less(u, p, out=below[first:first + len(u)])
    return below


def _uniforms_at(rng: np.random.Generator, n: int, rows) -> np.ndarray:
    """rng.random(n)[rows].

    When rows is an ascending array of indices in [0, n), such as the
    survivors of a thinning, only one chunk of the n uniforms is held at
    a time; any other index draws all n at once.
    """
    if not isinstance(rows, slice):
        rows = np.asarray(rows)
        if (rows.ndim == 1 and np.issubdtype(rows.dtype, np.integer)
                and (len(rows) == 0 or (rows[0] >= 0 and rows[-1] < n))
                and not np.any(rows[1:] < rows[:-1])):
            out = np.empty(len(rows))
            for start, u in _uniform_chunks(rng, n):
                lo, hi = np.searchsorted(rows, (start, start + len(u)))
                out[lo:hi] = u[rows[lo:hi] - start]
            return out
    return rng.random(n)[rows]
