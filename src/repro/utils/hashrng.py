"""Counter-based deterministic random numbers.

The market simulator must be able to answer "what was coin ``c``'s price at
hour ``h``" in O(1), with the *same* answer regardless of which window the
query came from (feature windows overlap across pump events).  A stateful
generator cannot provide that; a counter-based hash can.  We implement a
vectorised SplitMix64-style mixer over ``uint64`` keys: any tuple of integer
arrays is folded into a single key, mixed, and mapped to uniforms or normals.

The fold is sequential, so a hash of a key prefix is itself a state that
later keys extend: ``extend_hash(hash_uint64(*a), *b) == hash_uint64(*a, *b)``
bit for bit.  A caller that draws many values under one fixed prefix (one
stream of one coin) can hash the prefix once and pay one mix per element
for the rest.

The mixer is the finalizer from SplitMix64 (Steele et al., "Fast splittable
pseudorandom number generators"), which passes BigCrush as a 64-bit mixer.
"""

from __future__ import annotations

import numpy as np


def load_ndtri():
    """Load ``scipy.special.ndtri``, importing scipy on the first call.

    Only the normal draws need the inverse normal CDF; the uniform and
    integer hashes stay scipy-free.  A long-lived consumer of normal
    draws calls this when it is built, so that none of its queries pays
    the import.
    """
    try:
        from scipy.special import ndtri
    except ImportError as exc:
        raise ImportError(
            "hash_normal requires scipy (scipy.special.ndtri) for the "
            "inverse normal CDF; install scipy or use hash_uniform"
        ) from exc
    return ndtri


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
# 2**-53, used to map the high 53 bits of a uint64 to a double in [0, 1).
_INV_2_53 = float(2.0**-53)
_SHIFT11 = np.uint64(11)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Apply the SplitMix64 finalizer to a uint64 array (wrapping arithmetic)."""
    x = (x + _GOLDEN).astype(np.uint64)
    x = (x ^ (x >> _SHIFT30)) * _MIX1
    x = (x ^ (x >> _SHIFT27)) * _MIX2
    return x ^ (x >> _SHIFT31)


def extend_hash(state, *keys) -> np.ndarray:
    """Fold more integer keys into uint64 hash states.

    ``state`` is a value :func:`hash_uint64` (or this function) returned,
    or ``0`` for the empty prefix.  Each key is mixed at its own shape and
    broadcasts against the running state, so a per-coin state of shape
    ``(N, 1)`` extended by hours of shape ``(1, H)`` costs one mix per cell.

    >>> a, b = (7, 2), (5,)
    >>> int(extend_hash(hash_uint64(*a), *b)) == int(hash_uint64(*a, *b))
    True
    """
    acc = state
    with np.errstate(over="ignore"):
        for key in keys:
            bits = np.asarray(key).astype(np.int64, copy=False).view(np.uint64)
            acc = _splitmix64(acc ^ bits)
    return acc


def hash_uint64(*keys) -> np.ndarray:
    """Hash integer arrays (broadcast together) into uniform uint64 values.

    Each ``key`` may be a scalar or array of integers; they are folded
    sequentially through the mixer from a zero state (see
    :func:`extend_hash`), so every distinct key tuple yields an
    independent-looking 64-bit value.

    >>> int(hash_uint64(1, 2, 3)) == int(hash_uint64(1, 2, 3))
    True
    >>> int(hash_uint64(1, 2, 3)) != int(hash_uint64(1, 2, 4))
    True
    """
    if not keys:
        raise ValueError("hash_uint64 requires at least one key")
    return extend_hash(np.uint64(0), *keys)


def _uniform_from_bits(bits: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to doubles in ``[0, 1)`` via their high 53 bits."""
    return ((bits >> _SHIFT11).astype(np.float64)) * _INV_2_53


def normal_from_bits(bits: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to standard normals by the inverse normal CDF.

    Each hash yields exactly one normal, keeping streams aligned no matter
    how windows are sliced; ``hash_normal(*k)`` is
    ``normal_from_bits(hash_uint64(*k))``.
    """
    # Keep strictly inside (0, 1) so ndtri stays finite.
    u = np.clip(_uniform_from_bits(bits), 1e-12, 1.0 - 1e-12)
    return load_ndtri()(u)


def hash_uniform(*keys) -> np.ndarray:
    """Deterministic uniforms in ``[0, 1)`` keyed by integer tuples."""
    return _uniform_from_bits(hash_uint64(*keys))


def hash_normal(*keys) -> np.ndarray:
    """Deterministic standard normals keyed by integer tuples."""
    return normal_from_bits(hash_uint64(*keys))


def hash_choice(n: int, *keys) -> np.ndarray:
    """Deterministic integer draws in ``[0, n)`` keyed by integer tuples."""
    if n <= 0:
        raise ValueError("n must be positive")
    return (hash_uint64(*keys) % np.uint64(n)).astype(np.int64)
