"""Deterministic, hierarchical random-number streams.

Every stochastic component in this repository (dataset synthesis, weight
initialization, device programming noise, Monte Carlo trials) draws from a
named stream derived from a root seed.  Naming streams — instead of sharing
one global generator — guarantees that, for example, adding one more Monte
Carlo trial does not perturb the noise seen by the trials that ran before
it, which keeps experiment results reproducible as the code evolves.

Example
-------
>>> root = RngStream(seed=7)
>>> mc0 = root.child("mc", 0)
>>> mc1 = root.child("mc", 1)
>>> a = mc0.generator.normal(size=3)
>>> b = mc1.generator.normal(size=3)
>>> bool(abs(a - b).max() > 0)   # independent streams
True
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream", "derive_seed"]

_HASH_BYTES = 8


def derive_seed(root_seed, *path):
    """Derive a 64-bit child seed from ``root_seed`` and a name path.

    The derivation is a SHA-256 hash of the root seed and the stringified
    path components, so it is stable across Python versions and platforms
    (unlike ``hash()``).

    Parameters
    ----------
    root_seed:
        Integer root seed.
    path:
        Arbitrary hashable path components (strings, ints).

    Returns
    -------
    int
        A non-negative 64-bit integer seed.
    """
    text = repr(int(root_seed)) + "/" + "/".join(repr(p) for p in path)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:_HASH_BYTES], "little")


class RngStream:
    """A named random stream with cheap, collision-resistant children.

    Attributes
    ----------
    seed:
        The 64-bit seed of this stream.
    generator:
        The underlying :class:`numpy.random.Generator` (lazily created).
    """

    def __init__(self, seed=0, _path=()):
        self.seed = int(seed)
        self._path = tuple(_path)
        self._generator = None

    @property
    def generator(self):
        """The numpy Generator backing this stream (created on first use)."""
        if self._generator is None:
            self._generator = np.random.default_rng(self.seed)
        return self._generator

    def child(self, *path):
        """Return an independent child stream named by ``path``.

        Calling ``child`` with the same path always returns a stream with
        the same seed, regardless of how many draws have been made from
        this or any other stream.
        """
        if not path:
            raise ValueError("child() requires at least one path component")
        return RngStream(derive_seed(self.seed, *path), self._path + path)

    def normal(self, *args, **kwargs):
        """Convenience proxy for ``generator.normal``."""
        return self.generator.normal(*args, **kwargs)

    def integers(self, *args, **kwargs):
        """Convenience proxy for ``generator.integers``."""
        return self.generator.integers(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        """Convenience proxy for ``generator.permutation``."""
        return self.generator.permutation(*args, **kwargs)

    def __repr__(self):
        path = "/".join(str(p) for p in self._path) or "<root>"
        return f"RngStream(seed={self.seed}, path={path!r})"
