"""Number Theoretic Transform over Z_q[x]/(x^n + 1), q = 12289.

LAC deliberately avoids the NTT (q = 251 admits no suitable roots of
unity; ternary secrets make schoolbook addition-only multiplication
attractive).  The NewHope baseline of [8], which the paper compares
against in Tables II/III, is built entirely on the NTT — so the
reproduction needs one.

Standard negacyclic NTT: with psi a primitive 2n-th root of unity and
omega = psi^2, the transform of the psi-twisted input diagonalizes
multiplication modulo x^n + 1:

    c = INTT( NTT(a) * NTT(b) )    (pointwise product)

The implementation is an iterative Cooley-Tukey butterfly network with
numpy-vectorized stages; :class:`NttContext` precomputes the twiddle
tables once per (n, q).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: NewHope's modulus: the smallest prime with 2^14 | q - 1.
NEWHOPE_Q = 12289


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_primitive_2n_root(n: int, q: int) -> int:
    """The smallest primitive 2n-th root of unity modulo q."""
    if (q - 1) % (2 * n):
        raise ValueError(f"q-1 = {q - 1} is not divisible by 2n = {2 * n}")
    if not _is_probable_prime(q):
        raise ValueError(f"{q} is not prime")
    exponent = (q - 1) // (2 * n)
    for candidate in range(2, q):
        root = pow(candidate, exponent, q)
        # primitive iff root^n = -1 (order exactly 2n)
        if pow(root, n, q) == q - 1:
            return root
    raise ValueError("no primitive root found")  # pragma: no cover


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        reversed_indices |= ((indices >> b) & 1) << (bits - 1 - b)
    return reversed_indices


class NttContext:
    """Precomputed tables for the negacyclic NTT of size n modulo q."""

    def __init__(self, n: int, q: int = NEWHOPE_Q) -> None:
        if n & (n - 1) or n < 2:
            raise ValueError("NTT size must be a power of two >= 2")
        self.n = n
        self.q = q
        self.psi = find_primitive_2n_root(n, q)
        self.omega = self.psi * self.psi % q
        self.psi_powers = self._powers(self.psi)
        self.psi_inv_powers = self._powers(pow(self.psi, q - 2, q))
        self.n_inv = pow(n, q - 2, q)
        self._bitrev = _bit_reverse_indices(n)

    def _powers(self, base: int) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int64)
        value = 1
        for i in range(self.n):
            out[i] = value
            value = value * base % self.q
        return out

    # ------------------------------------------------------------------

    def _transform(self, values: np.ndarray, root: int) -> np.ndarray:
        """Iterative Cooley-Tukey butterflies (vectorized per stage)."""
        n, q = self.n, self.q
        a = values[self._bitrev].astype(np.int64)
        length = 2
        while length <= n:
            half = length // 2
            stage_root = pow(root, n // length, q)
            twiddles = np.empty(half, dtype=np.int64)
            w = 1
            for j in range(half):
                twiddles[j] = w
                w = w * stage_root % q
            blocks = a.reshape(n // length, length)
            upper = blocks[:, half:] * twiddles % q
            lower = blocks[:, :half].copy()
            blocks[:, :half] = (lower + upper) % q
            blocks[:, half:] = (lower - upper) % q
            a = blocks.reshape(n)
            length *= 2
        return a

    def forward(self, poly: np.ndarray) -> np.ndarray:
        """Negacyclic forward transform of a coefficient vector."""
        poly = np.mod(np.asarray(poly, dtype=np.int64), self.q)
        if poly.size != self.n:
            raise ValueError(f"expected {self.n} coefficients")
        twisted = poly * self.psi_powers % self.q
        return self._transform(twisted, self.omega)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse transform back to (psi-untwisted) coefficients."""
        values = np.asarray(values, dtype=np.int64)
        if values.size != self.n:
            raise ValueError(f"expected {self.n} values")
        omega_inv = pow(self.omega, self.q - 2, self.q)
        untransformed = self._transform(values, omega_inv)
        return untransformed * self.n_inv % self.q * self.psi_inv_powers % self.q

    def pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient-wise product in the transform domain."""
        return np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64) % self.q

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full negacyclic product via NTT -> pointwise -> INTT."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))

    # ------------------------------------------------------------------

    @property
    def butterflies_per_transform(self) -> int:
        """(n/2) log2(n) butterfly operations per transform."""
        return (self.n // 2) * (self.n.bit_length() - 1)

    def __repr__(self) -> str:
        return f"NttContext(n={self.n}, q={self.q}, psi={self.psi})"


@lru_cache(maxsize=None)
def get_context(n: int, q: int = NEWHOPE_Q) -> NttContext:
    """Shared, cached NTT context."""
    return NttContext(n, q)
