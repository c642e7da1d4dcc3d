"""The seed big-integer BFV implementation, kept as a test oracle.

:class:`ReferenceBFVContext` is a :class:`~repro.he.context.BFVContext`
whose arithmetic seams — the multiply tensor, key switching, coefficient
composition, decryption rounding, and noise magnitudes — run the textbook
formulation: per-coefficient Garner CRT into Python big ints, a per-prime
eager NTT convolution in the extension basis, big-int rescaling, and
big-int base-``T`` digit extraction.  Everything else (keygen, encryption,
the domain-hinted adds, rotation routing) is inherited, so a reference
context built from the same parameters and seed holds the same keys as a
production context and must agree with it bit for bit.

The equivalence tests pin the RNS-native runtime to this module, and
``benchmarks/bench_he_runtime.py`` measures its speedups against it.
Leading batch axes are handled one polynomial at a time.
"""

from __future__ import annotations

import numpy as np

from repro.he.context import BFVContext, Ciphertext
from repro.he.keys import KSwitchKey
from repro.he.poly import RingContext, RingElement
from repro.he.rns import RNSBasis, centered
from repro.runtime.executor import HEExecutor


def compose_schoolbook(basis: RNSBasis, residues: np.ndarray) -> list[int]:
    """The original per-coefficient Garner reconstruction, into ``[0, M)``."""
    k, n = residues.shape
    if k != len(basis.primes):
        raise ValueError("residue matrix does not match basis size")
    out = [0] * n
    for i, p in enumerate(basis.primes):
        # term_i = r_i * inv_i mod p_i, contribution term_i * (M / p_i)
        scale = basis._m_over_p[i]
        inv = basis._m_over_p_inv[i]
        row = residues[i]
        for j in range(n):
            out[j] += (int(row[j]) * inv % p) * scale
    return [c % basis.modulus for c in out]


def compose_centered_schoolbook(
    basis: RNSBasis, residues: np.ndarray
) -> list[int]:
    """:func:`compose_schoolbook` lifted into ``(-M/2, M/2]``."""
    half = basis.modulus // 2
    return [
        c - basis.modulus if c > half else c
        for c in compose_schoolbook(basis, residues)
    ]


def exact_negacyclic_product(
    a_coeffs: list[int], b_coeffs: list[int], ext_ring: RingContext
) -> list[int]:
    """Exact integer negacyclic product of two coefficient vectors.

    The product is taken with one eager NTT convolution per prime of an
    extension basis large enough to hold every coefficient, then
    reconstructed with centered schoolbook CRT.  The caller passes
    centered inputs and an extension ring whose modulus exceeds
    ``2 * N * max|a| * max|b|``.
    """
    a = ext_ring.from_int_coeffs(a_coeffs)
    b = ext_ring.from_int_coeffs(b_coeffs)
    out = np.empty_like(a.residues)
    for i, ntt in enumerate(ext_ring.ntts):
        fa = ntt.forward(a.residues[i])
        fb = ntt.forward(b.residues[i])
        out[i] = ntt.inverse(fa * fb % ntt.prime)
    return compose_centered_schoolbook(ext_ring.basis, out)


class ReferenceBFVContext(BFVContext):
    """BFV with the seed's big-integer paths behind every arithmetic seam."""

    def _elements(self, element: RingElement) -> np.ndarray:
        """``(..., k, N)`` residues as a ``(batch, k, N)`` stack."""
        return element.residues.reshape(
            (-1,) + element.residues.shape[-2:]
        )

    def _from_stack(self, rows: list[np.ndarray], like: RingElement):
        """Reassemble per-element ``(k, N)`` residues into ``like``'s shape."""
        return RingElement(self.ring, np.stack(rows).reshape(like.shape))

    def _compose(self, residues: np.ndarray) -> list[int]:
        return compose_schoolbook(self.ring.basis, self._cols(residues))

    def _decrypt_round(self, residues: np.ndarray) -> np.ndarray:
        q, t = self.q, self.t
        w = compose_schoolbook(self.ring.basis, residues)
        return np.array([(t * c + q // 2) // q % t for c in w], dtype=np.int64)

    def _noise_magnitudes(self, ct: Ciphertext, acc=None) -> list[int]:
        q, t = self.q, self.t
        n = self.params.poly_degree
        if acc is None:
            acc = self._noise_element(ct)
        w = compose_schoolbook(self.ring.basis, self._cols(acc.residues))
        out = []
        for start in range(0, len(w), n):
            max_u = 0
            for c in w[start : start + n]:
                u = abs(centered(t * c % q, q))
                if u > max_u:
                    max_u = u
            out.append(max_u)
        return out

    def _tensor(self, ct1: Ciphertext, ct2: Ciphertext) -> list[RingElement]:
        """Textbook big-integer tensor-and-rescale.

        Per-coefficient Garner composition, Python-int Karatsuba sums, and
        a big-int ``round(t * v / q)`` rescale.
        """
        basis = self.ring.basis
        ext = self._ext_ring
        stacks = [self._elements(p) for p in (*ct1.parts, *ct2.parts)]
        parts: list[list[np.ndarray]] = [[], [], []]
        for a0_res, a1_res, b0_res, b1_res in zip(*stacks):
            a0 = compose_centered_schoolbook(basis, a0_res)
            a1 = compose_centered_schoolbook(basis, a1_res)
            b0 = compose_centered_schoolbook(basis, b0_res)
            b1 = compose_centered_schoolbook(basis, b1_res)
            # Karatsuba: three exact products instead of four.
            p00 = exact_negacyclic_product(a0, b0, ext)
            p11 = exact_negacyclic_product(a1, b1, ext)
            asum = [x + y for x, y in zip(a0, a1)]
            bsum = [x + y for x, y in zip(b0, b1)]
            pss = exact_negacyclic_product(asum, bsum, ext)
            p01 = [s - x - y for s, x, y in zip(pss, p00, p11)]
            for out, coeffs in zip(parts, (p00, p01, p11)):
                out.append(self._rescale_to_ring(coeffs))
        return [self._from_stack(rows, ct1.parts[0]) for rows in parts]

    def _rescale_to_ring(self, coeffs: list[int]) -> np.ndarray:
        """``round(t * v / q) mod q`` coefficient-wise, as residues."""
        q, t = self.q, self.t
        scaled = [(t * v + q // 2) // q for v in coeffs]
        return self.ring.from_int_coeffs(scaled).residues

    def _key_switch(
        self, poly: RingElement, key: KSwitchKey
    ) -> tuple[RingElement, RingElement]:
        """Big-int digit decomposition with per-digit, per-prime transforms."""
        ring = self.ring
        bits = self.params.decomp_bits
        mask = (1 << bits) - 1
        primes_col = ring._primes_col
        outs0, outs1 = [], []
        for residues in self._elements(poly):
            coeffs = compose_schoolbook(ring.basis, residues)
            acc0 = np.zeros_like(residues)
            acc1 = np.zeros_like(residues)
            for j in range(len(key)):
                shift = bits * j
                digit = np.array(
                    [(c >> shift) & mask for c in coeffs], dtype=np.int64
                )
                digit_res = digit[None, :] % primes_col
                digit_eval = np.stack(
                    [
                        ntt.forward(digit_res[i])
                        for i, ntt in enumerate(ring.ntts)
                    ]
                )
                acc0 = (acc0 + digit_eval * key._stack_0[j]) % primes_col
                acc1 = (acc1 + digit_eval * key._stack_1[j]) % primes_col
            outs0.append(
                np.stack(
                    [ntt.inverse(acc0[i]) for i, ntt in enumerate(ring.ntts)]
                )
            )
            outs1.append(
                np.stack(
                    [ntt.inverse(acc1[i]) for i, ntt in enumerate(ring.ntts)]
                )
            )
        return self._from_stack(outs0, poly), self._from_stack(outs1, poly)


def reference_executor(spec, params=None, seed=None, **kwargs) -> HEExecutor:
    """An :class:`HEExecutor` running on :class:`ReferenceBFVContext`.

    Built from the same parameters and seed as a default executor, it
    generates the same keys and encryption randomness, so the two must
    agree in outputs and noise budgets bit for bit.
    """
    executor = HEExecutor(spec, params=params, seed=seed, **kwargs)
    executor.ctx = ReferenceBFVContext(executor.params, seed=seed)
    return executor
