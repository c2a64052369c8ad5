"""Block-sparse operators on a truncated field space.

Operators that commute with two-sided translation per edge never mix the
isotypical blocks' exteriors arbitrarily; the ones this package handles are
supported on few (block row, block column) pairs.  ``BlockOperator`` stores
only those pairs, keeps arithmetic cheap, and can densify on demand for
small systems and cross-checks.
"""

from __future__ import annotations

import numpy as np

from .blocks import Truncation


class BlockOperator:
    """A linear map on the truncation, stored per (row block, column block)."""

    def __init__(self, trunc: Truncation, data: dict | None = None):
        self.trunc = trunc
        self.data: dict[tuple[int, int], np.ndarray] = {}
        if data:
            for (i, j), m in data.items():
                self._check_pair(i, j, m)
                self.data[(i, j)] = np.asarray(m, dtype=complex)

    def _check_pair(self, i: int, j: int, m) -> None:
        want = (self.trunc.dims[i], self.trunc.dims[j])
        got = np.shape(m)
        if got != want:
            raise ValueError(f"block ({i},{j}) has shape {got}, expected {want}")

    @classmethod
    def from_pair(cls, trunc: Truncation, i: int, j: int, m) -> "BlockOperator":
        return cls(trunc, {(i, j): m})

    @classmethod
    def identity(cls, trunc: Truncation) -> "BlockOperator":
        return cls(
            trunc, {(i, i): np.eye(d) for i, d in enumerate(trunc.dims)}
        )

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        out = BlockOperator(self.trunc)
        out.data = {k: v.copy() for k, v in self.data.items()}
        for k, v in other.data.items():
            if k in out.data:
                out.data[k] = out.data[k] + v
            else:
                out.data[k] = v.copy()
        return out

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        out = BlockOperator(self.trunc)
        acc: dict[tuple[int, int], np.ndarray] = {}
        by_row: dict[int, list[tuple[int, np.ndarray]]] = {}
        for (k, j), m in other.data.items():
            by_row.setdefault(k, []).append((j, m))
        for (i, k), a in self.data.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                prod = a @ b
                if key in acc:
                    acc[key] += prod
                else:
                    acc[key] = prod
        out.data = acc
        return out

    def adjoint(self) -> "BlockOperator":
        out = BlockOperator(self.trunc)
        out.data = {(j, i): m.conj().T for (i, j), m in self.data.items()}
        return out

    def fro_inner(self, other: "BlockOperator") -> complex:
        """Frobenius inner product, conjugate-linear in self."""
        s = 0.0 + 0j
        for k, m in self.data.items():
            o = other.data.get(k)
            if o is not None:
                s += np.vdot(m, o)
        return s

    def fro_norm(self) -> float:
        return float(
            np.sqrt(sum(np.linalg.norm(m) ** 2 for m in self.data.values()))
        )

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.trunc.total_dim, dtype=complex)
        off = self.trunc.offsets
        for (i, j), m in self.data.items():
            out[off[i] : off[i + 1]] += m @ vec[off[j] : off[j + 1]]
        return out

    def to_dense(self) -> np.ndarray:
        n = self.trunc.total_dim
        out = np.zeros((n, n), dtype=complex)
        off = self.trunc.offsets
        for (i, j), m in self.data.items():
            out[off[i] : off[i + 1], off[j] : off[j + 1]] = m
        return out
