"""Increasing and decreasing filtrations by subspaces.

A filtration is stored as its jump data over an explicit index window and
clamps outside it: an increasing filtration is 0 below the window and equal
to its top value above; a decreasing filtration is full below and 0 above.
Equality is semantic (same subspace at every integer index), not equality
of the stored windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import Subspace


@dataclass(frozen=True)
class Filtration:
    """Subspaces at the indices lo, lo+1, ..., hi of one ambient space,
    monotone in the direction of the subclass; `at` clamps outside."""

    ambient_dim: int
    lo: int
    spaces: tuple  # Subspace at indices lo, lo+1, ..., lo + len - 1

    def __post_init__(self):
        if not self.spaces:
            raise ValueError("empty filtration")
        for s in self.spaces:
            if s.ambient_dim != self.ambient_dim:
                raise ValueError("ambient dimension mismatch")
        for a, b in zip(self.spaces, self.spaces[1:]):
            big, small = (b, a) if self.increasing else (a, b)
            if not big.contains(small):
                raise ValueError("filtration is not monotone")

    @classmethod
    def _from_map(cls, ambient_dim: int, spaces_by_index: dict, fill: Subspace):
        """The filtration over min..max of the given indices; a missing index
        repeats the space before it, and `fill` stands before the first."""
        if not spaces_by_index:
            raise ValueError("empty filtration")
        lo = min(spaces_by_index)
        hi = max(spaces_by_index)
        spaces = []
        prev = fill
        for l in range(lo, hi + 1):
            prev = spaces_by_index.get(l, prev)
            spaces.append(prev)
        return cls(ambient_dim, lo, tuple(spaces))

    @property
    def hi(self) -> int:
        return self.lo + len(self.spaces) - 1

    def shift(self, s: int):
        """The filtration whose index j holds this one's index j + s."""
        return type(self)(self.ambient_dim, self.lo - s, self.spaces)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return all(self.at(l) == other.at(l) for l in range(lo, hi + 1))

    __hash__ = None


class IncreasingFiltration(Filtration):
    """W_lo <= ... <= W_hi with W_l = 0 for l < lo and W_l = W_hi for l > hi."""

    increasing = True

    @classmethod
    def from_map(cls, ambient_dim: int, spaces_by_index: dict) -> "IncreasingFiltration":
        return cls._from_map(ambient_dim, spaces_by_index, Subspace.zero(ambient_dim))

    def at(self, l: int) -> Subspace:
        if l < self.lo:
            return Subspace.zero(self.ambient_dim)
        if l > self.hi:
            return self.spaces[-1]
        return self.spaces[l - self.lo]

    def jump_indices(self) -> list:
        """Indices l with W_l != W_{l-1}."""
        out = []
        for l in range(self.lo, self.hi + 1):
            if self.at(l).dim != self.at(l - 1).dim:
                out.append(l)
        return out


class DecreasingFiltration(Filtration):
    """F^lo >= ... >= F^hi with F^p full for p < lo and F^p = 0 for p > hi."""

    increasing = False

    @classmethod
    def from_map(cls, ambient_dim: int, spaces_by_index: dict) -> "DecreasingFiltration":
        return cls._from_map(ambient_dim, spaces_by_index, Subspace.full(ambient_dim))

    def at(self, p: int) -> Subspace:
        if p < self.lo:
            return Subspace.full(self.ambient_dim)
        if p > self.hi:
            return Subspace.zero(self.ambient_dim)
        return self.spaces[p - self.lo]

    def jump_indices(self) -> list:
        """Indices p with F^p != F^{p+1}."""
        out = []
        for p in range(self.lo - 1, self.hi + 1):
            if self.at(p).dim != self.at(p + 1).dim:
                out.append(p)
        return out

    def conjugate(self) -> "DecreasingFiltration":
        return DecreasingFiltration(self.ambient_dim, self.lo,
                                    tuple(s.conjugate() for s in self.spaces))
