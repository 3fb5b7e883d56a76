"""Eigenvalue multisets with exact multiplicities and source labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import _check_real

CLOSED_FORM = "closed-form"
QUOTIENT = "quotient"
DENSE = "dense"


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue with its multiplicity and where it came from."""

    value: float
    multiplicity: int
    source: str

    def __post_init__(self):
        object.__setattr__(self, "value", _check_real("eigenvalue", self.value))
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if not self.source:
            raise ValueError("source label must be non-empty")


@dataclass(frozen=True)
class Spectrum:
    """A sorted eigenvalue multiset.

    Entries are strictly increasing in value; ties are merged at
    construction time (via :meth:`from_entries`) by summing multiplicities,
    so the total multiplicity always equals the order of the underlying
    matrix or graph.
    """

    entries: tuple[SpectrumEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("spectrum must hold at least one eigenvalue")
        values = [e.value for e in self.entries]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("spectrum entries must be strictly increasing")

    @classmethod
    def from_entries(cls, entries: Iterable[SpectrumEntry]) -> "Spectrum":
        """Sort entries by value and merge float-identical values."""
        merged: list[SpectrumEntry] = []
        for e in sorted(entries, key=lambda e: (e.value, e.source)):
            if merged and e.value == merged[-1].value:
                prev = merged[-1]
                source = prev.source if prev.source == e.source else f"{prev.source}+{e.source}"
                merged[-1] = SpectrumEntry(prev.value, prev.multiplicity + e.multiplicity, source)
            else:
                merged.append(e)
        return cls(tuple(merged))

    @classmethod
    def from_values(
        cls,
        values: Sequence[float],
        source: str = DENSE,
        cluster_radius: float = 0.0,
    ) -> "Spectrum":
        """Cluster a raw eigenvalue list into entries with multiplicities.

        Consecutive sorted values whose gap is at most ``cluster_radius``
        are treated as one root; each entry's value is the cluster mean.
        """
        if _check_real("cluster_radius", cluster_radius) < 0.0:
            raise ValueError("cluster_radius must be >= 0")
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ValueError("cannot build a spectrum from no values")
        entries = []
        start = 0
        for j in range(1, arr.size + 1):
            if j == arr.size or arr[j] - arr[j - 1] > cluster_radius:
                chunk = arr[start:j]
                entries.append(SpectrumEntry(float(chunk.mean()), int(chunk.size), source))
                start = j
        return cls(tuple(entries))

    @property
    def order(self) -> int:
        """Total multiplicity (the order of the underlying graph/matrix)."""
        return sum(e.multiplicity for e in self.entries)

    @property
    def rho(self) -> float:
        """The largest eigenvalue."""
        return self.entries[-1].value

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    def expand(self) -> np.ndarray:
        """Ascending eigenvalues repeated according to multiplicity."""
        return np.repeat(self.values(), [e.multiplicity for e in self.entries])

    def with_source(self, source: str) -> tuple[SpectrumEntry, ...]:
        return tuple(e for e in self.entries if e.source == source)
