"""Core data containers shared by the fitting and evaluation modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

KERNEL_FAMILIES = ("poisson", "binomial")

WEIGHT_SUM_TOL = 1e-12


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class FitError(RuntimeError):
    """A fit cannot be produced from the given inputs."""


class ParseError(ValueError):
    """A count file is malformed.  Carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class MixtureKernel:
    """Component family for the count mixture.

    ``family`` is "poisson" (pmf at count x and rate r is Poisson with mean
    n*r) or "binomial" (n trials with success probability r).  ``n`` is the
    concentration / trial-count parameter shared by all components.
    """

    family: str
    n: int

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if self.n < 1:
            raise DomainError("kernel concentration n must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    @classmethod
    def poisson(cls, n: int) -> "MixtureKernel":
        return cls("poisson", n)

    @classmethod
    def binomial(cls, n: int) -> "MixtureKernel":
        return cls("binomial", n)


@dataclass(frozen=True)
class CountData:
    """A multiset of frequency counts plus the sampling parameters.

    ``counts`` holds the observed counts; ``n`` is the concentration (units of
    observation time, or the multinomial sample size); ``k`` is the alphabet
    size.  When ``k`` exceeds ``len(counts)`` the difference is treated as
    implicit zero counts, which is how padded support-size workflows supply
    unobserved categories without materializing them.

    ``tail`` records the number of categories binned into an unbounded
    top bucket of a fingerprint file; those cells carry no usable count value
    and never enter fits.
    """

    counts: np.ndarray
    n: int
    k: Optional[int] = None
    tail: int = 0

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise DomainError("counts must be one-dimensional")
        if counts.size and counts.min() < 0:
            raise DomainError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(self.n))
        k = int(self.k) if self.k is not None else counts.size
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "tail", int(self.tail))
        if self.n < 1:
            raise DomainError("concentration n must be >= 1")
        if k < counts.size or k < 1:
            raise DomainError("alphabet size k must be >= number of counts and >= 1")
        if self.tail < 0:
            raise DomainError("tail bucket size must be nonnegative")

    @property
    def implicit_zeros(self) -> int:
        return self.k - self.counts.size

    def max_count(self) -> int:
        return int(self.counts.max()) if self.counts.size else 0

    def unique_with_multiplicity(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct count values and their multiplicities, implicit zeros included.

        Equal counts contribute identical likelihood terms, so fits operate on
        this compressed form; multiplicities sum to ``k``.  Counts no larger
        than their number are tallied by ``np.bincount``, whose table is then
        no larger than the sorted copy ``np.unique`` makes; larger ones are
        sorted by ``np.unique``.  Both give the same values, order and dtypes.
        """
        counts = self.counts
        if counts.size and self.max_count() <= counts.size:
            tally = np.bincount(counts)
            values = np.flatnonzero(tally)
            mult = tally[values]
        else:
            values, mult = np.unique(counts, return_counts=True)
        mult = mult.astype(float)
        if self.implicit_zeros:
            if values.size and values[0] == 0:
                mult[0] += self.implicit_zeros
            else:
                values = np.concatenate(([0], values))
                mult = np.concatenate(([float(self.implicit_zeros)], mult))
        return values.astype(np.int64), mult


@dataclass(frozen=True)
class Grid:
    """Strictly increasing candidate atom locations in [0, 1]."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0:
            raise DomainError("grid must hold at least one atom")
        if not np.all((atoms >= 0.0) & (atoms <= 1.0)):  # NaN fails it too
            raise DomainError("grid atoms must lie in [0, 1]")
        if atoms.size > 1 and not np.all(np.diff(atoms) > 0):
            raise DomainError("grid atoms must be strictly increasing")
        object.__setattr__(self, "atoms", atoms)

    def __len__(self) -> int:
        return self.atoms.size

    def max_spacing(self) -> float:
        """Coarsest gap between adjacent atoms (discretization slack)."""
        if self.atoms.size < 2:
            return 0.0
        return float(np.diff(self.atoms).max())


@dataclass(frozen=True)
class MixingDistribution:
    """Discrete probability measure on [0, 1]: sorted atoms with weights.

    Construction sorts atoms, merges exact duplicates, and renormalizes the
    weights so they sum to one.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.shape != weights.shape or atoms.size == 0:
            raise DomainError("atoms and weights must be matching nonempty vectors")
        if not np.all((atoms >= 0.0) & (atoms <= 1.0)):
            raise DomainError("atoms must lie in [0, 1]")
        if not np.all(np.isfinite(weights)) or weights.min() < -1e-9:
            raise DomainError("weights must be finite and nonnegative")
        weights = np.clip(weights, 0.0, None)
        order = np.argsort(atoms, kind="stable")
        atoms, weights = atoms[order], weights[order]
        if atoms.size > 1:
            keep = np.concatenate(([True], np.diff(atoms) > 0))
            if not keep.all():
                segments = np.cumsum(keep) - 1
                weights = np.bincount(segments, weights=weights)
                atoms = atoms[keep]
        total = weights.sum()
        if total <= 0:
            raise DomainError("weights must carry positive total mass")
        weights = weights / total
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError("weights do not sum to one after normalization")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def point_mass(cls, x: float) -> "MixingDistribution":
        return cls(np.array([x]), np.array([1.0]))

    def __len__(self) -> int:
        return self.atoms.size

    def expectation(self, values: np.ndarray) -> float:
        """Weighted average of per-atom values (same order as ``atoms``)."""
        return float(np.asarray(values, dtype=float) @ self.weights)
