"""Finite-dimensional complex vector values with selectable norms.

Every vector-valued quantity in the toolkit lives in C^d for some small d,
equipped with one of three norms (l1, l2, sup).  Coordinate functionals on
these spaces form a norming set, which is what makes the weak-integral and
weak-inclusion checks decidable with finitely many functionals.

Values are immutable after construction; NaN/Inf coordinates are rejected at
the boundary so they can never enter a summation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TAGS = ("l1", "l2", "sup")

_DUAL_TAG = {"l1": "sup", "sup": "l1", "l2": "l2"}


@dataclass(frozen=True)
class SpaceDescriptor:
    """Dimension plus norm tag; fully determines norm evaluation."""

    dim: int
    norm_tag: str = "l2"

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.norm_tag not in NORM_TAGS:
            raise ValueError(f"unknown norm tag {self.norm_tag!r}, expected one of {NORM_TAGS}")


#: One-dimensional space used for scalar-valued sequences and functions.
#: In dimension one the three norms coincide with the modulus.
SCALAR = SpaceDescriptor(1, "l2")

#: Default carrier for vector-valued experiments.
DEFAULT_SPACE = SpaceDescriptor(4, "l2")


def space_norm(coords: np.ndarray, tag: str):
    """Norm of a coordinate array under one of the three tags.

    The package's one per-vector norm.  A 1-D array gives a float.  A
    stacked (..., d) array gives the norm of each vector along its last
    axis; when the array is C-contiguous, each equals the norm of that
    vector alone, bit for bit.  A vector with one coordinate has its
    modulus as every norm.  A coordinate whose modulus overflows makes the
    norm inf, never nan.
    """
    if tag not in NORM_TAGS:
        raise ValueError(f"unknown norm tag {tag!r}")
    mags = np.abs(coords)
    if mags.shape[-1] == 1:
        out = mags[..., 0]
    elif tag == "l1":
        out = mags.sum(-1)
    else:
        out = mags.max(-1, initial=0.0)
        if tag == "l2":
            # rescaling by a finite, nonzero peak keeps the squares from over-
            # and underflowing; an infinite peak is the norm
            rescale = np.isfinite(out)
            rescale &= out > 0.0
            np.divide(mags, out[..., None], out=mags, where=rescale[..., None])
            mags *= mags
            out *= np.sqrt(mags.sum(-1))
    return out.item() if out.ndim == 0 else out


def _coerce_coords(coords, dim: int) -> np.ndarray:
    arr = np.asarray(coords, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise ValueError(f"expected {dim} coordinates, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate rejected")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class VectorValue:
    """Immutable element of a described space; supports linear arithmetic."""

    __slots__ = ("coords", "space")

    def __init__(self, coords, space: SpaceDescriptor):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", _coerce_coords(coords, space.dim))

    def __setattr__(self, name, value):
        raise AttributeError("VectorValue is immutable")

    @property
    def dim(self) -> int:
        return self.space.dim

    def norm(self) -> float:
        return space_norm(self.coords, self.space.norm_tag)

    def _check_same_space(self, other: "VectorValue"):
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other: "VectorValue") -> "VectorValue":
        self._check_same_space(other)
        return VectorValue(self.coords + other.coords, self.space)

    def __sub__(self, other: "VectorValue") -> "VectorValue":
        self._check_same_space(other)
        return VectorValue(self.coords - other.coords, self.space)

    def __mul__(self, scalar) -> "VectorValue":
        return VectorValue(self.coords * complex(scalar), self.space)

    __rmul__ = __mul__

    def __neg__(self) -> "VectorValue":
        return VectorValue(-self.coords, self.space)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorValue)
            and self.space == other.space
            and bool(np.array_equal(self.coords, other.coords))
        )

    def __repr__(self) -> str:
        return f"VectorValue({np.array2string(self.coords, separator=', ')}, {self.space.norm_tag}^{self.dim})"


def zero(space: SpaceDescriptor) -> VectorValue:
    return VectorValue(np.zeros(space.dim, dtype=complex), space)


def basis_vector(space: SpaceDescriptor, j: int) -> VectorValue:
    if not 0 <= j < space.dim:
        raise ValueError(f"basis index {j} out of range for dim {space.dim}")
    coords = np.zeros(space.dim, dtype=complex)
    coords[j] = 1.0
    return VectorValue(coords, space)


def scalar_value(z, space: SpaceDescriptor = SCALAR) -> VectorValue:
    """Wrap a complex number as a one-dimensional vector value."""
    if space.dim != 1:
        raise ValueError("scalar_value needs a one-dimensional space")
    return VectorValue([complex(z)], space)


def as_scalar(v: VectorValue) -> complex:
    if v.dim != 1:
        raise ValueError(f"not a scalar value (dim {v.dim})")
    return complex(v.coords[0])


@dataclass(frozen=True)
class LinearFunctional:
    """Linear pairing v |-> sum_j weights_j * coords_j (no conjugation)."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=complex).reshape(-1).copy()
        if not np.isfinite(arr).all():
            raise ValueError("non-finite functional weight rejected")
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def __call__(self, v: VectorValue) -> complex:
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch: functional dim {self.dim}, vector dim {v.dim}")
        return complex(np.dot(self.weights, v.coords))

    def dual_norm(self, norm_tag: str) -> float:
        """Operator norm of the functional on a space with the given tag."""
        return space_norm(self.weights, _DUAL_TAG[norm_tag])


def coordinate_functionals(space: SpaceDescriptor) -> list[LinearFunctional]:
    return [LinearFunctional(basis_vector(space, j).coords) for j in range(space.dim)]
