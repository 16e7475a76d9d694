"""Norm axioms, functional linearity and duality for the vector carrier."""

import math
import warnings

import numpy as np
import pytest

from sumkit.domains import CONVERGED, estimate_limit_at_infinity
from sumkit.vspace import (
    SCALAR,
    LinearFunctional,
    SpaceDescriptor,
    VectorValue,
    as_scalar,
    basis_vector,
    coordinate_functionals,
    scalar_value,
    space_norm,
    zero,
)

TAGS = ("l1", "l2", "sup")


def _random_vector(rng, space):
    return VectorValue(rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim), space)


def test_zero_vector_norm_is_zero():
    for tag in TAGS:
        assert zero(SpaceDescriptor(4, tag)).norm() == 0.0


def test_modulus_in_dim_one():
    v = VectorValue([3 + 4j], SpaceDescriptor(1, "l2"))
    assert v.norm() == pytest.approx(5.0, abs=0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("tag", TAGS)
def test_a_coordinate_whose_modulus_overflows_has_norm_inf(tag, dim):
    # 1.5e308(1 + i) is finite, but its modulus 2.1e308 is past the float range
    coords = np.full(dim, 1.5e308 + 1.5e308j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space_norm(coords, tag) == math.inf
        assert VectorValue(coords, SpaceDescriptor(dim, tag)).norm() == math.inf
        stacked = space_norm(np.stack([coords, np.ones(dim)]), tag)
    assert stacked[0] == math.inf and np.isfinite(stacked[1])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("tag", TAGS)
def test_a_norm_past_the_float_range_is_inf_without_a_warning(tag, dim):
    # every modulus 1.5e308 is finite; the l1 sum and the rescaled l2
    # product are not, and the sup norm is the modulus itself
    coords = np.full(dim, 1.5e308)
    want = 1.5e308 if tag == "sup" else math.inf
    small = {"l1": float(dim), "l2": math.sqrt(dim), "sup": 1.0}[tag]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space_norm(coords, tag) == want
        assert VectorValue(coords, SpaceDescriptor(dim, tag)).norm() == want
        stacked = space_norm(np.stack([coords, np.ones(dim), coords]), tag)
    assert stacked[0] == stacked[2] == want
    assert stacked[1] == pytest.approx(small, rel=1e-15)


def test_limit_estimate_of_a_path_with_overflowing_norms_is_not_converged():
    # a C^2 l2 path alternating between 0 and (1.5e308, 1.5e308): its
    # sample norms and differences overflow to inf
    space = SpaceDescriptor(2, "l2")
    path = [VectorValue([1.5e308, 1.5e308], space), zero(space)] * 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_limit_at_infinity(path, tol=1e-3)
    assert est.status != CONVERGED and est.residual == math.inf


def test_l1_norm_sums_moduli():
    v = VectorValue([1, -1, 1], SpaceDescriptor(3, "l1"))
    assert v.norm() == pytest.approx(3.0, abs=0)


def test_norm_zero_iff_zero_exactly():
    space = SpaceDescriptor(3, "l2")
    assert zero(space).norm() == 0.0
    tiny = VectorValue([0, 0, 1e-300], space)
    assert tiny.norm() > 0.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        VectorValue([1, 2], SpaceDescriptor(3, "l2"))


def test_nonfinite_rejected():
    space = SpaceDescriptor(2, "l2")
    with pytest.raises(ValueError):
        VectorValue([np.nan, 0], space)
    with pytest.raises(ValueError):
        VectorValue([0, complex(0, np.inf)], space)


def test_immutability():
    v = VectorValue([1, 2], SpaceDescriptor(2, "l2"))
    with pytest.raises(Exception):
        v.coords[0] = 5.0
    with pytest.raises(AttributeError):
        v.space = SpaceDescriptor(2, "l1")


def test_triangle_and_homogeneity_on_random_triples():
    rng = np.random.default_rng(20240811)
    for tag in TAGS:
        space = SpaceDescriptor(5, tag)
        for _ in range(1000):
            u = _random_vector(rng, space)
            v = _random_vector(rng, space)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            scale = max(u.norm(), v.norm(), 1.0)
            assert (u + v).norm() <= (u.norm() + v.norm()) * (1 + 1e-12) + 1e-12 * scale
            assert (lam * v).norm() == pytest.approx(abs(lam) * v.norm(), rel=1e-12)


def test_functional_examples():
    space = SpaceDescriptor(2, "l2")
    e0 = LinearFunctional([1, 0])
    assert e0(VectorValue([7, 2], space)) == 7
    zero_phi = LinearFunctional([0, 0])
    assert zero_phi(VectorValue([3, 4j], space)) == 0
    ones = LinearFunctional([1, 1])
    assert ones(VectorValue([1j, 1], space)) == pytest.approx(1 + 1j, abs=0)


def test_functional_linearity_machine_precision():
    rng = np.random.default_rng(7)
    space = SpaceDescriptor(4, "l2")
    phi = LinearFunctional(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    for _ in range(200):
        u = _random_vector(rng, space)
        v = _random_vector(rng, space)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        lhs = phi(a * u + b * v)
        rhs = a * phi(u) + b * phi(v)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_functional_dimension_mismatch():
    phi = LinearFunctional([1, 0, 0])
    with pytest.raises(ValueError):
        phi(VectorValue([1, 2], SpaceDescriptor(2, "l2")))


def test_dual_norm_inequality():
    # |phi(v)| <= dual-norm(phi) * ||v|| for the pairings l1<->sup, l2<->l2
    rng = np.random.default_rng(99)
    for tag in TAGS:
        space = SpaceDescriptor(6, tag)
        for _ in range(300):
            phi = LinearFunctional(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            v = _random_vector(rng, space)
            bound = phi.dual_norm(tag) * v.norm()
            assert abs(phi(v)) <= bound * (1 + 1e-10) + 1e-10


def test_coordinate_functionals_pick_coordinates():
    space = SpaceDescriptor(3, "sup")
    v = VectorValue([5, 6j, -7], space)
    phis = coordinate_functionals(space)
    assert [phi(v) for phi in phis] == [5, 6j, -7]


def test_scalar_helpers_roundtrip():
    z = 2 - 3j
    assert as_scalar(scalar_value(z)) == z
    assert as_scalar(basis_vector(SCALAR, 0)) == 1
