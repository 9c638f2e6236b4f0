"""Batched M2L operator assembly (``m2l_operators``) against the probe
oracle: pushing the basis ``[I; iI]`` through ``m2l_from_geometry``,
which is how the operators were built before the closed-form gather."""

import numpy as np
import pytest

from repro.multipole.harmonics import ncoef
from repro.multipole.translations import (
    m2l,
    m2l_from_geometry,
    m2l_geometry,
    m2l_operator,
    m2l_operators,
)


def probe_m2l_operators(d, p_src, p_loc):
    """Oracle: the real-linear operators ``(Tr, Ti)`` of ``m2l`` for each
    row of ``d``, probed with ``[I; iI]`` — shape
    ``(B, ncoef(p_src), ncoef(p_loc))``."""
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    nc = ncoef(p_src)
    shat = np.repeat(m2l_geometry(d, p_src, p_loc), nc, axis=0)
    eye = np.tile(np.eye(nc, dtype=np.complex128), (d.shape[0], 1))
    shape = (d.shape[0], nc, ncoef(p_loc))
    Tr = m2l_from_geometry(eye, shat, p_src, p_loc).reshape(shape)
    Ti = m2l_from_geometry(1j * eye, shat, p_src, p_loc).reshape(shape)
    return Tr, Ti


def _displacements(rng):
    """±z axis, equator, and general directions with rho from 1e-2 to 1e3."""
    u = rng.standard_normal((3, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.concatenate(
        [
            [[0.0, 0.0, 2.5], [0.0, 0.0, -0.7]],
            [[1.5, -0.5, 0.0], [0.0, 3.0, 0.0]],
            u * np.array([1e-2, 1.0, 1e3])[:, None],
        ]
    )


@pytest.mark.parametrize("p_src", range(13))
def test_matches_probe_oracle(rng, p_src):
    D = _displacements(rng)
    for p_loc in range(13):
        Tr, Ti = m2l_operators(D, p_src, p_loc)
        Pr, Pi = probe_m2l_operators(D, p_src, p_loc)
        assert Tr.shape == Pr.shape == (D.shape[0], ncoef(p_src), ncoef(p_loc))
        for got, ref in ((Tr, Pr), (Ti, Pi)):
            scale = np.abs(ref).max(axis=(1, 2))
            err = np.abs(got - ref).max(axis=(1, 2))
            assert np.all(scale > 0)
            assert np.all(err <= 1e-13 * scale), (p_src, p_loc, err / scale)


def test_applies_as_m2l(rng):
    """``M.real @ Tr + M.imag @ Ti`` is the M2L translation."""
    D = _displacements(rng)[4:]
    M = rng.standard_normal((D.shape[0], ncoef(6))) + 1j * rng.standard_normal(
        (D.shape[0], ncoef(6))
    )
    Tr, Ti = m2l_operators(D, 6, 4)
    got = np.einsum("bi,bij->bj", M.real, Tr) + np.einsum("bi,bij->bj", M.imag, Ti)
    ref = m2l(M, D, 6, 4)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * np.abs(ref).max())


def test_batch_equals_one_row_bitwise(rng):
    D = _displacements(rng)
    for p_src, p_loc in ((0, 0), (4, 4), (6, 3), (2, 9)):
        Tr, Ti = m2l_operators(D, p_src, p_loc)
        for b in range(D.shape[0]):
            r1, i1 = m2l_operator(D[b], p_src, p_loc)
            assert np.array_equal(Tr[b], r1) and np.array_equal(Ti[b], i1)
            assert Tr[b].tobytes() == r1.tobytes()
            assert Ti[b].tobytes() == i1.tobytes()


def test_every_operator_is_c_contiguous(rng):
    Tr, Ti = m2l_operators(_displacements(rng), 5, 5)
    assert Tr.flags.c_contiguous and Ti.flags.c_contiguous
    for b in range(Tr.shape[0]):
        assert Tr[b].flags.c_contiguous and Ti[b].flags.c_contiguous
    r, i = m2l_operator(np.array([0.0, 2.0, 1.0]), 5)
    assert r.flags.c_contiguous and i.flags.c_contiguous


def test_p_loc_defaults_to_p_src():
    d = np.array([[1.0, -2.0, 0.5]])
    a = m2l_operators(d, 5)
    b = m2l_operators(d, 5, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
