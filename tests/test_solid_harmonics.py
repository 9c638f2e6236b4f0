"""Tests for the M2L geometry kernel: the scaled singular grid built by
the Cartesian recurrence for irregular solid harmonics
(:func:`repro.multipole.translations.singular_grid`), and the cluster
plan's compile-time displacement dedup.

The former ``sph_harmonics``-based grid builder is kept here as the
oracle the recurrence must reproduce."""

from fractions import Fraction

import numpy as np
import pytest

from repro import AdaptiveChargeDegree, FixedDegree, Treecode
from repro.multipole.harmonics import cart_to_sph, ncoef, sph_harmonics
from repro.multipole.translations import (
    _iphase_grid,
    _sq_grid,
    _valid_mask,
    m2l_geometry,
    singular_grid,
    to_full_grid,
)
from repro.perf import cluster
from repro.perf.cluster import _M2L_MAX_P, _m2l_c64_safe, batched_m2l


def oracle_grid(d: np.ndarray, p: int) -> np.ndarray:
    """Scaled singular grid ``i^|m| sq(n,m) Y_n^m / rho^(n+1)`` from the
    Legendre table, ``arctan2`` and complex ``exp``; ``(p+1, 2p+1, B)``."""
    rho, ct, phi = cart_to_sph(d)
    full = to_full_grid(sph_harmonics(ct, phi, p), p)
    npow = (1.0 / rho)[:, None] ** (np.arange(p + 1)[None, :] + 1)
    S = full * npow[:, :, None]
    S = S * (_iphase_grid(p, +1) * _sq_grid(p)) * _valid_mask(p)
    return np.moveaxis(S, 0, -1)


def exact_grid(dv, p: int) -> np.ndarray:
    """The same grid in exact rational arithmetic (``rho * O_n^m`` is a
    rational function of ``x, y, z``), rounded once at the end."""
    x, y, z = (Fraction(float(v)) for v in dv)
    r2 = x * x + y * y + z * z
    O = {(0, 0): (Fraction(1), Fraction(0))}
    for n in range(1, p + 1):
        for m in range(n + 1):
            if m == n:
                a, b = O[(n - 1, n - 1)]
                k = Fraction(2 * n - 1) / r2
                O[(n, n)] = (k * (x * a - y * b), k * (x * b + y * a))
                continue
            a, b = O[(n - 1, m)]
            k = Fraction(2 * n - 1) * z / r2
            re, im = k * a, k * b
            if m <= n - 2:
                c, e = O[(n - 2, m)]
                k2 = Fraction((n + m - 1) * (n - m - 1)) / r2
                re, im = re - k2 * c, im - k2 * e
            O[(n, m)] = (re, im)
    rho = float(np.sqrt(float(r2)))
    g = np.zeros((p + 1, 2 * p + 1), dtype=np.complex128)
    for (n, m), (re, im) in O.items():
        ph = 1j**m
        g[n, p + m] = complex(float(re), float(im)) / rho * ph
        g[n, p - m] = complex(float(re), -float(im)) / rho * ph
    return g


def _directions(rng, k=12):
    u = rng.standard_normal((k, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    special = np.array(
        [
            [0.0, 0.0, 1.0],  # +z axis
            [0.0, 0.0, -1.0],  # -z axis
            [1.0, 0.0, 0.0],  # equator
            [0.6, -0.8, 0.0],  # equator
        ]
    )
    return np.vstack([u, special])


def _max_degree_error(got, want):
    """Worst ``|got - want|`` per (degree, row) relative to that
    degree's grid max of ``want`` in the same row."""
    err = np.abs(got - want).max(axis=1)
    scale = np.abs(want).max(axis=1)
    assert np.all(np.isfinite(scale)) and np.all(scale > 0)
    return float((err / scale).max())


class TestRecurrenceGrid:
    @pytest.mark.parametrize("p", range(1, _M2L_MAX_P + 1))
    def test_matches_sph_harmonics_oracle(self, p, rng):
        u = _directions(rng)
        for rho in (1e-2, 0.37, 1.0, 23.0, 1e3):
            d = u * rho
            got = singular_grid(d, p)
            assert got.shape == (p + 1, 2 * p + 1, d.shape[0])
            assert got.dtype == np.complex128
            assert _max_degree_error(got, oracle_grid(d, p)) <= 1e-13, rho

    def test_full_plan_degree_range_against_exact(self):
        """Up to the summed degree ``2 * _M2L_MAX_P`` a cluster plan
        builds, the recurrence stays within 2e-13 of each degree's max
        against exact arithmetic (the Legendre-table oracle itself is
        off by up to 3.8e-13 on these rows, and loses the m > 0 entries
        entirely next to the pole, where ``cos θ`` rounds to 1)."""
        p = 2 * _M2L_MAX_P
        d = np.array(
            [[3, -5, 7], [1, 1, 64], [-1, 2, -128], [5, 3, 0], [2**-30, 0, 8]],
            dtype=np.float64,
        ) / 8
        got = singular_grid(d, p)
        for i in range(d.shape[0]):
            want = exact_grid(d[i], p)[..., None]
            assert _max_degree_error(got[..., i : i + 1], want) <= 2e-13, i

    def test_axis_and_equator_structure(self):
        p = 20
        n = np.arange(p + 1)
        fact = np.cumprod(np.concatenate([[1.0], np.arange(1.0, p + 1)]))
        for sign in (1.0, -1.0):
            for rho in (1e-2, 1.0, 1e3):
                g = singular_grid(np.array([[0.0, 0.0, sign * rho]]), p)[..., 0]
                # on the axis only m = 0 survives: O_n^0 = (±1)^n n! / rho^(n+1)
                assert np.all(g[:, p + 1 :] == 0) and np.all(g[:, :p] == 0)
                want = sign**n * fact / rho ** (n + 1.0)
                np.testing.assert_allclose(g[:, p].real, want, rtol=1e-13)
                assert np.all(g[:, p].imag == 0)
        # on the equator P_n^m(0) = 0 whenever n + m is odd
        g = singular_grid(np.array([[0.3, -0.4, 0.0]]), p)[..., 0]
        m = np.arange(-p, p + 1)
        odd = (n[:, None] + m[None, :]) % 2 == 1
        assert np.all(g[odd] == 0)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_batch_and_single_row_builds_bitwise(self, rng, dtype):
        p = 14
        d = np.vstack([_directions(rng) * 2.5, rng.standard_normal((40, 3)) + 3.0])
        d = d[rng.integers(0, d.shape[0], size=64)]  # with duplicates
        batch = singular_grid(d, p, dtype)
        assert batch.dtype == dtype
        rows = np.concatenate(
            [singular_grid(d[i : i + 1], p, dtype) for i in range(d.shape[0])],
            axis=-1,
        )
        np.testing.assert_array_equal(batch, rows)
        np.testing.assert_array_equal(
            batch[..., ::3], singular_grid(d[::3], p, dtype)
        )

    def test_complex64_grid_finite_whenever_c64_safe(self, rng):
        u = _directions(rng, k=4)
        rhos = np.geomspace(1e-3, 1e3, 61)
        n_safe = 0
        for p in range(1, _M2L_MAX_P + 1):
            safe = [r for r in rhos if _m2l_c64_safe(p, float(r))]
            # the closest safe distance carries the largest entries
            for r in safe[:2]:
                g = singular_grid(u * r, 2 * p, np.complex64)
                assert np.all(np.isfinite(g.real)) and np.all(np.isfinite(g.imag))
                n_safe += 1
        assert n_safe > 40

    def test_m2l_geometry_is_the_recurrence_batch_first(self, rng):
        d = rng.standard_normal((7, 3)) + 2.0
        for ps, pl in ((4, 4), (6, 3)):
            geo = m2l_geometry(d, ps, pl)
            assert geo.shape == (7, ps + pl + 1, 2 * (ps + pl) + 1)
            np.testing.assert_array_equal(
                geo, np.moveaxis(singular_grid(d, ps + pl), -1, 0)
            )
            want = np.moveaxis(oracle_grid(d, ps + pl), -1, 0)
            assert np.abs(geo - want).max() <= 1e-13 * np.abs(want).max()

    def test_batched_m2l_matches_oracle_geometry(self, rng):
        """The whole batched kernel against M2L run on the oracle grid."""
        p = 6
        d = rng.standard_normal((30, 3)) + 3.0
        C = rng.standard_normal((30, ncoef(p))) + 1j * rng.standard_normal(
            (30, ncoef(p))
        )
        got = batched_m2l(C, d, p, dtype=np.complex128)
        want = batched_m2l(
            C, d, p, dtype=np.complex128,
            grid=(oracle_grid(d, 2 * p), np.arange(30)),
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


# ----------------------------------------------------------------------
# Compile-time displacement dedup
# ----------------------------------------------------------------------


def _cloud(rng, n=1500):
    pts = rng.random((n, 3))
    q = rng.uniform(-1.0, 1.0, n)
    return pts, q


class TestCompileTimeDedup:
    def test_abs_com_execute_never_searches_for_duplicates(
        self, rng, monkeypatch
    ):
        pts, q = _cloud(rng)
        tc = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5))
        plan = tc.compile_plan(mode="cluster", cache_dir="")
        groups = [g for u in plan._units for g in u.groups]
        assert groups and all(g.dedup is None for g in groups)

        calls = {"dedup": 0, "unique": 0}
        real_dedup, real_unique = cluster._dedup_rows, np.unique

        def dedup(*a, **k):
            calls["dedup"] += 1
            return real_dedup(*a, **k)

        def unique(*a, **k):
            calls["unique"] += 1
            return real_unique(*a, **k)

        monkeypatch.setattr(cluster, "_dedup_rows", dedup)
        monkeypatch.setattr(np, "unique", unique)
        plan.execute(q)
        plan.execute(np.stack([q, -q], axis=1))
        assert calls == {"dedup": 0, "unique": 0}

    @pytest.mark.parametrize("chunk", [None, 64])
    def test_box_centres_dedup_bitwise_equal_to_per_row_build(
        self, rng, monkeypatch, chunk
    ):
        if chunk is not None:  # several chunks gather from one grid
            monkeypatch.setattr(cluster, "_M2L_CHUNK", chunk)
        pts, q = _cloud(rng)
        tc = Treecode(
            pts, q, degree_policy=FixedDegree(5), expansion_center="box"
        )
        plan = tc.compile_plan(mode="cluster", cache_dir="")
        groups = [g for u in plan._units for g in u.groups]
        deduped = [g for g in groups if g.dedup is not None]
        assert deduped
        for g in deduped:
            d_u, inv = g.dedup
            assert 2 * d_u.shape[0] <= g.d.shape[0]
            np.testing.assert_array_equal(d_u[inv], g.d)
        Q = np.stack([q, 0.5 * q, -q], axis=1)
        ref, ref_b = plan.execute(q).potential, plan.execute(Q).potential
        for g in groups:
            g.dedup = None
        np.testing.assert_array_equal(plan.execute(q).potential, ref)
        np.testing.assert_array_equal(plan.execute(Q).potential, ref_b)
