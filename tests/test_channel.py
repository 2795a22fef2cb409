import dataclasses
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose

from prafd.channel import (AntennaLayout, Channels, build_channels,
                           field_response, move_side, sample_realization,
                           trial_rng, wave_vector)
from prafd.config import ScenarioConfig


def small_cfg(**kw):
    base = dict(K_D=2, K_U=2, N_t=3, N_r=2, L=4, L_SI=3)
    base.update(kw)
    return ScenarioConfig(**base)


def channels_at(rlz, cfg, t_pos=None, r_pos=None):
    """`build_channels` with a side left unset at the origin."""
    return build_channels(AntennaLayout(
        t=np.zeros((cfg.N_t, 2)) if t_pos is None else t_pos,
        r=np.zeros((cfg.N_r, 2)) if r_pos is None else r_pos), rlz, cfg)


def record_arrays(ch):
    """Every array of a channel record by name, its layout's sides
    included."""
    return {**{f.name: getattr(ch, f.name)
               for f in dataclasses.fields(Channels) if f.name != "layout"},
            "layout.t": ch.layout.t, "layout.r": ch.layout.r}


class TestWaveVector:
    def test_known_directions(self):
        assert_allclose(wave_vector(np.pi / 2, 0.0), [1.0, 0.0], atol=1e-15)
        assert_allclose(wave_vector(0.0, 0.0), [0.0, 1.0], atol=1e-15)
        assert_allclose(wave_vector(np.pi / 2, np.pi / 2), [0.0, 0.0], atol=1e-15)

    def test_broadcasts_with_trailing_axis(self):
        theta = np.zeros((5, 3))
        out = wave_vector(theta, theta)
        assert out.shape == (5, 3, 2)

    def test_unit_norm_at_zero_azimuth(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0, np.pi, 50)
        d = wave_vector(theta, np.zeros(50))
        assert_allclose(np.linalg.norm(d, axis=-1), np.ones(50))


class TestFieldResponse:
    def test_unit_modulus(self):
        rng = np.random.default_rng(1)
        e = field_response(rng.normal(size=(4, 2)), rng.normal(size=(3, 2)), 100.0)
        assert e.shape == (4, 3)
        assert_allclose(np.abs(e), np.ones((4, 3)))

    def test_origin_has_zero_phase(self):
        e = field_response(np.zeros((1, 2)), np.ones((5, 2)), 700.0)
        assert_allclose(e, np.ones((1, 5)))

    def test_phase_additive_in_position(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(1, 2))
        d = rng.normal(size=(1, 2))
        one = field_response(t, d, 50.0)[0, 0]
        two = field_response(2 * t, d, 50.0)[0, 0]
        assert_allclose(two, one ** 2)


class TestSampleRealization:
    def test_shapes(self):
        cfg = small_cfg()
        rlz = sample_realization(cfg, np.random.default_rng(0))
        assert rlz.dl_angles.shape == (2, 4, 2)
        assert rlz.ul_angles.shape == (2, 4, 2)
        assert rlz.si_t_angles.shape == (3, 2)
        assert rlz.prm_dl.shape == (2, 4)
        assert rlz.sigma_si.shape == (3, 3)
        assert rlz.h_iui.shape == (2, 2)
        assert rlz.dl_dirs.shape == (2, 4, 2)

    def test_deterministic_for_fixed_generator(self):
        cfg = small_cfg()
        a = sample_realization(cfg, np.random.default_rng(7))
        b = sample_realization(cfg, np.random.default_rng(7))
        assert_allclose(a.prm_dl, b.prm_dl)
        assert_allclose(a.dl_angles, b.dl_angles)
        assert_allclose(a.sigma_si, b.sigma_si)

    def test_angles_in_range(self):
        cfg = small_cfg()
        rlz = sample_realization(cfg, np.random.default_rng(3))
        for a in (rlz.dl_angles, rlz.ul_angles, rlz.si_t_angles, rlz.si_r_angles):
            assert np.all(a >= 0.0) and np.all(a <= np.pi)

    def test_path_gain_follows_distance_law(self):
        # Mean |prm|^2 per user sums to rho_0 * d^-alpha across paths.
        cfg = small_cfg(K_D=1, K_U=1, L=2)
        rng = np.random.default_rng(4)
        total = 0.0
        dist = None
        n = 4000
        for _ in range(n):
            rlz = sample_realization(cfg, rng)
            if dist is None:
                dist = rlz.dl_dist[0]
            total += np.sum(np.abs(rlz.prm_dl[0]) ** 2) \
                / (cfg.rho_0 * rlz.dl_dist[0] ** -cfg.alpha)
        assert abs(total / n - 1.0) < 0.1

    def test_si_variance_normalized_per_path(self):
        cfg = small_cfg(L_SI=4)
        rng = np.random.default_rng(5)
        acc = 0.0
        n = 4000
        for _ in range(n):
            rlz = sample_realization(cfg, rng)
            acc += np.mean(np.abs(rlz.sigma_si) ** 2)
        assert_allclose(acc / n, cfg.rho_SI / cfg.L_SI, rtol=0.1)

    def test_downlink_only_view(self):
        cfg = small_cfg()
        rlz = sample_realization(cfg, np.random.default_rng(6)).downlink_only()
        assert rlz.prm_ul.shape == (0, 4)
        assert rlz.h_iui.shape == (2, 0)
        assert_allclose(rlz.prm_dl, rlz.prm_dl)  # downlink untouched


class TestTrialRng:
    def test_reproducible(self):
        a = trial_rng(0, 5, 2).standard_normal(8)
        b = trial_rng(0, 5, 2).standard_normal(8)
        assert_allclose(a, b)

    def test_streams_independent(self):
        a = trial_rng(0, 5, 0).standard_normal(8)
        b = trial_rng(0, 5, 1).standard_normal(8)
        c = trial_rng(0, 6, 0).standard_normal(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)


class TestChannelBuilders:
    def test_downlink_matches_explicit_loop(self):
        cfg = small_cfg()
        rng = np.random.default_rng(10)
        rlz = sample_realization(cfg, rng)
        t_pos = rng.uniform(-1, 1, (cfg.N_t, 2)) * cfg.wavelength
        H = channels_at(rlz, cfg, t_pos=t_pos).H_D
        kappa = 2 * np.pi / cfg.wavelength
        ref = np.zeros((cfg.N_t, cfg.K_D), dtype=complex)
        for n in range(cfg.N_t):
            for k in range(cfg.K_D):
                for l in range(cfg.L):
                    ref[n, k] += rlz.prm_dl[k, l] * np.exp(
                        -1j * kappa * rlz.dl_dirs[k, l] @ t_pos[n])
        assert_allclose(H, ref, atol=1e-14)

    def test_uplink_matches_explicit_loop(self):
        cfg = small_cfg()
        rng = np.random.default_rng(11)
        rlz = sample_realization(cfg, rng)
        r_pos = rng.uniform(-1, 1, (cfg.N_r, 2)) * cfg.wavelength
        H = channels_at(rlz, cfg, r_pos=r_pos).H_U
        kappa = 2 * np.pi / cfg.wavelength
        ref = np.zeros((cfg.N_r, cfg.K_U), dtype=complex)
        for n in range(cfg.N_r):
            for u in range(cfg.K_U):
                for l in range(cfg.L):
                    ref[n, u] += rlz.prm_ul[u, l] * np.exp(
                        -1j * kappa * rlz.ul_dirs[u, l] @ r_pos[n])
        assert_allclose(H, ref, atol=1e-14)

    def test_si_matches_explicit_loop(self):
        cfg = small_cfg()
        rng = np.random.default_rng(12)
        rlz = sample_realization(cfg, rng)
        t_pos = rng.uniform(-1, 1, (cfg.N_t, 2)) * cfg.wavelength
        r_pos = rng.uniform(-1, 1, (cfg.N_r, 2)) * cfg.wavelength
        H = channels_at(rlz, cfg, t_pos, r_pos).H_SI
        kappa = 2 * np.pi / cfg.wavelength
        ref = np.zeros((cfg.N_r, cfg.N_t), dtype=complex)
        for i in range(cfg.N_r):
            for j in range(cfg.N_t):
                for p in range(cfg.L_SI):
                    for q in range(cfg.L_SI):
                        ref[i, j] += (np.exp(-1j * kappa * rlz.si_r_dirs[p] @ r_pos[i])
                                      * rlz.sigma_si[p, q]
                                      * np.exp(1j * kappa * rlz.si_t_dirs[q] @ t_pos[j]))
        assert_allclose(H, ref, atol=1e-14)

    def test_single_path_has_constant_modulus(self):
        cfg = small_cfg(L=1)
        rng = np.random.default_rng(13)
        rlz = sample_realization(cfg, rng)
        t_pos = rng.uniform(-1, 1, (cfg.N_t, 2)) * cfg.wavelength
        H = channels_at(rlz, cfg, t_pos=t_pos).H_D
        for k in range(cfg.K_D):
            assert_allclose(np.abs(H[:, k]), np.abs(rlz.prm_dl[k, 0]))

    def test_build_channels_collects_all_matrices(self):
        cfg = small_cfg()
        rng = np.random.default_rng(14)
        rlz = sample_realization(cfg, rng)
        layout = AntennaLayout(
            t=rng.uniform(-1, 1, (cfg.N_t, 2)) * cfg.wavelength,
            r=rng.uniform(-1, 1, (cfg.N_r, 2)) * cfg.wavelength)
        ch = build_channels(layout, rlz, cfg)
        assert ch.layout is layout
        assert ch.H_D.shape == (cfg.N_t, cfg.K_D)
        assert ch.H_U.shape == (cfg.N_r, cfg.K_U)
        assert ch.H_SI.shape == (cfg.N_r, cfg.N_t)
        assert_allclose(ch.H_IUI, rlz.h_iui)
        k = cfg.kappa
        for got, pos, dirs, sign in ((ch.u_t, layout.t, rlz.dl_dirs, -1),
                                     (ch.s_t, layout.t, rlz.si_t_dirs, 1),
                                     (ch.u_r, layout.r, rlz.ul_dirs, -1),
                                     (ch.s_r, layout.r, rlz.si_r_dirs, 1)):
            assert_allclose(got, field_response(pos, dirs.reshape(-1, 2),
                                                sign * k))

    def test_moved_side_equals_a_rebuild(self):
        # Moving one side re-takes only its phasors and gives the record a
        # full rebuild would, bit for bit, its layout included; the input
        # record is untouched.
        cfg = small_cfg()
        rng = np.random.default_rng(16)
        rlz = sample_realization(cfg, rng)
        layout = AntennaLayout(
            t=rng.uniform(-1, 1, (cfg.N_t, 2)) * cfg.wavelength,
            r=rng.uniform(-1, 1, (cfg.N_r, 2)) * cfg.wavelength)
        ch = build_channels(layout, rlz, cfg)
        before = {k: v.copy() for k, v in record_arrays(ch).items()}
        for side in ("t", "r"):
            moved = layout.copy()
            pos = rng.uniform(-1, 1, getattr(layout, side).shape) \
                * cfg.wavelength
            setattr(moved, side, pos)
            got, ref = move_side(ch, side, pos, rlz, cfg), \
                build_channels(moved, rlz, cfg)
            assert getattr(got.layout, side) is pos
            refs = record_arrays(ref)
            for name, value in record_arrays(got).items():
                assert value.tobytes() == refs[name].tobytes(), (side, name)
        for name, value in record_arrays(ch).items():
            assert np.array_equal(value, before[name])

    def test_perturbed_angles_recompute_directions(self):
        cfg = small_cfg()
        rlz = sample_realization(cfg, np.random.default_rng(15))
        shifted = replace(rlz, dl_angles=rlz.dl_angles + 0.1)
        assert not np.allclose(shifted.dl_dirs, rlz.dl_dirs)
        assert_allclose(shifted.ul_dirs, rlz.ul_dirs)
