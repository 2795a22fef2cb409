import numpy as np
import pytest
from numpy.testing import assert_allclose

from prafd.config import (ConfigError, ScenarioConfig, load_config,
                          parse_setting, validate_config, SPEED_OF_LIGHT)


class TestDefaults:
    def test_wavelength_from_carrier(self):
        cfg = ScenarioConfig()
        assert_allclose(cfg.wavelength, SPEED_OF_LIGHT / 30e9)

    def test_region_half_width_scales_with_wavelength(self):
        cfg = ScenarioConfig(A=4.0)
        assert_allclose(cfg.region_half_width, 2.0 * cfg.wavelength)

    def test_min_spacing_defaults_to_half_wavelength(self):
        cfg = ScenarioConfig()
        assert_allclose(cfg.D_min, cfg.wavelength / 2.0)

    def test_explicit_min_spacing_kept(self):
        cfg = ScenarioConfig(D_min=0.003)
        assert cfg.D_min == 0.003

    def test_weights_uniform_over_all_users(self):
        cfg = ScenarioConfig(K_D=3, K_U=5)
        assert cfg.K == 8
        assert_allclose(cfg.weights, np.full(8, 1.0 / 8.0))

    def test_defaults_validate(self):
        validate_config(ScenarioConfig())

    def test_replace_keeps_other_fields(self):
        cfg = ScenarioConfig(K_D=2).replace(N_t=7)
        assert cfg.N_t == 7 and cfg.K_D == 2


class TestSiVariance:
    def test_per_si_path_normalization(self):
        cfg = ScenarioConfig(rho_SI=1e-9, L_SI=6)
        assert_allclose(cfg.si_path_variance(), 1e-9 / 6)


class TestDownlinkOnly:
    def test_drops_uplink_users(self):
        cfg = ScenarioConfig(K_D=3, K_U=2).downlink_only()
        assert cfg.K_U == 0 and cfg.K_D == 3

    def test_keeps_downlink_weights(self):
        w = np.array([0.4, 0.1, 0.3, 0.2])
        cfg = ScenarioConfig(K_D=2, K_U=2, weights=w).downlink_only()
        assert_allclose(cfg.weights, w[:2])


class TestValidation:
    @pytest.mark.parametrize("kw", [
        dict(K_D=0, K_U=0),
        dict(N_t=0),
        dict(A=0.0),
        dict(L=0),
        dict(p_D_max=0.0),
        dict(p_U_max=0.0),
        dict(d_near=30.0, d_far=20.0),
        dict(alpha=0.0),
        dict(L_SI=0),
        dict(f_c=0.0),
        dict(f_c=-3e10),
        dict(f_c=float("inf")),
        dict(f_c=float("nan")),
        dict(d_far=float("inf")),
        dict(sigma2=float("nan")),
        dict(p_D_max=float("inf")),
        dict(A=float("nan")),
        dict(rho_0=float("nan")),
        dict(weights=np.full(8, np.nan)),
    ])
    def test_rejects_bad_field(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            validate_config(ScenarioConfig(**kw))

    def test_rejects_weights_not_summing_to_one(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, weights=np.array([0.5, 0.6]))
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_rejects_negative_weight(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, weights=np.array([1.5, -0.5]))
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_rejects_unpackable_spacing(self):
        # 16 discs of diameter D_min cannot fit in the region square.
        cfg = ScenarioConfig(N_t=16, D_min=1.0, A=4.0)
        with pytest.raises(ConfigError):
            validate_config(cfg)


class TestParseSetting:
    def test_plain_float(self):
        assert parse_setting("A", "3.5") == ("A", 3.5)

    def test_int_field(self):
        field, value = parse_setting("K_D", "3")
        assert field == "K_D" and value == 3 and isinstance(value, int)

    def test_db_gain_alias(self):
        field, value = parse_setting("rho_0_db", "-40")
        assert field == "rho_0"
        assert_allclose(value, 1e-4)

    def test_dbm_power_alias(self):
        field, value = parse_setting("p_D_max_dbm", "40")
        assert field == "p_D_max"
        assert_allclose(value, 10.0)

    def test_dbm_noise_alias(self):
        field, value = parse_setting("sigma2_dbm", "-90")
        assert field == "sigma2"
        assert_allclose(value, 1e-12)

    def test_weights_list(self):
        field, value = parse_setting("weights", "0.25, 0.25, 0.25, 0.25")
        assert field == "weights"
        assert_allclose(value, [0.25] * 4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_setting("bandwidth", "1.0")

    @pytest.mark.parametrize("key", ["seed", "epsilon", "epsilon_bsum"])
    def test_seed_and_stop_thresholds_are_not_config_keys(self, key):
        # The seed is the experiment's (--seed) and the stop thresholds
        # are solver constants.
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_setting(key, "1")


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# comment line\n"
            "K_D = 1\n"
            "K_U = 1\n"
            "p_D_max_dbm = 30\n"
            "A = 2.0   # trailing comment\n"
        )
        cfg = load_config(str(path))
        assert cfg.K_D == 1 and cfg.K_U == 1
        assert_allclose(cfg.p_D_max, 1.0)
        assert cfg.A == 2.0

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("A = 2.0\nA = 3.0\n")
        with pytest.raises(ConfigError, match="twice"):
            load_config(str(path))

    def test_duplicate_through_alias_rejected(self, tmp_path):
        # p_D_max and its dBm alias name the same field.
        path = tmp_path / "alias.cfg"
        path.write_text("p_D_max = 10.0\np_D_max_dbm = 40\n")
        with pytest.raises(ConfigError, match="twice"):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("carrier = 30\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["seed", "epsilon", "epsilon_bsum"])
    def test_seed_and_stop_thresholds_rejected(self, tmp_path, key):
        path = tmp_path / "old.cfg"
        path.write_text(f"A = 2.0\n{key} = 1\n")
        with pytest.raises(ConfigError,
                           match=f":2: unknown config key '{key}'"):
            load_config(str(path))

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "base.cfg"
        path.write_text("A = 2.0\n")
        cfg = load_config(str(path), overrides={"A": 5.0})
        assert cfg.A == 5.0
