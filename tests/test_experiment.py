import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prafd import experiment
from prafd.baselines import fpas_layout
from prafd.channel import sample_realization, trial_rng
from prafd.config import ConfigError, ScenarioConfig
from prafd.experiment import (AGG_COLUMNS, RAW_COLUMNS, ExperimentSpec,
                              apply_sweep, emit_csv, perturb_angles,
                              perturb_prm, run_experiment, run_trial)


def small_spec(**kw):
    base = dict(base=ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2),
                algorithms=("fp-bsum", "fpas"), trials=4, seed=0)
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpec:
    def test_no_sweep_has_single_nan_point(self):
        pts = small_spec().points()
        assert len(pts) == 1 and math.isnan(pts[0])

    def test_sweep_points_preserved(self):
        spec = small_spec(sweep_field="A", sweep_values=(1.0, 2.0, 3.0))
        assert spec.points() == [1.0, 2.0, 3.0]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(algorithms=("fp-bsum", "genie"))

    @pytest.mark.parametrize("factor", [0.0, -0.5, 2.0, float("nan")])
    def test_duplex_factor_outside_unit_interval_rejected(self, factor):
        with pytest.raises(ConfigError, match="duplex factor"):
            small_spec(algorithms=("hd",), duplex_factor=factor)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_fewer_than_one_trial_rejected(self, trials):
        with pytest.raises(ConfigError, match="--trials"):
            small_spec(trials=trials)

    def test_negative_seed_rejected(self):
        # Named before any trial runs, not left to the generator's own
        # error in a worker process.
        with pytest.raises(ConfigError, match="--seed must be non-negative"):
            small_spec(seed=-1)

    @pytest.mark.parametrize("algorithms, match", [
        ((), "--algos names no algorithm"),
        (("fpas", "fpas"), "--algos names 'fpas' twice"),
    ])
    def test_empty_or_repeated_algorithms_rejected(self, algorithms, match):
        with pytest.raises(ConfigError, match=match):
            small_spec(algorithms=algorithms)

    def test_repeated_sweep_value_rejected(self):
        with pytest.raises(ConfigError, match="--sweep lists 2 twice"):
            small_spec(sweep_field="A", sweep_values=(2.0, 2.0))

    @pytest.mark.parametrize("field, value", [
        ("theta_m", -0.2), ("theta_m", float("nan")),
        ("theta_m", float("inf")), ("sigma_e2", -0.1),
    ])
    def test_negative_or_non_finite_perturbation_rejected(self, field, value):
        # Rejected before any trial runs, naming the field: not a numpy
        # error, an uncaught overflow or a run on NaN channels.
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            small_spec(sweep_field=field, sweep_values=(0.1, value))

    @pytest.mark.parametrize("kw, match", [
        (dict(sweep_field="A"), "--sweep lists no values"),
        (dict(sweep_values=(1.0, 2.0)), "--sweep lists values but names no"),
        (dict(sweep_field="bandwidth", sweep_values=(1.0, 2.0)),
         "unknown sweep field 'bandwidth'"),
        (dict(sweep_field="N", sweep_values=(2.0, 1.5)),
         "N takes integral values only"),
        (dict(sweep_field="A", sweep_values=(1.0, 0.0)),
         "region side A must be positive"),
    ])
    def test_every_sweep_point_checked_when_built(self, kw, match):
        # A field with no values, values with no field and a point that
        # `apply_sweep` rejects all stop the spec, before any trial runs.
        with pytest.raises(ConfigError, match=match):
            small_spec(**kw)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_fewer_than_one_thread_rejected(self, threads):
        with pytest.raises(ConfigError, match="--threads"):
            small_spec(threads=threads)

    @pytest.mark.parametrize("kw, match", [
        (dict(N_t=0), "N_t and N_r"),
        (dict(weights=np.array([0.75, 0.75])), "weights must sum"),
    ])
    def test_invalid_base_config_rejected(self, kw, match):
        # The library path has the same gate as the command line: an
        # invalid base config never reaches a trial.
        base = ScenarioConfig(**{**dict(K_D=1, K_U=1, N_t=2, N_r=2), **kw})
        with pytest.raises(ConfigError, match=match):
            small_spec(base=base)


class TestApplySweep:
    def test_antenna_count_sets_both_sides(self):
        cfg = apply_sweep(ScenarioConfig(), "N", 3)
        assert cfg.N_t == 3 and cfg.N_r == 3

    def test_region_size(self):
        cfg = apply_sweep(ScenarioConfig(), "A", 2.0)
        assert cfg.A == 2.0

    def test_power_field(self):
        cfg = apply_sweep(ScenarioConfig(), "p_D_max", 1.0)
        assert cfg.p_D_max == 1.0

    def test_carrier_points_rederive_half_wavelength_spacing(self):
        cfg = apply_sweep(ScenarioConfig(), "f_c", 60e9)
        assert cfg.D_min == 0.5 * cfg.wavelength

    def test_carrier_points_keep_spacing_set_by_hand(self):
        base = ScenarioConfig(D_min=6e-3)
        assert apply_sweep(base, "f_c", 60e9).D_min == 6e-3

    def test_perturbation_field_leaves_config(self):
        base = ScenarioConfig()
        cfg = apply_sweep(base, "theta_m", 0.3)
        assert cfg is base

    def test_no_sweep_leaves_config(self):
        base = ScenarioConfig()
        assert apply_sweep(base, None, float("nan")) is base

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_sweep(ScenarioConfig(), "A", 0.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="sweep field"):
            apply_sweep(ScenarioConfig(), "bandwidth", 1.0)

    def test_seed_rejected(self):
        # Trials draw from the spec's seed, so a seed sweep would repeat
        # identical trials at every point.
        with pytest.raises(ConfigError, match="--seed"):
            apply_sweep(ScenarioConfig(), "seed", 1)

    def test_user_count_points_get_equal_weights(self):
        base = ScenarioConfig(K_D=2, K_U=2)
        for field, value in (("K_D", 1), ("K_D", 3), ("K_U", 0), ("K_U", 4)):
            cfg = apply_sweep(base, field, value)
            assert_allclose(cfg.weights, np.full(cfg.K, 1.0 / cfg.K))
        hand_set = base.replace(weights=np.array([0.4, 0.1, 0.25, 0.25]))
        for value in (1, 2):
            with pytest.raises(ConfigError, match="weights"):
                apply_sweep(hand_set, "K_D", value)

    @pytest.mark.parametrize("field", ["N", "K_D", "K_U", "N_t", "N_r", "L",
                                       "L_SI"])
    def test_integer_fields_reject_fractions(self, field):
        with pytest.raises(ConfigError, match="integral"):
            apply_sweep(ScenarioConfig(), field, 2.5)
        cfg = apply_sweep(ScenarioConfig(), field, 2.0)
        for name in ("N_t", "N_r") if field == "N" else (field,):
            assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 2


class TestPerturbations:
    def test_zero_angle_noise_is_identity(self):
        cfg = ScenarioConfig(K_D=2, K_U=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        out = perturb_angles(rlz, 0.0, trial_rng(0, 0, 2))
        assert_allclose(out.dl_angles, rlz.dl_angles)
        assert_allclose(out.ul_angles, rlz.ul_angles)

    def test_angle_noise_bounded_and_clipped(self):
        cfg = ScenarioConfig(K_D=2, K_U=2)
        rlz = sample_realization(cfg, trial_rng(0, 1, 0))
        theta = 0.4
        out = perturb_angles(rlz, theta, trial_rng(0, 1, 2))
        for a, b in ((out.dl_angles, rlz.dl_angles),
                     (out.ul_angles, rlz.ul_angles),
                     (out.si_t_angles, rlz.si_t_angles)):
            assert np.all(np.abs(a - b) <= theta / 2 + 1e-12)
            assert np.all(a >= 0.0) and np.all(a <= np.pi)
        assert_allclose(out.prm_dl, rlz.prm_dl)  # gains untouched

    def test_angle_noise_recomputes_directions(self):
        cfg = ScenarioConfig(K_D=1, K_U=1)
        rlz = sample_realization(cfg, trial_rng(0, 2, 0))
        out = perturb_angles(rlz, 0.3, trial_rng(0, 2, 2))
        assert not np.allclose(out.dl_dirs, rlz.dl_dirs)

    def test_zero_gain_noise_is_identity(self):
        cfg = ScenarioConfig(K_D=1, K_U=1)
        rlz = sample_realization(cfg, trial_rng(0, 3, 0))
        out = perturb_prm(rlz, 0.0, trial_rng(0, 3, 2))
        assert_allclose(out.prm_dl, rlz.prm_dl)
        assert_allclose(out.h_iui, rlz.h_iui)

    def test_gain_noise_scales_with_level(self):
        cfg = ScenarioConfig(K_D=4, K_U=4, L=8)
        rlz = sample_realization(cfg, trial_rng(0, 4, 0))
        rel = []
        for rep in range(200):
            out = perturb_prm(rlz, 0.2, trial_rng(0, rep, 2))
            rel.append(np.mean(np.abs(out.prm_dl - rlz.prm_dl) ** 2
                               / np.abs(rlz.prm_dl) ** 2))
        assert_allclose(np.mean(rel), 0.2, rtol=0.15)
        assert_allclose(out.dl_angles, rlz.dl_angles)  # angles untouched


class TestRunTrial:
    def test_fields_tagged(self):
        spec = small_spec()
        out = run_trial(spec, float("nan"), trial=3)
        assert [r.algorithm for r in out] == ["fp-bsum", "fpas"]
        assert all(r.trial == 3 for r in out)
        assert all(math.isnan(r.sweep_value) for r in out)
        assert all(r.failure is None for r in out)

    def test_algorithms_share_channels_and_layout(self):
        # The fixed-array baseline sees the same realization: rerunning the
        # trial with the algorithm list reversed changes nothing.
        spec_a = small_spec(algorithms=("fp-bsum", "fpas"))
        spec_b = small_spec(algorithms=("fpas", "fp-bsum"))
        ra = {r.algorithm: r.rate for r in run_trial(spec_a, float("nan"), 0)}
        rb = {r.algorithm: r.rate for r in run_trial(spec_b, float("nan"), 0)}
        assert ra == rb

    def test_perturbation_trial_reports_true_rate(self):
        spec = small_spec(sweep_field="theta_m", sweep_values=(0.3,))
        res = run_trial(spec, 0.3, trial=0)[0]
        assert len(res.eval_trace) == len(res.trace)
        assert res.rate == res.eval_trace[-1]
        assert res.rate != res.trace[-1]

    def test_zero_gain_start_scores_zero(self):
        # rho_0 = 0 zeroes every user channel: each algorithm starts from
        # the receive-column fallback and reports rate 0 without failing.
        spec = small_spec(base=ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2,
                                              rho_0=0.0),
                          algorithms=("fp-bsum", "fp-gd", "fpas", "hd"))
        out = run_trial(spec, float("nan"), trial=0)
        assert [r.algorithm for r in out] == list(spec.algorithms)
        for r in out:
            assert r.failure is None
            assert r.rate == 0.0
            assert not r.dl_rates.any() and not r.ul_rates.any()

    def test_fixed_arrays_alone_draw_no_layout(self, monkeypatch):
        # Five antennas do not fit a lambda x lambda square at lambda/2
        # spacing by rejection sampling, but fpas starts from its 3 x 3
        # fixed array, which does; a trial of fpas alone draws no layout.
        monkeypatch.setattr(experiment, "initialize_layout", None)
        spec = small_spec(base=ScenarioConfig(N_t=5, A=1.0),
                          algorithms=("fpas",), trials=2)
        out = run_experiment(spec)
        assert [r.failure for r in out] == [None, None]
        assert all(r.rate > 0.0 for r in out)

    def test_failed_draw_fails_only_the_algorithms_that_need_it(
            self, monkeypatch):
        # Listed with algorithms that start from the drawn layout, fpas
        # still solves; the draw that fails is made once and fails each
        # of the others' rows.
        draws = []
        real = experiment.initialize_layout

        def counted(*a):
            draws.append(a)
            return real(*a)

        monkeypatch.setattr(experiment, "initialize_layout", counted)
        spec = small_spec(base=ScenarioConfig(N_t=5, A=1.0),
                          algorithms=("fp-bsum", "fpas", "fp-gd"), trials=1)
        bsum, fpas, gd = run_trial(spec, float("nan"), 0)
        assert len(draws) == 1
        for res in (bsum, gd):
            assert "could not place 5 antennas" in res.failure
            assert res.failure.startswith("ConfigError")
            assert np.isnan(res.rate) and res.layout is None
        assert fpas.failure is None and fpas.rate > 0.0

    def test_each_row_records_its_own_start(self, monkeypatch):
        # fpas starts from the fixed arrays, solved or failed, even listed
        # after an algorithm that starts from the trial's random layout.
        spec = small_spec(algorithms=("fp-bsum", "fpas"))
        fixed = fpas_layout(spec.base)

        def same_layout(a, b):
            return np.array_equal(a.t, b.t) and np.array_equal(a.r, b.r)

        bsum, fpas = run_trial(spec, float("nan"), 0)
        assert fpas.failure is None and same_layout(fpas.layout, fixed)
        real = experiment.run_algorithm

        def failing_fpas(algo, *args, **kwargs):
            if algo == "fpas":
                raise RuntimeError("feasible region is empty")
            return real(algo, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_algorithm", failing_fpas)
        bsum, fpas = run_trial(spec, float("nan"), 0)
        assert bsum.failure is None
        assert fpas.failure == "RuntimeError: feasible region is empty"
        assert same_layout(fpas.layout, fixed)
        assert np.isnan(fpas.rate)

    def test_zero_perturbation_matches_plain_run(self):
        spec = small_spec(sweep_field="theta_m", sweep_values=(0.0,))
        plain = run_trial(small_spec(), float("nan"), 0)[0]
        noisy = run_trial(spec, 0.0, 0)[0]
        assert_allclose(noisy.rate, plain.rate, rtol=1e-12)


class TestRunExperiment:
    def test_rows_ordered_and_complete(self):
        spec = small_spec(sweep_field="A", sweep_values=(2.0, 4.0), trials=3)
        res = run_experiment(spec)
        assert len(res) == 2 * 2 * 3
        keys = [(r.sweep_value, r.algorithm, r.trial) for r in res]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2]))

    def test_thread_count_does_not_change_results(self):
        spec1 = small_spec(trials=4)
        spec2 = small_spec(trials=4, threads=2)
        r1 = [(r.algorithm, r.trial, r.rate) for r in run_experiment(spec1)]
        r2 = [(r.algorithm, r.trial, r.rate) for r in run_experiment(spec2)]
        assert r1 == r2


class TestCsv:
    def read(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_schema_and_row_counts(self, tmp_path):
        spec = small_spec(trials=3)
        res = run_experiment(spec)
        raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
        emit_csv(res, spec, str(raw), str(agg))
        raw_rows = self.read(raw)
        agg_rows = self.read(agg)
        assert raw_rows[0] == list(RAW_COLUMNS)
        assert agg_rows[0] == list(AGG_COLUMNS)
        assert len(raw_rows) == 1 + 3 * 2
        assert len(agg_rows) == 1 + 2
        # wall time columns are last so they can be stripped for comparison
        assert RAW_COLUMNS[-1] == "wall_time_s"
        assert AGG_COLUMNS[-1] == "time_mean_s"

    def test_aggregate_statistics_match_rows(self, tmp_path):
        spec = small_spec(trials=5, algorithms=("fpas",))
        res = run_experiment(spec)
        raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
        emit_csv(res, spec, str(raw), str(agg))
        rates = np.array([r.rate for r in res])
        row = self.read(agg)[1]
        cols = dict(zip(AGG_COLUMNS, row))
        assert int(cols["n_trials"]) == 5
        assert int(cols["n_failed"]) == 0
        assert_allclose(float(cols["rate_mean"]), rates.mean(), rtol=1e-12)
        assert_allclose(float(cols["rate_p50"]), np.median(rates), rtol=1e-12)

    def test_failed_trials_keep_their_rows(self, tmp_path, monkeypatch):
        # Every fp-bsum trial fails, and so does fpas's second trial.
        real = experiment.run_algorithm
        fpas_calls = []

        def flaky(algo, *args, **kwargs):
            if algo == "fpas":
                fpas_calls.append(1)
            if algo == "fp-bsum" or len(fpas_calls) == 2:
                raise RuntimeError("feasible region is empty")
            return real(algo, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_algorithm", flaky)
        spec = small_spec(trials=3)
        res = run_experiment(spec)
        raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
        emit_csv(res, spec, str(raw), str(agg))
        rows = [dict(zip(RAW_COLUMNS, r)) for r in self.read(raw)[1:]]
        assert len(rows) == 6
        failed = [(r["algorithm"], r["trial"]) for r in rows if r["failure"]]
        assert failed == [("fp-bsum", "0"), ("fp-bsum", "1"),
                          ("fp-bsum", "2"), ("fpas", "1")]
        for r in rows:
            if r["failure"]:
                assert r["failure"] == \
                    "RuntimeError: feasible region is empty"
                assert r["rate"] == r["dl_rates"] == r["ul_rates"] == ""
            else:
                assert float(r["rate"]) > 0.0
        cells = {r[0]: dict(zip(AGG_COLUMNS, r)) for r in self.read(agg)[1:]}
        dead, alive = cells["fp-bsum"], cells["fpas"]
        assert (dead["n_trials"], dead["n_failed"]) == ("3", "3")
        assert all(dead[c] == "nan" for c in AGG_COLUMNS[5:])
        assert (alive["n_trials"], alive["n_failed"]) == ("3", "1")
        ok = [float(r["rate"]) for r in rows
              if r["algorithm"] == "fpas" and not r["failure"]]
        assert float(alive["rate_mean"]) == np.mean(ok)

    def test_reruns_identical_excluding_wall_time(self, tmp_path):
        spec = small_spec(trials=3)
        for tag in ("a", "b"):
            emit_csv(run_experiment(spec), spec,
                     str(tmp_path / f"raw_{tag}.csv"),
                     str(tmp_path / f"agg_{tag}.csv"))
        for kind in ("raw", "agg"):
            a = (tmp_path / f"{kind}_a.csv").read_text().splitlines()
            b = (tmp_path / f"{kind}_b.csv").read_text().splitlines()
            assert [l.rsplit(",", 1)[0] for l in a] \
                == [l.rsplit(",", 1)[0] for l in b]


class TestPinnedRates:
    # Rates of a seeded desk-scale experiment, recorded before the signal
    # model was consolidated; refactors must reproduce them.  The hd row was
    # re-recorded when hd began to start from the trial's layout and grid
    # placement took the spacing rule's slack; the fp-bsum and hd rows when
    # BSUM visits began to try the antenna's Newton step first; the fp-gd
    # row when GD sides began to stop on the rate's scale, not on the
    # placement objective's offset magnitude.
    PINNED = {
        "fp-bsum": (6.2039483801238084, 7.267166909736571, 8.643370846813152),
        "fp-gd": (6.054226700114308, 6.7169272259591235, 7.900566161200655),
        "fpas": (4.379906153573741, 6.505871254364, 4.315288701195113),
        "hd": (2.360221955115923, 3.3793524512082866, 3.9794729504812354),
    }

    def test_desk_scale_rates_unchanged(self):
        spec = ExperimentSpec(base=ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2),
                              algorithms=tuple(self.PINNED), trials=3, seed=7)
        results = run_experiment(spec)
        assert not any(r.failure for r in results)
        for algo, rates in self.PINNED.items():
            got = [r.rate for r in results if r.algorithm == algo]
            assert_allclose(got, rates, rtol=1e-9, err_msg=algo)


class TestPinnedDefaultRates:
    # Rates of a seeded experiment at the defaults (4+4 users, 4+4
    # antennas), recorded before the channel record kept the path phasors;
    # refactors must reproduce them.  The fp-bsum row was re-recorded when
    # BSUM visits began to try the antenna's Newton step first, and the
    # fp-gd row when GD sides began to stop on the rate's scale.
    PINNED = {
        "fp-bsum": (5.792961071115172, 5.274548278726104),
        "fp-gd": (4.52192810365113, 5.278328218754696),
        "fpas": (4.185135493910127, 4.001145545043342),
    }

    def test_default_scale_rates_unchanged(self):
        spec = ExperimentSpec(base=ScenarioConfig(),
                              algorithms=tuple(self.PINNED), trials=2, seed=7)
        results = run_experiment(spec)
        assert not any(r.failure for r in results)
        for algo, rates in self.PINNED.items():
            got = [r.rate for r in results if r.algorithm == algo]
            assert_allclose(got, rates, rtol=1e-9, err_msg=algo)
