"""End-to-end acceptance suite.

Exact property checks run against independent oracles (projected gradient,
dense grids, finite differences); statistical checks run on seeded
desk-scale Monte Carlo batches with matched channel draws across
algorithms.  Measured values that back the statistical assertions are
emitted as warnings so they appear in the run summary.
"""
import time
import warnings
from itertools import product

import numpy as np
import pytest

from prafd.beamforming import optimal_scalar_power, solve_transmit_qp
from prafd.channel import build_channels, sample_realization, trial_rng
from prafd.config import ScenarioConfig
from prafd.experiment import ExperimentSpec, emit_csv, run_experiment
from prafd.fp import received_powers, weighted_sum_rate
from prafd.geometry import (FeasibleRegionSpec, is_feasible,
                            nearest_feasible_point)
from prafd.oracles import (central_difference_gradient,
                           central_difference_hessian, grid_nearest_feasible,
                           power_grid_search, random_complex, random_psd,
                           receive_objective_value, transmit_qp_pgd,
                           transmit_qp_value)
from prafd.placement import antenna_bundle, curvature_bound, layout_fields, \
    receive_context, transmit_context
from prafd.solver import initial_state, initialize_layout

DESK = dict(K_D=2, K_U=2, N_t=2, N_r=2)


@pytest.fixture(scope="module")
def desk_suite():
    """200 matched-seed desk-scale trials of the three contenders."""
    spec = ExperimentSpec(base=ScenarioConfig(**DESK),
                          algorithms=("fp-bsum", "fp-gd", "fpas"),
                          trials=200, seed=0, threads=2)
    t0 = time.perf_counter()
    results = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    assert all(r.failure is None for r in results)
    return results, elapsed


def suite_rates(results, algo):
    return np.array([r.rate for r in results if r.algorithm == algo])


class TestMonotoneConvergence:
    def test_rate_trace_never_decreases(self, desk_suite):
        results, elapsed = desk_suite
        violations = 0
        for r in results:
            trace = np.asarray(r.trace)
            tol = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
            violations += int(np.any(np.diff(trace) < -tol))
        assert violations == 0
        assert elapsed < 300.0, f"suite took {elapsed:.0f}s"

    def test_surrogate_touches_rate_every_iteration(self, desk_suite):
        # The solver's monitor raises on any in-flight gap; the recorded
        # per-run maximum must also sit within tolerance.
        results, _ = desk_suite
        gaps = [r.sandwich_gap for r in results
                if r.algorithm in ("fp-bsum", "fp-gd")]
        assert max(gaps) <= 1e-9


class TestTransmitBeamformerOptimality:
    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(3)
        checked = 0
        for (n, k) in product(range(1, 5), range(1, 5)):
            cnt = 32 if (n, k) != (4, 4) else 20
            H_t = np.stack([random_psd(rng, n,
                                       eig_lo=0.0 if i % 5 == 0 else 0.05)
                            for i in range(cnt)])
            Hbar = random_complex(rng, (cnt, n, k))
            p_max = rng.uniform(0.2, 5.0, cnt)
            W_ref = transmit_qp_pgd(H_t, Hbar, p_max)
            v_ref = transmit_qp_value(H_t, Hbar, W_ref)
            for i in range(cnt):
                W, mu, _ = solve_transmit_qp(H_t[i], Hbar[i], float(p_max[i]))
                v = transmit_qp_value(H_t[i], Hbar[i], W)
                assert v >= v_ref[i] - 1e-4 * max(1.0, abs(v_ref[i]))
                power = float(np.real(np.trace(W.conj().T @ W)))
                assert power <= p_max[i] * (1 + 1e-9)
                if mu > 0.0:
                    assert abs(power - p_max[i]) / p_max[i] < 1e-6
                checked += 1
        assert checked == 500


class TestReceiveBeamformerClosedForm:
    def test_value_identity_and_stationarity(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            H_r = random_psd(rng, n) + 1e-3 * np.eye(n)
            Hbar = random_complex(rng, (n, k))
            W = np.linalg.solve(H_r, Hbar)

            def objective(x):
                Wx = (x[: n * k] + 1j * x[n * k:]).reshape(n, k)
                return (2 * np.real(np.trace(Hbar.conj().T @ Wx))
                        - np.real(np.trace(Wx.conj().T @ H_r @ Wx)))

            x0 = np.concatenate([W.real.ravel(), W.imag.ravel()])
            val = objective(x0)
            ref = receive_objective_value(H_r, Hbar)
            assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))
            # objective is quadratic, so central differences are exact and
            # the gradient at the solve must vanish
            grad = central_difference_gradient(objective, x0, 1e-3)
            assert np.linalg.norm(grad) < 1e-8


class TestUplinkPowerOracle:
    def test_matches_dense_grid(self):
        rng = np.random.default_rng(5)
        num = 10_000
        n_nonpositive = 0
        n_cap_binding = 0
        for _ in range(1000):
            c1 = rng.uniform(-1.0, 2.0)
            c2 = 0.0 if rng.random() < 0.08 else rng.uniform(1e-3, 1.5)
            p_max = 10.0 ** rng.uniform(-3, 1)
            p = optimal_scalar_power(c1, c2, p_max)
            ref = power_grid_search(c1, c2, p_max, num=num)
            assert abs(p - ref) <= p_max / (num - 1)
            if c1 <= 0.0:
                n_nonpositive += 1
                assert p == 0.0
            elif c2 == 0.0 or (c1 / (2 * c2)) ** 2 >= p_max:
                n_cap_binding += 1
                assert p == p_max
        assert n_nonpositive > 50
        assert n_cap_binding > 50


class TestPlacementDerivatives:
    def test_gradient_and_majorizer_against_differences(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        grad_step = 1e-6 * cfg.wavelength
        hess_step = 3e-5 * cfg.wavelength
        checked = 0
        trial = 0
        while checked < 1000:
            rng = trial_rng(11, trial, 0)
            trial += 1
            rlz = sample_realization(cfg, rng)
            layout = initialize_layout(cfg, rng)
            ch = build_channels(layout, rlz, cfg)
            state, _ = initial_state(ch, cfg)
            sides = ((transmit_context(state, rlz, layout.r, cfg), layout.t),
                     (receive_context(state, rlz, layout.t, cfg), layout.r))
            for ctx, pos in sides:
                for n in range(pos.shape[0]):
                    if checked >= 1000:
                        break
                    bundle = antenna_bundle(ctx, layout_fields(ctx, pos), n)
                    grad = bundle.gradient(pos[n])
                    fd = central_difference_gradient(bundle.value, pos[n],
                                                     grad_step)
                    err = np.linalg.norm(fd - grad) \
                        / max(1.0, np.linalg.norm(fd))
                    assert err < 1e-4
                    H_fd = central_difference_hessian(bundle.value, pos[n],
                                                      hess_step)
                    tau = curvature_bound(bundle, pos[n])
                    lam_min = np.linalg.eigvalsh(tau * np.eye(2) - H_fd)[0]
                    scale = max(1.0, np.abs(np.linalg.eigvalsh(H_fd)).max())
                    assert lam_min >= -1e-6 * scale
                    checked += 1


class TestGeometryOracle:
    def test_exact_mode_against_dense_grid(self):
        cfg = ScenarioConfig(A=4.0)
        hw = cfg.region_half_width
        radius = cfg.D_min
        step = cfg.wavelength / 200
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n_obs = int(rng.integers(0, 7))
            spec = FeasibleRegionSpec(hw, rng.uniform(-hw, hw, (n_obs, 2)),
                                      radius)
            sp = rng.uniform(-1.2 * hw, 1.2 * hw, 2)
            exact = nearest_feasible_point(sp, spec)
            assert is_feasible(exact, spec)
            grid = grid_nearest_feasible(sp, spec, step)
            if grid is not None:
                d_exact = np.linalg.norm(exact - sp)
                d_grid = np.linalg.norm(grid - sp)
                assert d_exact <= d_grid + np.sqrt(2.0) * step


class TestReceiveScaleInvariance:
    def test_column_scaling_leaves_rate(self):
        cfg = ScenarioConfig(**DESK)
        for t in range(1000):
            rng = trial_rng(8, t, 0)
            rlz = sample_realization(cfg, rng)
            layout = initialize_layout(cfg, rng)
            ch = build_channels(layout, rlz, cfg)
            state, _ = initial_state(ch, cfg)
            state.W_r = random_complex(rng, state.W_r.shape)
            base = weighted_sum_rate(received_powers(
                state.W_t, state.W_r, state.p, ch, cfg), cfg)
            u = int(rng.integers(0, cfg.K_U))
            scale = rng.uniform(0.1, 10.0)
            W2 = state.W_r.copy()
            W2[:, u] *= scale
            scaled = weighted_sum_rate(received_powers(
                state.W_t, W2, state.p, ch, cfg), cfg)
            assert abs(scaled - base) < 1e-9 * max(1.0, abs(base))


class TestPairedComparisons:
    def test_desk_scale_ordering(self, desk_suite):
        results, elapsed = desk_suite
        mean_bsum = suite_rates(results, "fp-bsum").mean()
        mean_gd = suite_rates(results, "fp-gd").mean()
        mean_fpas = suite_rates(results, "fpas").mean()
        warnings.warn(f"desk means: fp-bsum {mean_bsum:.4f}, "
                      f"fp-gd {mean_gd:.4f}, fpas {mean_fpas:.4f}")
        assert mean_bsum > mean_fpas
        assert mean_bsum >= mean_gd
        assert elapsed < 900.0

    def test_single_antenna_gain_over_fixed_array(self):
        spec = ExperimentSpec(
            base=ScenarioConfig(K_D=1, K_U=1, N_t=1, N_r=1),
            algorithms=("fp-bsum", "fpas"), trials=200, seed=0, threads=2)
        results = run_experiment(spec)
        mean_bsum = suite_rates(results, "fp-bsum").mean()
        mean_fpas = suite_rates(results, "fpas").mean()
        gain = mean_bsum / mean_fpas - 1.0
        warnings.warn(f"single-antenna position gain over fixed array: "
                      f"{100 * gain:.2f}% "
                      f"(means {mean_bsum:.4f} vs {mean_fpas:.4f})")
        assert gain >= 0.10, (
            f"measured single-antenna gain {100 * gain:.2f}% "
            f"(fp-bsum {mean_bsum:.4f}, fpas {mean_fpas:.4f}); "
            f"per-iteration placement steps track the current channel "
            f"amplitude and rarely reach the region's field maximum, so the "
            f"large single-antenna advantage does not materialize at this "
            f"scale")


@pytest.fixture(scope="module")
def region_sweep():
    spec = ExperimentSpec(base=ScenarioConfig(**DESK),
                          algorithms=("fp-bsum",), trials=160, seed=0,
                          sweep_field="A", sweep_values=(1.0, 2.0, 3.0,
                                                         4.0, 5.0),
                          threads=2)
    results = run_experiment(spec)
    means = np.array([
        np.mean([r.rate for r in results if r.sweep_value == a])
        for a in spec.sweep_values])
    warnings.warn("region sweep means: "
                  + ", ".join(f"A={a:g}: {m:.4f}"
                              for a, m in zip(spec.sweep_values, means)))
    return means


class TestRegionSizeSweep:
    def test_rate_non_decreasing_in_region_size(self, region_sweep):
        means = region_sweep
        assert np.all(np.diff(means) >= 0.0), (
            f"means not monotone in region size: {np.round(means, 4)}; "
            f"placement moves per outer iteration are a small fraction of "
            f"a wavelength, so enlarging the region beyond a couple of "
            f"wavelengths adds reachable area the optimizer never visits")

    def test_gain_saturates(self, region_sweep):
        means = region_sweep
        assert means[4] - means[3] < means[1] - means[0]


class TestConvergenceSpeed:
    def test_median_outer_iterations_at_defaults(self):
        spec = ExperimentSpec(base=ScenarioConfig(), algorithms=("fp-bsum",),
                              trials=100, seed=0, threads=2)
        results = run_experiment(spec)
        iters = np.array([r.outer_iterations for r in results])
        assert np.all([r.converged for r in results])
        warnings.warn(f"median outer iterations at defaults: "
                      f"{np.median(iters):.0f} (max {iters.max()})")
        assert np.median(iters) <= 15


class TestRobustnessDirection:
    def test_angle_error_costs_rate(self):
        spec = ExperimentSpec(base=ScenarioConfig(**DESK),
                              algorithms=("fp-bsum",), trials=100, seed=0,
                              sweep_field="theta_m", sweep_values=(0.0, 0.2),
                              threads=2)
        results = run_experiment(spec)
        clean = np.mean([r.rate for r in results if r.sweep_value == 0.0])
        noisy = np.mean([r.rate for r in results if r.sweep_value == 0.2])
        warnings.warn(f"evaluated rate under angle error: clean "
                      f"{clean:.4f}, theta_m=0.2 {noisy:.4f} "
                      f"({100 * (noisy / clean - 1):.1f}%)")
        assert noisy < clean

    def test_gain_error_produces_non_monotone_evaluations(self):
        spec = ExperimentSpec(base=ScenarioConfig(**DESK),
                              algorithms=("fp-bsum",), trials=100, seed=0,
                              sweep_field="sigma_e2", sweep_values=(0.2,),
                              threads=2)
        results = run_experiment(spec)
        non_monotone = 0
        for r in results:
            ev = np.asarray(r.eval_trace)
            assert ev.size == len(r.trace)
            if np.any(np.diff(ev) < -1e-6):
                non_monotone += 1
        warnings.warn(f"non-monotone evaluated traces under gain error: "
                      f"{non_monotone}/100")
        assert non_monotone >= 1


class TestDeterminism:
    @staticmethod
    def strip_wall_time(path):
        lines = path.read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    def test_rerun_and_thread_count_invariance(self, tmp_path):
        outputs = {}
        for tag, threads in (("a", 1), ("b", 1), ("c", 2)):
            spec = ExperimentSpec(
                base=ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2),
                algorithms=("fp-bsum", "fpas"), trials=10, seed=3,
                sweep_field="A", sweep_values=(2.0, 4.0), threads=threads)
            raw = tmp_path / f"raw_{tag}.csv"
            agg = tmp_path / f"agg_{tag}.csv"
            emit_csv(run_experiment(spec), spec, str(raw), str(agg))
            outputs[tag] = (self.strip_wall_time(raw),
                            self.strip_wall_time(agg))
        assert outputs["a"] == outputs["b"]
        assert outputs["a"] == outputs["c"]
