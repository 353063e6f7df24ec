"""Tests for Riccati term structures, bond pricing, and the Monte Carlo
cross-check of the exponent-equation sign convention."""

import dataclasses
import multiprocessing
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats

from levyreduce import (
    BlowUp,
    RadialMeasure,
    ReducedModel,
    RngStream,
    SimConfig,
    SphericalMeasure,
    TermStructure,
    VolatilityFunction,
    bond_price,
    compare_term_structures,
    laplace_radial,
    mc_bond_prices,
    original_run,
    power_radial,
    reduced_run,
    riccati_solve,
    simulate_original,
    simulate_reduced,
    stable_spec,
    truncated_jump_sampler,
)
from levyreduce import pricing, simulate

from conftest import C_15, one_atom_form

B_LIMIT = C_15 ** (-1.0 / 1.5)  # fixed point of 1 = J(B) for C = 1


def drift_only(a, b):
    # Riccati exponents (a, b, c, J_mu, J_nu0) of a jump-free model
    return a, b, 0.0, lambda u: 0.0, lambda u: 0.0


def stored_quotes(ens, taus):
    """mc_bond_prices fed the float64 columns of a stored ensemble."""
    columns = (col.astype(np.float64) for col in ens.values.T)
    return mc_bond_prices(columns, ens.dt, taus)


class TestTermStructure:
    def test_grid_must_increase_from_zero(self):
        with pytest.raises(ValueError):
            TermStructure(np.array([0.1, 0.2]), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            TermStructure(np.array([0.0, 0.2, 0.1]), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            TermStructure(np.array([0.0]), np.zeros(1), np.zeros(1))

    def test_initial_values_must_vanish(self):
        grid = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            TermStructure(grid, np.array([0.1, 0.2]), np.zeros(2))
        with pytest.raises(ValueError):
            TermStructure(grid, np.zeros(2), np.array([0.1, 0.2]))

    def test_tau_max(self):
        ts = TermStructure(np.array([0.0, 0.5, 2.0]), np.zeros(3), np.zeros(3))
        assert ts.tau_max == 2.0


class TestRiccatiSolve:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            riccati_solve(drift_only(-1.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            riccati_solve(drift_only(-1.0, 0.0), 1.0, n_steps=0)

    def test_pure_drift_closed_form(self):
        # B' = 1 + aB integrates to (1 - e^{a tau}) / (-a); A' = bB
        ts = riccati_solve(drift_only(-1.0, 0.1), 4.0, 80)
        b_exact = 1.0 - np.exp(-ts.tau_grid)
        a_exact = 0.1 * (ts.tau_grid - b_exact)
        np.testing.assert_allclose(ts.B, b_exact, atol=1e-10)
        np.testing.assert_allclose(ts.A, a_exact, atol=1e-10)

    def test_small_maturity_slope_is_one(self):
        ts = riccati_solve(ReducedModel(0.0, 0.0, 1.0, 1.5), 0.01, 4)
        assert ts.B[-1] == pytest.approx(0.01, abs=1e-4)

    def test_long_run_level_of_stable_cir(self):
        # B' = 1 - c_alpha B^alpha has the stable fixed point
        # c_alpha^{-1/alpha}; by tau = 10 the solution has settled there
        ts = riccati_solve(ReducedModel(0.0, 0.0, 1.0, 1.5), 10.0, 200)
        assert ts.B[-1] == pytest.approx(B_LIMIT, abs=1e-6)
        assert ts.B[-1] == pytest.approx(0.5636258258934133, abs=1e-6)

    def test_b_monotone_for_nonpositive_mean_reversion(self):
        ts = riccati_solve(ReducedModel(-0.5, 0.1, 1.0, 1.5), 5.0, 100)
        assert np.all(np.diff(ts.B) > -1e-12)
        assert np.all(ts.B >= 0.0)

    def test_reduced_and_generating_forms_agree(self):
        # the closed form against J_mu integrated from the stable measure
        # C^alpha r^(-1-alpha) dr on a log grid, interpolated in log-log form
        reduced = ReducedModel(-0.5, 0.1, 1.0, 1.5)
        ug = np.geomspace(1e-8, 2e3, 32 * 11)
        lu, lj = np.log(ug), np.log(laplace_radial(power_radial(1.5, 1.0**1.5), ug))

        def j_mu(u):
            return float(np.exp(np.interp(np.log(u), lu, lj))) if u > 0.0 else 0.0

        ts1 = riccati_solve(reduced, 5.0, 100)
        ts2 = riccati_solve((-0.5, 0.1, 0.0, j_mu, lambda u: 0.0), 5.0, 100)
        np.testing.assert_allclose(ts1.B, ts2.B, rtol=0, atol=5e-6)
        np.testing.assert_allclose(ts1.A, ts2.A, rtol=0, atol=5e-6)

    def test_output_grid_refinement_converges(self, monkeypatch):
        # with a loose tolerance the substep controller never splits, so
        # the output grid sets the step; the embedded extrapolation is
        # fifth order and halving the step must cut the error sharply
        monkeypatch.setattr(pricing, "_RICCATI_REL_TOL", 1e-1)
        errs = []
        for n in (4, 8):
            ts = riccati_solve(drift_only(-1.0, 0.0), 4.0, n)
            errs.append(np.abs(ts.B - (1.0 - np.exp(-ts.tau_grid))).max())
        assert errs[1] < 0.25 * errs[0]

    def test_blow_up_detected(self):
        # a = 10 drives B ~ e^{10 tau} / 10 through any finite cap
        with pytest.raises(BlowUp):
            riccati_solve(drift_only(10.0, 0.0), 10.0, 100)
        with pytest.raises(BlowUp):
            riccati_solve(drift_only(-1.0, 0.0), 5.0, 50, b_cap=0.5)


class TestSignConvention:
    """The constant-jump equation A' = bB - J_nu0(B) is pinned against an
    exactly solvable model.

    Take dR = b dt + dM with M the compensated Poisson sum of jumps of
    size 1/2 arriving at rate 2 (nu0 = 2 delta_{1/2}, a = c = 0, mu = 0).
    Then B(tau) = tau and R(t) = x0 + N(t)/2 for a rate-2 Poisson process
    N, since the compensator -t cancels against b = 1.  The exponential
    formula for Poisson functionals gives

        E exp(-int_0^tau R) = exp(-x0 tau) exp(2 int_0^tau (e^{-(tau-s)/2} - 1) ds)

    so at tau = 2 the exact price is exp(-2 x0 - 4/e).  Any sign flip on
    the J_nu0 term would produce exp(-2 x0 + (4/e - 8 + 8/e)) instead.
    """

    nu0 = RadialMeasure(atoms=((0.5, 2.0),))
    model = (0.0, 1.0, 0.0, lambda u: 0.0, partial(laplace_radial, nu0))
    a_exact = 4.0 / np.e  # = b tau^2/2 - 2 int_0^2 H(tau'/2) dtau'

    def test_closed_form_coefficients(self):
        ts = riccati_solve(self.model, 2.0, 50)
        assert ts.B[-1] == pytest.approx(2.0, abs=1e-10)
        assert ts.A[-1] == pytest.approx(self.a_exact, abs=1e-9)

    def test_against_exact_path_simulation(self):
        # the model simulates exactly: integrate R over [0, tau] using
        # uniformly placed jump times; the discounted mean is bounded so
        # the 3 sigma band is honest
        tau, x0, rate = 2.0, 1.0, 2.0
        gen = RngStream(99).generator()
        n = 400_000
        counts = gen.poisson(rate * tau, size=n)
        total = int(counts.sum())
        times = gen.uniform(0.0, tau, size=total)
        owners = np.repeat(np.arange(n), counts)
        integral = x0 * tau + 0.5 * np.bincount(
            owners, weights=tau - times, minlength=n
        )
        disc = np.exp(-integral)
        se = disc.std() / np.sqrt(n)

        ts = riccati_solve(self.model, tau, 100)
        price = bond_price(ts, x0, tau)
        assert price == pytest.approx(np.exp(-2.0 * x0 - self.a_exact), abs=1e-9)
        assert abs(disc.mean() - price) <= 4.0 * se
        # and the flipped convention is rejected by the same sample
        flipped = np.exp(-2.0 * x0 + self.a_exact - 2.0 * (2.0 - self.a_exact))
        assert abs(disc.mean() - flipped) > 20.0 * se


class TestBondPrice:
    ts = riccati_solve(ReducedModel(-0.5, 0.1, 1.0, 1.5), 5.0, 100)

    def test_zero_maturity_is_par(self):
        assert bond_price(self.ts, 0.7, 0.0) == 1.0

    def test_zero_state_uses_intercept_only(self):
        ts = TermStructure(np.array([0.0, 1.0]), np.array([0.0, 0.02]), np.array([0.0, 0.9]))
        assert bond_price(ts, 0.0, 1.0) == pytest.approx(np.exp(-0.02), rel=1e-12)

    def test_prices_lie_in_unit_interval_and_decrease_in_state(self):
        taus = np.linspace(0.0, 5.0, 11)
        for tau in taus:
            prices = [bond_price(self.ts, x, tau) for x in (0.0, 0.5, 1.0, 2.0)]
            assert all(0.0 < p <= 1.0 for p in prices)
            assert all(p1 >= p2 for p1, p2 in zip(prices, prices[1:]))

    def test_rejects_out_of_range_arguments(self):
        with pytest.raises(ValueError):
            bond_price(self.ts, -0.1, 1.0)
        with pytest.raises(ValueError):
            bond_price(self.ts, 1.0, 5.5)


class TestMcBondPrice:
    def test_zero_rate_prices_at_par(self):
        from levyreduce import PathEnsemble

        ens = PathEnsemble(np.zeros((50, 11), dtype=np.float32), 0.1)
        price, se = stored_quotes(ens, [1.0])[0]
        assert price == 1.0
        assert se == 0.0

    def test_constant_rate_closed_form(self):
        from levyreduce import PathEnsemble

        ens = PathEnsemble(np.full((3, 11), 0.4, dtype=np.float32), 0.1)
        for tau in (0.3, 0.55, 1.0):
            price, se = stored_quotes(ens, [tau])[0]
            assert price == pytest.approx(np.exp(-0.4 * tau), rel=1e-6)
            assert se == pytest.approx(0.0, abs=1e-12)

    def test_partial_cell_interpolation(self):
        from levyreduce import PathEnsemble

        # a single linear path: exact integral is a quadratic, and the
        # trapezoid rule on a linear function is exact at any cut point
        values = np.linspace(0.0, 1.0, 11, dtype=np.float32)[None, :]
        ens = PathEnsemble(values, 0.1)
        price, _ = stored_quotes(ens, [0.55])[0]
        assert price == pytest.approx(np.exp(-0.5 * 0.55**2), rel=1e-5)

    def test_rejects_maturity_beyond_horizon(self):
        from levyreduce import PathEnsemble

        ens = PathEnsemble(np.zeros((2, 11), dtype=np.float32), 0.1)
        with pytest.raises(ValueError):
            stored_quotes(ens, [1.5])

    def test_matches_riccati_on_reduced_model(self):
        # bounded discounted payoff: honest CLT band plus O(dt) allowance
        model = ReducedModel(-0.5, 0.1, 1.0, 1.5)
        ens = simulate_reduced(model, 1.0, 1.0, 250, 30_000, RngStream(17))
        ts = riccati_solve(model, 1.0, 100)
        for tau, (p_mc, se) in zip((0.5, 1.0), stored_quotes(ens, (0.5, 1.0))):
            p_ode = bond_price(ts, 1.0, tau)
            assert abs(p_mc - p_ode) <= 3.0 * se + 1.0 * ens.dt


class TestStreamedPrices:
    # at dt = 0.01, tau = 0.1234 cuts a partial cell and 0.25 is a node
    TAUS = (0.1234, 0.25)

    @staticmethod
    def assert_quotes_match(streamed, ens, taus):
        # the stored paths are the streamed float64 states rounded to
        # float32, so the prices agree to float32 rounding
        assert len(streamed) == len(taus)
        for (price, se), (stored_price, stored_se) in zip(streamed, stored_quotes(ens, taus)):
            assert abs(price - stored_price) <= 1e-6
            assert abs(se - stored_se) <= 1e-6

    # 12k paths are two path blocks, priced block by block and stored
    # through the lockstep iteration of the run
    @pytest.mark.parametrize(
        "eps, scheme, n_paths",
        [
            pytest.param(1e-3, "exact_stable", 2000, id="0.001-exact_stable"),
            pytest.param(0.05, "compound_poisson", 2000, id="0.05-compound_poisson"),
            pytest.param(1e-3, "exact_stable", 12_000, id="0.001-exact_stable-two-blocks"),
            pytest.param(
                0.05, "compound_poisson", 12_000, id="0.05-compound_poisson-two-blocks"
            ),
        ],
    )
    def test_compare_prices_the_stored_paths(
        self, example_spec, example_vol, eps, scheme, n_paths
    ):
        cfg = SimConfig(dt=0.01, n_paths=n_paths, eps=eps, seed=3, n_ode_steps=50)
        result = compare_term_structures(
            (example_vol, example_spec, -0.5, 0.1),
            ReducedModel(-0.5, 0.1, 1.0, 1.5),
            1.0,
            self.TAUS,
            cfg,
        )
        # 25 steps are one level, the plain run; compound-Poisson jumps
        # run at the cutoff the leg takes
        cutoff = result.summary["cutoff"]
        ens = simulate_original(
            example_vol, example_spec, -0.5, 0.1, 1.0, cutoff or eps, 0.25, 25, n_paths,
            RngStream(3),
        )
        assert {key: result.summary[key] for key in ens.scheme_summary()} == ens.scheme_summary()
        assert result.summary["scheme"] == scheme
        assert [level["n_paths"] for level in result.summary["levels"]] == [n_paths]
        quotes = [(row["price_mc"], row["se"]) for row in result.rows]
        self.assert_quotes_match(quotes, ens, self.TAUS)

    def test_reduced_run_prices_the_stored_paths(self):
        model = ReducedModel(-0.5, 0.1, 1.0, 1.5)
        run = reduced_run(model, 1.0, 0.25, 25, 2000, RngStream(5))
        ens = simulate_reduced(model, 1.0, 0.25, 25, 2000, RngStream(5))
        self.assert_quotes_match(mc_bond_prices(run, run.dt, self.TAUS), ens, self.TAUS)
        assert run.clamp_frequency == ens.clamp_frequency

    @pytest.mark.parametrize("tau", [1.05, 1.5])
    def test_maturity_beyond_the_stream_rejected(self, tau):
        # 11 states end at t = 1; 1.05 cuts a cell that never closes
        states = (np.full(4, 0.1) for _ in range(11))
        with pytest.raises(ValueError):
            mc_bond_prices(states, 0.1, [0.5, tau])

    def test_no_worker_outlives_compare(self, example_spec, example_vol, monkeypatch):
        monkeypatch.setattr(pricing, "_usable_cpus", lambda: 2)
        cfg = SimConfig(dt=0.05, n_paths=12_000, eps=1e-3, seed=6, n_ode_steps=50)
        result = compare_term_structures(
            (example_vol, example_spec, -0.5, 0.1),
            ReducedModel(-0.5, 0.1, 1.0, 1.5),
            1.0,
            [0.5, 1.0],
            cfg,
        )
        assert len(result.rows) == 2
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failing_block(self, monkeypatch):
        # every block of the run ends at t = 1, before the maturity 2
        monkeypatch.setattr(pricing, "_usable_cpus", lambda: 2)
        run = reduced_run(ReducedModel(-0.5, 0.1, 1.0, 1.5), 1.0, 1.0, 4, 12_000, RngStream(5))
        with pytest.raises(ValueError, match="exceeds the simulated horizon"):
            mc_bond_prices(run, run.dt, [0.5, 2.0])
        assert multiprocessing.active_children() == []

    def test_compare_keeps_no_path_matrix(self, example_spec, example_vol, monkeypatch):
        # 10k paths x 1001 float32 states would be a 40 MB matrix.  The
        # block steps in-process, where tracemalloc sees it; on two CPUs
        # it would step in a forked worker
        monkeypatch.setattr(pricing, "_usable_cpus", lambda: 1)
        cfg = SimConfig(dt=1e-3, n_paths=10_000, eps=1e-3, seed=2, n_ode_steps=50)
        tracemalloc.start()
        try:
            compare_term_structures(
                (example_vol, example_spec, -0.5, 0.1),
                ReducedModel(-0.5, 0.1, 1.0, 1.5),
                1.0,
                [0.5, 1.0],
                cfg,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 10_000 * 1001 * 4


class TestCompareTermStructures:
    def test_smoke_comparison_passes(self, example_spec, example_vol):
        cfg = SimConfig(dt=5e-3, n_paths=5000, eps=5e-3, seed=10, n_ode_steps=50)
        result = compare_term_structures(
            (example_vol, example_spec, -0.5, 0.1),
            ReducedModel(-0.5, 0.1, 1.0, 1.5),
            1.0,
            [0.25],
            cfg,
        )
        assert result.passed
        assert len(result.rows) == 1
        row = result.rows[0]
        assert set(row) >= {"tau", "A", "B", "price_riccati", "price_mc", "se", "discrepancy"}
        assert 0.0 < row["price_mc"] <= 1.0
        assert result.max_discrepancy == row["discrepancy"]

    def test_one_atom_form_against_its_own_riccati(self):
        # the Monte Carlo leg of the one-atom original against the
        # Riccati leg of the reduced model it is
        model = ReducedModel(-0.5, 0.1, 1.476, 1.5)
        G, spec = one_atom_form(model.C)
        cfg = SimConfig(dt=2e-3, n_paths=20_000, eps=1e-3, seed=0)
        result = compare_term_structures(
            (G, spec, model.a, model.b), model, 1.0, [0.5, 1.0, 2.0], cfg
        )
        assert result.summary["scheme"] == "exact_stable"
        assert result.passed

    @pytest.mark.parametrize(
        "dt, taus, step", [(100.0, [0.25], 0.25), (0.3, [0.5, 1.0], 1.0 / 3.0)]
    )
    def test_dt_margin_is_the_step_taken(self, example_spec, example_vol, dt, taus, step):
        # the run steps horizon / round(horizon / dt), not dt; exact
        # increments add no cutoff shift, so the band is 3 SE + one step
        cfg = SimConfig(dt=dt, n_paths=2000, eps=1e-3, seed=4, n_ode_steps=50)
        result = compare_term_structures(
            (example_vol, example_spec, -0.5, 0.1),
            ReducedModel(-0.5, 0.1, 1.0, 1.5),
            1.0,
            taus,
            cfg,
        )
        assert result.summary["scheme"] == "exact_stable"
        for row in result.rows:
            assert row["band"] - 3.0 * row["se"] == pytest.approx(step, rel=1e-12)

    def test_zero_maturity_grid_rejected(self, example_spec, example_vol):
        with pytest.raises(ValueError):
            compare_term_structures(
                (example_vol, example_spec, -0.5, 0.1),
                ReducedModel(-0.5, 0.1, 1.0, 1.5),
                1.0,
                [0.0],
            )

    def test_negative_maturity_rejected(self, example_spec, example_vol):
        with pytest.raises(ValueError):
            compare_term_structures(
                (example_vol, example_spec, -0.5, 0.1),
                ReducedModel(-0.5, 0.1, 1.0, 1.5),
                1.0,
                [-1.0, 0.5],
            )


def level_blocks(n_paths, pilot):
    """Path counts of a level's blocks: the pilot, then blocks of at most
    10 000 paths."""
    return [pilot] + [min(10_000, n_paths - s) for s in range(pilot, n_paths, 10_000)]


def trapezoid(states, dt, m):
    """The rate integral up to node m of a (nodes, paths) state matrix."""
    return dt * (0.5 * states[0] + states[1:m].sum(axis=0) + 0.5 * states[m])


class TestMultilevelCompare:
    # 48 steps of 0.01: levels at 0.16, 0.08, 0.04, 0.02 and 0.01, on
    # whose grids both maturities are nodes; 6000 paths make pilots of 300
    TAUS = (0.32, 0.48)
    CFG = SimConfig(dt=0.01, n_paths=6000, eps=1e-3, seed=5, n_ode_steps=50)

    def compare(self, example_spec, example_vol, monkeypatch, cpus=1):
        monkeypatch.setattr(pricing, "_usable_cpus", lambda: cpus)
        return compare_term_structures(
            (example_vol, example_spec, -0.5, 0.1),
            ReducedModel(-0.5, 0.1, 1.0, 1.5),
            1.0,
            self.TAUS,
            self.CFG,
        )

    def test_levels_spend_at_most_the_budget(self, example_spec, example_vol, monkeypatch):
        result = self.compare(example_spec, example_vol, monkeypatch)
        assert result.passed
        levels = result.summary["levels"]
        assert [level["dt"] for level in levels] == pytest.approx([0.16, 0.08, 0.04, 0.02, 0.01])
        # path-steps per path: the fine leg, plus half as many coarse ones
        for level, steps in zip(levels, (3, 9, 18, 36, 72)):
            assert level["n_paths"] >= 300
            assert level["path_steps"] == level["n_paths"] * steps
        assert sum(level["path_steps"] for level in levels) <= 6000 * 48
        finest = result.summary["finest_difference"]
        assert [row["tau"] for row in finest] == list(self.TAUS)
        assert all(row["se"] > 0.0 for row in finest)

    def test_price_is_the_sum_of_the_level_means(self, example_spec, example_vol, monkeypatch):
        # each level stepped again block by block from its own streams:
        # the price is the sum of the level means of P_fine - P_coarse,
        # the squared SE the sum of their variances over their paths.
        # The coarsest level of these exact increments is a lattice
        # level: its blocks are shifts of 4096 paths, its mean the mean
        # of the shift means and its squared SE their variance over R
        result = self.compare(example_spec, example_vol, monkeypatch)
        run = original_run(
            example_vol, example_spec, -0.5, 0.1, 1.0, 1e-3, 0.48, 48, 6000, RngStream(5)
        )
        assert result.summary["levels"][0]["sampling"] == "lattice"
        price, var = np.zeros(2), np.zeros(2)
        for level, info in zip(run.levels, result.summary["levels"]):
            if info.get("sampling") == "lattice":
                level = dataclasses.replace(level, lattice=True)
                sizes = [4096] * info["shifts"]
            else:
                sizes = level_blocks(info["n_paths"], 300)
            fine, coarse = [], []
            for j, n in enumerate(sizes):
                nodes = list(level.block(j, n))
                fine.append(np.array([r for r, _, _ in nodes]))
                coarse.append(np.array([c for _, c, _ in nodes if c is not None]))
            diffs = []
            for tau in self.TAUS:
                m = int(round(tau / level.dt))
                d = np.exp(-np.concatenate([trapezoid(f, level.dt, m) for f in fine]))
                if level.coupled:
                    d -= np.exp(
                        -np.concatenate([trapezoid(c, 2 * level.dt, m // 2) for c in coarse])
                    )
                if level.lattice:
                    d = d.reshape(len(sizes), 4096).mean(axis=1)
                diffs.append(d)
            price += [d.mean() for d in diffs]
            var += [d.var(ddof=1) / d.size for d in diffs]
        for row, p, v in zip(result.rows, price, var):
            assert row["price_mc"] == pytest.approx(p, rel=1e-12)
            assert row["se"] == pytest.approx(np.sqrt(v), rel=1e-9)

    def test_more_workers_than_cores_give_the_same_outputs(
        self, example_spec, example_vol, monkeypatch
    ):
        # five workers, one per pilot, share the host's cores and the
        # scheduler thread hands them the further blocks as they finish
        one = self.compare(example_spec, example_vol, monkeypatch, cpus=1)
        five = self.compare(example_spec, example_vol, monkeypatch, cpus=5)
        assert one.rows == five.rows
        assert one.summary == five.summary
        assert multiprocessing.active_children() == []

    def test_allocation_keeps_within_both_budgets(self, example_spec, example_vol):
        run = original_run(
            example_vol, example_spec, -0.5, 0.1, 1.0, 3e-3, 2.0, 1000, 10, RngStream(1)
        )
        levels = run.levels
        budget = (20_000 * 1000, run.plain.cost([10_000, 10_000]))
        variances = [0.07, 7.3e-4, 2.8e-4, 1.2e-4]
        paths = pricing._allocation(levels, variances, 1000, budget)
        assert pricing._fits(levels, paths, 1000, budget)
        assert not pricing._fits(levels, [int(n * 1.01) for n in paths], 1000, budget)
        # most paths go to the cheap, noisy coarsest level
        assert paths[0] > 10 * paths[1] > 0
        # without variance, as for C = 0, every level keeps its pilot alone
        assert pricing._allocation(levels, [0.0] * 4, 1000, budget) == [1000] * 4


class TestLatticeLevel:
    # TestMultilevelCompare's leg: its exact increments put the coarsest
    # level, 3 steps of 0.16, on the shifted lattice
    def compare(self, example_spec, example_vol, monkeypatch):
        return TestMultilevelCompare().compare(example_spec, example_vol, monkeypatch)

    @pytest.mark.parametrize("nu", [15, 31, 63])
    def test_t_factor_matches_the_student_quantile(self, nu):
        exact = stats.t.ppf(stats.norm.cdf(3.0), nu)
        assert abs(pricing._t_factor(nu) - exact) <= 1e-3

    def test_band_reads_the_lattice_se_with_its_t_factor(
        self, example_spec, example_vol, monkeypatch
    ):
        result = self.compare(example_spec, example_vol, monkeypatch)
        levels = result.summary["levels"]
        coarsest = levels[0]
        assert (coarsest["sampling"], coarsest["points"]) == ("lattice", 4096)
        assert coarsest["shifts"] >= 16
        assert coarsest["n_paths"] == 4096 * coarsest["shifts"]
        assert all("sampling" not in level for level in levels[1:])
        scale = (pricing._t_factor(coarsest["shifts"] - 1) / 3.0) ** 2
        for m, row in enumerate(result.rows):
            ses = np.array([level["se"][m] for level in levels])
            assert row["price_mc"] == pytest.approx(sum(level["mean"][m] for level in levels))
            # the se column stays the plain standard error
            assert row["se"] == pytest.approx(np.sqrt(np.sum(ses**2)), rel=1e-12)
            band_se = np.sqrt(scale * ses[0] ** 2 + np.sum(ses[1:] ** 2))
            assert row["band"] == pytest.approx(3.0 * band_se + 0.01, rel=1e-12)
            assert row["band"] > 3.0 * row["se"] + 0.01

    def test_allocation_keeps_a_lattice_level_to_whole_shifts(self, example_spec, example_vol):
        run = original_run(
            example_vol, example_spec, -0.5, 0.1, 1.0, 3e-3, 2.0, 1000, 10, RngStream(1)
        )
        levels = (dataclasses.replace(run.levels[0], lattice=True), *run.levels[1:])
        budget = (20_000 * 1000, run.plain.cost([10_000, 10_000]))
        for coarse in (0.07, 0.007, 7e-5):
            paths = pricing._allocation(levels, [coarse, 7.3e-4, 2.8e-4, 1.2e-4], 1000, budget)
            assert paths[0] % 4096 == 0 and paths[0] >= 16 * 4096
            assert pricing._fits(levels, paths, 1000, budget)
        # at a tiny variance the lattice level keeps its 16 shifts alone
        assert paths[0] == 16 * 4096
        # a lattice level's blocks are its shifts, a plain level's the
        # pilot, then full blocks
        assert pricing._blocks(levels[0], 5 * 4096, 1000) == [4096] * 5
        assert pricing._blocks(levels[1], 21_000, 1000) == [1000, 10_000, 10_000]


def many_atom_form():
    """The many-atoms benchmark shape: 16 atoms on the positive octant of
    S^2 under r^-2.5, weights summing to 1, G(x) = x^(2/3) (1, 1, 1), and
    its reduced model, C = (sum_i w_i <1, xi_i>^1.5)^(1/1.5)."""
    gen = RngStream(16).generator()
    dirs = np.abs(gen.standard_normal((16, 3)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    weights = gen.uniform(0.5, 1.5, 16)
    weights /= weights.sum()
    spec = stable_spec(1.5, SphericalMeasure.from_atoms(dirs, weights))
    G = VolatilityFunction.power(2.0 / 3.0, np.ones(3))
    C = float(weights @ dirs.sum(axis=1) ** 1.5) ** (1.0 / 1.5)
    return G, spec, ReducedModel(-0.5, 0.1, C, 1.5)


class TestCompoundPoissonCompare:
    # the many-atoms shape at its benchmark sizes: 0.17 expected jumps
    # per path-step of 16 atoms at eps, so compound-Poisson jumps; the
    # 500 steps of 0.002 round up to 504 = 63 * 2^3 for the ladder
    TAUS = (0.25, 0.5, 1.0)
    CFG = SimConfig(dt=0.002, n_paths=10_000, eps=0.01, seed=7)
    DT = 1.0 / 504

    def test_levels_at_the_leg_cutoff_pass_within_the_scheme_band(self):
        G, spec, model = many_atom_form()
        result = compare_term_structures((G, spec, model.a, model.b), model, 1.0, self.TAUS, self.CFG)
        summary = result.summary
        assert summary["scheme"] == "compound_poisson"
        dts = [level["dt"] for level in summary["levels"]]
        assert dts == pytest.approx([8 * self.DT, 4 * self.DT, 2 * self.DT, self.DT])
        assert summary["cutoff"] >= self.CFG.eps
        assert result.passed
        # band = 3 SE + dt + |m3| / 6 int_0^tau B^3 ds P(tau), for m3 the
        # third moment of the small jumps projected on G(x0)
        sampler, _ = truncated_jump_sampler(spec, summary["cutoff"])
        skew = abs(sampler.third_moment(G(1.0))) / 6.0
        ts = riccati_solve(model, 1.0, self.CFG.n_ode_steps)
        for row in result.rows:
            upto = ts.tau_grid <= row["tau"] * (1.0 + 1e-12)
            term = skew * np.trapezoid(ts.B[upto] ** 3, ts.tau_grid[upto]) * row["price_riccati"]
            assert 0.0 < term < self.DT
            assert row["band"] - 3.0 * row["se"] - self.DT == pytest.approx(term, rel=1e-6)

    def test_the_cutoff_is_the_largest_doubling_within_the_cap(self, example_spec, example_vol):
        # two half-weight axis atoms, G(1) = (1, 1): the bound at cutoff e
        # is sum_i w_i e^1.5 / 1.5 = e^1.5 / 1.5
        def cutoff(cap):
            return simulate._gaussian_cutoff(example_vol, example_spec, 1.0, 0.01, cap)

        bound = 0.04**1.5 / 1.5
        assert cutoff(1.001 * bound) == 0.04
        assert cutoff(0.999 * bound) == 0.02
        # past the last doubling, and below the configured eps
        assert cutoff(1e6) == 0.01 * 2**simulate._CUTOFF_DOUBLINGS
        assert cutoff(1e-9) == 0.01

    def test_worked_shape_stays_exact(self, example_spec, example_vol):
        # 8.1 expected jumps per path-step of 2 atoms at the configured
        # eps: exact increments, no cutoff and no third-moment term; the
        # 250 steps of 0.002 round up to 252 = 63 * 2^2 for the ladder
        cfg = SimConfig(dt=0.002, n_paths=2000, eps=3e-3, seed=1, n_ode_steps=50)
        result = compare_term_structures(
            (example_vol, example_spec, -0.5, 0.1), ReducedModel(-0.5, 0.1, 1.0, 1.5), 1.0,
            [0.5], cfg,
        )
        assert result.summary["scheme"] == "exact_stable"
        assert result.summary["cutoff"] is None
        for row in result.rows:
            assert row["band"] - 3.0 * row["se"] == pytest.approx(0.5 / 252, rel=1e-12)
