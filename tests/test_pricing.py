"""Tests for Riccati term structures, bond pricing, and the Monte Carlo
cross-check of the exponent-equation sign convention."""

import multiprocessing
import tracemalloc
from functools import partial

import numpy as np
import pytest

from levyreduce import (
    BlowUp,
    RadialMeasure,
    ReducedModel,
    RngStream,
    SimConfig,
    TermStructure,
    bond_price,
    compare_term_structures,
    laplace_radial,
    mc_bond_prices,
    power_radial,
    reduced_run,
    riccati_solve,
    simulate_original,
    simulate_reduced,
)
from levyreduce import pricing

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
        # C^alpha r^(-1-alpha) dr, the path of compare's cutoff leg at lo = 0
        reduced = ReducedModel(-0.5, 0.1, 1.0, 1.5)
        j_mu = pricing._interpolated_laplace(power_radial(1.5, 1.0**1.5), 2e3)
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
        ens = simulate_original(
            example_vol, example_spec, -0.5, 0.1, 1.0, eps, 0.25, 25, n_paths, RngStream(3)
        )
        assert result.summary == ens.scheme_summary()
        assert result.summary["scheme"] == scheme
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
