"""Affine term structures: Riccati integration, bond prices, Monte
Carlo pricing, and the original-vs-reduced comparison.

Substituting P = exp(-A(tau) - B(tau)x) into the pricing equation for
the affine generator gives

    B'(tau) = 1 + a B - c B^2 - J_mu(B),      B(0) = 0,
    A'(tau) = b B - J_nu0(B),                 A(0) = 0,

where J_rho(u) = int (e^{-ur} - 1 + ur) rho(dr).  The truncation terms
of the generator cancel against the drift's tail integral, which fixes
both signs; the Monte Carlo comparison below cross-checks them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .exceptions import BlowUp
from .laplace import laplace_radial
from .measures import RadialMeasure, power_radial
from .report import CheckReport, item
from .reduction import ReducedModel
from .simulate import EulerRun, RngStream, original_run

B_CAP_DEFAULT = 1e3
_INTERP_U_MIN = 1e-8
_INTERP_PER_DECADE = 32
_DT_MARGIN = 1.0
# step-doubling tolerance of riccati_solve and its cap on substep halvings
_RICCATI_REL_TOL = 1e-9
_RICCATI_MAX_SPLITS = 400


@dataclass(frozen=True)
class TermStructure:
    """Grids of A(tau), B(tau); bond prices are exp(-A - Bx)."""

    tau_grid: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau_grid, dtype=float)
        if tau.ndim != 1 or len(tau) < 2:
            raise ValueError("tau_grid must be a 1-d grid")
        if tau[0] != 0.0 or np.any(np.diff(tau) <= 0):
            raise ValueError("tau_grid must increase from 0")
        if self.A[0] != 0.0 or self.B[0] != 0.0:
            raise ValueError("A(0) and B(0) must vanish")

    @property
    def tau_max(self) -> float:
        return float(self.tau_grid[-1])


def _interpolated_laplace(measure: RadialMeasure, u_max: float, lo: float = 0.0):
    """u -> J(u) = int_(lo, inf) H(u r) measure(dr) for the Riccati
    right-hand side.

    Pure atoms (and the zero measure) are summed exactly at each u.
    Otherwise J is sampled on a log grid in one laplace_radial call and
    interpolated in log-log form: below the grid J follows the local
    power of the lowest decade (J(0+) = 0), above it the top slope
    extrapolates (the blow-up guard keeps B inside the grid).
    """
    if measure.density is None:
        return lambda u: laplace_radial(measure, max(u, 0.0), lo=lo)
    n = max(int(np.log10(u_max / _INTERP_U_MIN) * _INTERP_PER_DECADE), 8)
    ug = np.geomspace(_INTERP_U_MIN, u_max, n)
    jg = laplace_radial(measure, ug, lo=lo)
    if np.any(jg <= 0.0):
        raise ValueError("Laplace exponent samples must be positive")
    lu, lj = np.log(ug), np.log(jg)
    slope_lo = (lj[1] - lj[0]) / (lu[1] - lu[0])
    slope_hi = (lj[-1] - lj[-2]) / (lu[-1] - lu[-2])

    def j(u: float) -> float:
        if u <= 0.0:
            return 0.0
        x = np.log(u)
        if x <= lu[0]:
            return float(np.exp(lj[0] + slope_lo * (x - lu[0])))
        if x >= lu[-1]:
            return float(np.exp(lj[-1] + slope_hi * (x - lu[-1])))
        return float(np.exp(np.interp(x, lu, lj)))

    return j


def riccati_solve(
    model,
    tau_max: float,
    n_steps: int = 200,
    *,
    b_cap: float = B_CAP_DEFAULT,
) -> TermStructure:
    """Integrate the term-structure equations out to tau_max.

    model takes one of two forms: a ReducedModel, which supplies its
    closed-form exponents(), or the tuple (a, b, c, J_mu, J_nu0) of the
    equations above, each J a function of one float.

    Classical Runge-Kutta with step doubling inside each output cell:
    a step is accepted when the doubling estimate meets 1e-9 relative,
    otherwise the substep halves (at most 400 times per cell).  Raises
    BlowUp when B leaves [0, b_cap].
    """
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    a, b, c, j_mu, j_nu = model.exponents() if isinstance(model, ReducedModel) else model

    def rhs(y):
        bb = y[0]
        return np.array([1.0 + a * bb - c * bb * bb - j_mu(bb), b * bb - j_nu(bb)])

    def rk4(y, h):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    tau_grid = np.linspace(0.0, tau_max, n_steps + 1)
    out_b = np.zeros(n_steps + 1)
    out_a = np.zeros(n_steps + 1)
    y = np.zeros(2)
    for k in range(n_steps):
        remaining = tau_grid[k + 1] - tau_grid[k]
        h = remaining
        splits = 0
        while remaining > 1e-15 * tau_max:
            h = min(h, remaining)
            full = rk4(y, h)
            half = rk4(rk4(y, 0.5 * h), 0.5 * h)
            err = np.max(np.abs(half - full))
            scale = max(1.0, np.max(np.abs(half)))
            if err <= _RICCATI_REL_TOL * scale or splits >= _RICCATI_MAX_SPLITS:
                y = half + (half - full) / 15.0
                remaining -= h
                if not np.all(np.isfinite(y)) or y[0] < -1e-9 or y[0] > b_cap:
                    raise BlowUp(
                        f"B left [0, {b_cap:g}] near tau={tau_grid[k + 1] - remaining:.6g}"
                    )
            else:
                h *= 0.5
                splits += 1
        out_b[k + 1] = y[0]
        out_a[k + 1] = y[1]
    return TermStructure(tau_grid, out_a, out_b)


def bond_price(ts: TermStructure, x: float, tau: float) -> float:
    """Zero-coupon price exp(-A(tau) - B(tau) x), linear in-grid
    interpolation of A and B."""
    if x < 0:
        raise ValueError("the rate state x must be nonnegative")
    if not (0.0 <= tau <= ts.tau_max * (1.0 + 1e-12)):
        raise ValueError(f"maturity {tau:g} lies beyond the solved grid")
    a_val = float(np.interp(tau, ts.tau_grid, ts.A))
    b_val = float(np.interp(tau, ts.tau_grid, ts.B))
    return float(np.exp(-a_val - b_val * x))


def mc_bond_prices(states, dt: float, taus) -> list:
    """(price, standard error) of E exp(-int_0^tau R) at each maturity
    in taus, from the rate states on the grid t = k dt.

    states yields one (n_paths,) float64 state per node in step order,
    from t = 0: an EulerRun, or the columns of a path matrix.  The rate
    integral is the trapezoid rule on the grid, with a linearly
    interpolated partial cell when tau falls between nodes.  It is read
    off one float64 running sum, so no state outlives the node after
    it, and reading stops once the last maturity is priced.  Raises
    ValueError when the states end before a maturity's cell does.

    An EulerRun is read block by block: with two or more usable CPUs
    its blocks step on forked worker processes, one per block and at
    most one per CPU, even a single block, and every worker is joined
    before this returns.  Each path's integral is the same wherever its
    block is stepped, so the prices do not depend on the number of
    workers.  The clipped proposals of the blocks are added to the
    run's count.
    """
    cells = _maturity_cells(taus, dt)
    if not isinstance(states, EulerRun):
        return [_discount_moments(integral) for integral in _rate_integrals(states, dt, cells)]
    leg = _MonteCarloLeg(states, dt, cells)
    try:
        return leg.collect()
    finally:
        leg.stop()


def _maturity_cells(taus, dt: float) -> list:
    """The cell (m, rest) of each maturity on the grid t = k dt: node m
    plus a partial cell of length rest."""
    cells = []
    for tau in taus:
        if tau < 0.0:
            raise ValueError("maturities must be nonnegative")
        m = int(tau / dt + 1e-9)
        rest = tau - m * dt
        cells.append((m, rest if rest > 1e-12 * max(tau, dt) else 0.0))
    return cells


def _rate_integrals(states, dt: float, cells) -> list:
    """The rate integral over the paths at each maturity cell (m, rest):
    node m plus a partial cell of length rest."""
    integrals = [None] * len(cells)
    partial = {}
    # 0.5 r_0 + r_1 + ... + r_(k-1) before node k is added
    total = None
    for k, r in enumerate(states):
        for j, (m, rest) in enumerate(cells):
            if k == m:
                integral = np.zeros_like(r) if total is None else dt * (total + 0.5 * r)
                if rest:
                    partial[j] = integral + rest * (1.0 - 0.5 * rest / dt) * r
                else:
                    integrals[j] = integral
            elif k == m + 1 and rest:
                integrals[j] = partial.pop(j) + 0.5 * rest * rest / dt * r
        if all(integral is not None for integral in integrals):
            return integrals
        if total is None:
            total = 0.5 * r
        else:
            total += r
    raise ValueError("a maturity exceeds the simulated horizon")


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot
    fork, so that a Monte Carlo leg steps in-process."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


class _MonteCarloLeg:
    """The bond prices of an EulerRun at maturity cells, started.

    With two or more usable CPUs, the path blocks start stepping on
    forked workers as the leg is made: one worker per block, at most one
    per CPU, worker w taking blocks w, w + workers, ...  The caller is
    free until collect(), which waits for them.  With one CPU the blocks
    step in-process inside collect().  stop() ends every worker without
    waiting for its blocks and joins it; call it in a finally.

    Workers are forked, not spawned: they inherit the run, with its jump
    sampler and its unstarted block loops, instead of importing the
    package afresh and rebuilding them.
    """

    def __init__(self, run: EulerRun, dt: float, cells):
        self.run, self.dt, self.cells = run, dt, cells
        # (process, receiving end of its pipe) of each worker
        self.workers = []
        cpus = _usable_cpus()
        if cpus < 2:
            return
        # imported here, so that the pipelines that never fork do not
        # pay for the import at start-up
        import multiprocessing

        context = multiprocessing.get_context("fork")
        n = len(run.blocks)
        count = min(cpus, n)
        try:
            for w in range(count):
                receive, send = context.Pipe(duplex=False)
                process = context.Process(
                    target=_step_blocks,
                    args=(send, run, dt, cells, range(w, n, count)),
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    # the worker holds the only sending end, so the pipe
                    # reads as ended once the worker has exited
                    send.close()
                self.workers.append((process, receive))
        except BaseException:
            self.stop()
            raise

    def collect(self) -> list:
        """(price, standard error) at each cell, with the blocks'
        clipped proposals added to the run's count."""
        n = len(self.run.blocks)
        if self.workers:
            parts = [None] * n
            for w, (process, receive) in enumerate(self.workers):
                try:
                    result = receive.recv()
                except EOFError:
                    result = None
                process.join()
                if isinstance(result, Exception):
                    raise result
                if result is None:
                    raise RuntimeError(
                        f"a Monte Carlo worker ended with exit code {process.exitcode}"
                    )
                parts[w::len(self.workers)] = result
        else:
            parts = [_block_integrals(self.run, self.dt, self.cells, i) for i in range(n)]
        self.run.clipped += sum(clipped for _, clipped in parts)
        integrals = [np.concatenate(column) for column in zip(*(part for part, _ in parts))]
        return [_discount_moments(integral) for integral in integrals]

    def stop(self) -> None:
        """End every worker still stepping and join them all."""
        for process, _ in self.workers:
            process.terminate()
        for process, receive in self.workers:
            process.join()
            receive.close()
        self.workers = []


def _block_integrals(run: EulerRun, dt: float, cells, i: int):
    """(rate integrals, proposals clipped) of path block i of run."""
    block = run.block(i)
    return _rate_integrals(block, dt, cells), block.clipped


def _step_blocks(send, run: EulerRun, dt: float, cells, indices) -> None:
    """A forked worker's job: send the parent the _block_integrals of
    each block in indices, or the exception that stopped them."""
    try:
        result = [_block_integrals(run, dt, cells, i) for i in indices]
    except Exception as exc:
        result = exc
    send.send(result)


def _discount_moments(integral: np.ndarray):
    """(mean, standard error) of exp(-integral) over the paths."""
    disc = np.exp(-integral)
    price = float(disc.mean())
    se = float(disc.std(ddof=1) / np.sqrt(len(disc))) if len(disc) > 1 else 0.0
    return price, se


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings for the comparison pipeline."""

    dt: float = 1e-3
    n_paths: int = 100_000
    eps: float = 1e-3
    seed: int = 0
    n_ode_steps: int = 400


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of the original-vs-reduced price comparison."""

    report: CheckReport
    rows: tuple
    summary: dict

    @property
    def passed(self) -> bool:
        return self.report.overall_pass

    @property
    def max_discrepancy(self) -> float:
        return max((row["discrepancy"] for row in self.rows), default=0.0)


def compare_term_structures(
    original,
    reduced,
    x0: float,
    tau_grid,
    sim_cfg: SimConfig = SimConfig(),
) -> ComparisonResult:
    """Price bonds from the multivariate equation by Monte Carlo and
    from the reduced equation by Riccati integration.

    original is (G, spec, a, b).  reduced is the ReducedModel, or a
    function of no arguments that returns it.  The Monte Carlo leg
    starts first: with two or more usable CPUs its path blocks step on
    forked workers as mc_bond_prices steps them, even a single block,
    while this process calls reduced and solves the Riccati legs; then
    it waits for the workers.  An error in setting up the leg is raised only once
    reduced has returned, so a refused reduction wins over it, and when
    anything raises, the workers are stopped and joined without waiting
    for their blocks.

    Each maturity passes when |MC - ODE| <= 3 SE + scheme tolerance.
    The scheme tolerance is built from the error terms of the scheme
    original_run picks: a margin of one step the run took (run.dt,
    horizon over the step count) for the Euler bias, plus, for
    truncated compound-Poisson jumps only, the Riccati price shift
    caused by the jump cutoff.  Exact stable increments have no cutoff,
    so they skip that second Riccati solve.  summary names the scheme
    and its numerical slack.
    """
    G, spec, a, b = original
    taus = np.sort(np.asarray(tau_grid, dtype=float))
    leg = held = None
    try:
        if np.any(taus < 0):
            raise ValueError("maturities must be nonnegative")
        horizon = float(taus[-1])
        if horizon == 0.0:
            raise ValueError("need at least one positive maturity")
        n_steps = max(int(round(horizon / sim_cfg.dt)), 1)
        run = original_run(
            G, spec, a, b, x0, sim_cfg.eps, horizon, n_steps, sim_cfg.n_paths,
            RngStream(sim_cfg.seed),
        )
        leg = _MonteCarloLeg(run, run.dt, _maturity_cells(taus, run.dt))
    except Exception as exc:
        # re-raised once the reduction has returned, as when the
        # reduction ran before the leg was set up
        held = exc
    try:
        if callable(reduced):
            reduced = reduced()
        if held is not None:
            raise held
        ts = riccati_solve(reduced, horizon, sim_cfg.n_ode_steps)
        ts_eps = None
        if run.cutoff is not None:
            # cutoff-perturbed reduced model: same Riccati solve with the
            # stable J replaced by its tail-truncated version
            j_eps = _interpolated_laplace(
                power_radial(reduced.alpha, reduced.C ** reduced.alpha),
                2.0 * B_CAP_DEFAULT,
                lo=run.cutoff,
            )
            trunc = (reduced.a, reduced.b, 0.0, j_eps, lambda u: 0.0)
            ts_eps = riccati_solve(trunc, horizon, sim_cfg.n_ode_steps)
        quotes = leg.collect()
    finally:
        if leg is not None:
            leg.stop()

    rows = []
    items = []
    for tau, (p_mc, se) in zip(taus, quotes):
        p_ode = bond_price(ts, x0, tau)
        cutoff_shift = 0.0 if ts_eps is None else abs(bond_price(ts_eps, x0, tau) - p_ode)
        scheme_tol = cutoff_shift + _DT_MARGIN * run.dt
        disc = abs(p_mc - p_ode)
        band = 3.0 * se + scheme_tol
        rows.append(
            {
                "tau": float(tau),
                "A": float(np.interp(tau, ts.tau_grid, ts.A)),
                "B": float(np.interp(tau, ts.tau_grid, ts.B)),
                "price_riccati": p_ode,
                "price_mc": p_mc,
                "se": se,
                "discrepancy": disc,
                "band": band,
            }
        )
        items.append(
            item(
                f"price_match_tau_{tau:g}",
                disc <= band,
                value=disc,
                tolerance=band,
                detail=f"mc={p_mc:.6f} se={se:.2e} ode={p_ode:.6f} scheme_tol={scheme_tol:.2e}",
            )
        )
    return ComparisonResult(CheckReport(tuple(items)), tuple(rows), run.scheme_summary())


