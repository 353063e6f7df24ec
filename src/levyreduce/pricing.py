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
from .report import CheckReport, item
from .reduction import ReducedModel
from .simulate import (
    _PATH_BLOCK,
    EulerRun,
    RngStream,
    _block_sizes,
    _gaussian_cutoff,
    _ladder_steps,
    original_run,
    stable_atom_sampler,
)

B_CAP_DEFAULT = 1e3
_DT_MARGIN = 1.0
# step-doubling tolerance of riccati_solve and its cap on substep halvings
_RICCATI_REL_TOL = 1e-9
_RICCATI_MAX_SPLITS = 400
# the pilot block of each level of a multilevel leg holds this share of
# n_paths, at most one block; with fewer than _PILOT_MIN paths in it, or
# pilots over the budget, the leg keeps one level
_PILOT_SHARE = 20
_PILOT_MIN = 100
# the share of the plain run's modelled time a multilevel leg may spend:
# its workers idle at the pilot barrier and after their last blocks,
# where worked's two plain blocks end together.  Without it, compare
# took 3.5 and 5.8 % longer than the plain run in two benchmark pairs
_TIME_SHARE = 0.93
# the least blocks of a lattice level, its pilot: 16 shifts of an exact
# run's 4096 points or 64 of a compound-Poisson run's 257 (see EulerLevel.
# lattice_paths).  The band reads its SE with R - 1 degrees of freedom
# for R shifts (see _t_factor).  Over many-atoms' workload seeds, the
# standard deviation of its band_max was 6.4 % of the median at 15 and
# 3.9 % at 63, its interquartile range 6.2 % and 5.2 %
_LATTICE_BLOCKS = 16


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
    from t = 0: an EulerRun, read on its own grid run.dt, or the columns
    of a path matrix.  The rate integral is the trapezoid rule on the
    grid, with a linearly interpolated partial cell when tau falls
    between nodes.  It is read off one float64 running sum, so no state
    outlives the node after it, and reading stops once the last maturity
    is priced.  Raises ValueError when the states end before a
    maturity's cell does.

    An EulerRun is read block by block: with two or more usable CPUs
    its blocks step on forked worker processes, at most one per block
    and one per CPU, even for a single block, and every worker is joined
    before this returns.  Each path's integral is the same wherever its
    block is stepped, so the prices do not depend on the number of
    workers.  The clipped proposals of the blocks are added to the
    run's count.
    """
    if not isinstance(states, EulerRun):
        nodes = ((r, None, 0) for r in states)
        integrals = _block_integrals(nodes, dt, _maturity_cells(taus, dt), None)[0]
        return [_moments(np.exp(-integral)) for integral in integrals]
    leg = _MonteCarloLeg(states, taus)
    try:
        quotes = leg.collect()
    finally:
        leg.stop()
    states.clipped += sum(clipped for _, _, clipped in leg.results.values())
    return [(price, se) for price, se, _ in quotes]


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


class _RateIntegrals:
    """The rate integral over the paths at each maturity cell (m, rest)
    of the grid t = k dt, node m plus a partial cell of length rest,
    summed as the states come in node by node.  values holds None for a
    maturity not yet priced."""

    def __init__(self, dt: float, cells):
        self.dt, self.cells = dt, cells
        self.values = [None] * len(cells)
        self.nodes = 0
        self._partial = {}
        # 0.5 r_0 + r_1 + ... + r_(k-1) before node k is added
        self._total = None

    def add(self, r) -> bool:
        """Add the states at the next node; True once every maturity is
        priced."""
        k, dt = self.nodes, self.dt
        self.nodes += 1
        for j, (m, rest) in enumerate(self.cells):
            if k == m:
                total = self._total
                integral = np.zeros_like(r) if total is None else dt * (total + 0.5 * r)
                if rest:
                    self._partial[j] = integral + rest * (1.0 - 0.5 * rest / dt) * r
                else:
                    self.values[j] = integral
            elif k == m + 1 and rest:
                self.values[j] = self._partial.pop(j) + 0.5 * rest * rest / dt * r
        if all(value is not None for value in self.values):
            return True
        if self._total is None:
            self._total = 0.5 * r
        else:
            self._total += r
        return False


def _block_integrals(nodes, dt: float, cells, coarse_cells):
    """(fine integrals, coarse integrals, proposals clipped) of the nodes
    (state, coarse state, clipped) of one path block loop, or of a path
    matrix's states as (state, None, 0): the states on the grid dt, the
    coarse states on the grid 2 dt at coarse_cells.  The coarse
    integrals are None when coarse_cells is."""
    fine = _RateIntegrals(dt, cells)
    coarse = None if coarse_cells is None else _RateIntegrals(2.0 * dt, coarse_cells)
    clipped = 0
    fine_done, coarse_done = False, coarse is None
    for r, rc, c in nodes:
        clipped += c
        fine_done = fine_done or fine.add(r)
        if rc is not None and not coarse_done:
            coarse_done = coarse.add(rc)
        if fine_done and coarse_done:
            return fine.values, None if coarse is None else coarse.values, clipped
    raise ValueError("a maturity exceeds the simulated horizon")


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot
    fork, so that a Monte Carlo leg steps in-process."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _blocks(level, n_paths: int, pilot: int) -> list:
    """The path counts of the blocks of n_paths paths of level: whole
    lattice blocks on a lattice level, else the pilot block, then blocks
    of at most _PATH_BLOCK paths."""
    if level.points:
        return [level.lattice_paths] * (n_paths // level.lattice_paths)
    return [pilot, *_block_sizes(n_paths, pilot)]


def _pilots(levels, pilot: int) -> list:
    """The paths of each level's pilot: pilot, or _LATTICE_BLOCKS blocks
    on a lattice level."""
    return [_LATTICE_BLOCKS * level.lattice_paths or pilot for level in levels]


def _fits(levels, paths, pilot: int, budget) -> bool:
    """Whether paths[l] paths of each level, pilot first, stay within
    budget: (path-steps, modelled time)."""
    steps = sum(level.path_steps * n for level, n in zip(levels, paths))
    time = sum(level.cost(_blocks(level, n, pilot)) for level, n in zip(levels, paths))
    return steps <= budget[0] and time <= budget[1]


def _allocation(levels, variances, pilot: int, budget) -> list:
    """The paths of each level, its pilot included: level l gets
    floor(k sqrt(V_l / C_l)), for V_l its variance per path and C_l the
    modelled time of one more of its paths (EulerLevel.path_cost), at
    the largest k that _fits the budget.  A level keeps its pilot alone
    where that count would add fewer than sqrt(pilot F / P) paths to it,
    for F and P the fixed and per-path time of a step of a batched
    block: F the Euler step's, P the per-path time plus the share of a
    draw's fixed time of each of the _PATH_BLOCK path-steps it holds.
    So few paths cost more in fixed step costs than spending that time
    on the other levels saves.  A lattice level's count is rounded down
    to whole blocks, at least its _LATTICE_BLOCKS.  The pilots alone
    must fit the budget."""
    weights = [np.sqrt(v / level.path_cost) for level, v in zip(levels, variances)]
    step, draw, per_path = levels[-1].step_cost
    least = pilot + np.sqrt(pilot * step / (per_path + draw / _PATH_BLOCK))

    def count(level, n):
        if level.points:
            return max(_LATTICE_BLOCKS, n // level.lattice_paths) * level.lattice_paths
        return n if n >= least else pilot

    def paths(k):
        return [count(level, int(k * w)) for level, w in zip(levels, weights)]

    if not any(weights):
        return paths(0.0)
    lo, hi = 0.0, 1.0
    while _fits(levels, paths(hi), pilot, budget):
        lo, hi = hi, 2.0 * hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _fits(levels, paths(mid), pilot, budget):
            lo = mid
        else:
            hi = mid
    return paths(lo)


def _t_factor(nu: int) -> float:
    """The quantile of Student's t with nu degrees of freedom at Phi(3),
    the level of a band of 3 standard errors: the Cornish-Fisher
    expansion about z = 3 to the term in nu^-4 (Abramowitz and Stegun
    26.7.5), within 1e-4 of the exact quantile for nu >= 15."""
    z = 3.0
    terms = (
        (z**3 + z) / 4.0,
        (5.0 * z**5 + 16.0 * z**3 + 3.0 * z) / 96.0,
        (3.0 * z**7 + 19.0 * z**5 + 17.0 * z**3 - 15.0 * z) / 384.0,
        (79.0 * z**9 + 776.0 * z**7 + 1482.0 * z**5 - 1920.0 * z**3 - 945.0 * z) / 92160.0,
    )
    return z + sum(g / nu ** (k + 1) for k, g in enumerate(terms))


class _MonteCarloLeg:
    """The bond prices of an EulerRun at the maturities taus, started.

    The leg prices levels, the run's multilevel form or its plain level
    alone, and steps tasks (level, block, paths), each one path block.
    Level l prices the fine leg's discount factor less the coarse leg's
    (the fine one alone when it is uncoupled) from its blocks in block
    order.  The price is the sum over the levels of their means, its
    standard error the root of the sum of their squared standard errors.

    With budget_steps set, a run of several levels whose pilots fit
    first steps a pilot block of the same size on every level, then,
    from the variances the pilots measure, the further blocks that
    _allocation gives each level.  All of it spends at most the
    path-steps n_paths * budget_steps of the plain run at budget_steps
    steps and _TIME_SHARE of its modelled time (see EulerRun.cost).  A
    level's block of fewer than _PATH_BLOCK paths draws the increments
    of several steps at once, and pays its draw's fixed time once per
    draw (see EulerLevel.cost).  Otherwise the leg prices the plain
    level, one draw per step, and its tasks are the run's blocks.

    The coarsest level of such a run is a lattice level (EulerRun.
    lattice_level) where the run has one and its pilot of
    _LATTICE_BLOCKS blocks fits with the others: one shift of 4096
    points per block under exact stable increments, four of 257 under
    compound-Poisson jumps of one radius law, while a level whose
    coordinates outrun the period of its lattice keeps plain Monte
    Carlo.  Each shift is random, the level's estimate the mean of the
    R shift means, its standard error theirs over R, and the variance
    per path it gives _allocation the points times their variance.  The
    band reads that level's standard error with R - 1 degrees of
    freedom: collect's band SE scales its squared term by (t / 3)^2,
    t = _t_factor(R - 1).

    With two or more usable CPUs, the tasks step on forked workers as the
    leg is made: at most one worker per task of the first phase and one
    per CPU, each sent its next task, the costliest left, by a scheduler
    thread of this process as soon as it is idle.  The thread starts once
    every worker is forked, and only it touches the results until
    collect(), which waits for it; the caller is free until then.  With
    one CPU the tasks step in-process inside collect().  stop() ends
    every worker without waiting for its tasks and joins it; call it in
    a finally.

    Workers are forked, not spawned: they inherit the run, with its jump
    sampler and its unstarted block loops, instead of importing the
    package afresh and rebuilding them.
    """

    def __init__(self, run: EulerRun, taus, budget_steps: int | None = None):
        self.run, self.taus = run, taus
        self.pilot = min(_PATH_BLOCK, run.n_paths // _PILOT_SHARE)
        levels, self.budget = (), None
        if budget_steps is not None and self.pilot >= _PILOT_MIN:
            levels = run.levels
            self.budget = (run.n_paths * budget_steps, _TIME_SHARE * run.cost(budget_steps))
            coarsest = run.lattice_level()
            if coarsest is not None and self._pilots_fit((coarsest, *levels[1:])):
                levels = (coarsest, *levels[1:])
        if len(levels) > 1 and self._pilots_fit(levels):
            self.tasks = [
                [(i, j, n) for j, n in enumerate(_blocks(level, least, self.pilot))]
                for i, (level, least) in enumerate(zip(levels, _pilots(levels, self.pilot)))
            ]
        else:
            levels = (run.plain,)
            self.tasks = [[(0, j, n) for j, n in enumerate(_block_sizes(run.n_paths))]]
        self.levels = levels
        self.grids = [
            (level.dt, _maturity_cells(taus, level.dt),
             _maturity_cells(taus, 2.0 * level.dt) if level.coupled else None)
            for level in levels
        ]
        self.results = {}
        self.moments = None
        # (process, this process's end of its pipe) of each worker
        self.workers = []
        self.thread = None
        self.error = None
        cpus = _usable_cpus()
        if cpus < 2:
            return
        # imported here, so that the pipelines that never fork do not
        # pay for the import at start-up
        import multiprocessing
        import threading

        context = multiprocessing.get_context("fork")
        try:
            for _ in range(min(cpus, sum(len(tasks) for tasks in self.tasks))):
                here, there = context.Pipe()
                process = context.Process(target=_serve, args=(there, self), daemon=True)
                try:
                    process.start()
                finally:
                    # the worker holds the only other end, so the pipe
                    # reads as ended once the worker has exited
                    there.close()
                self.workers.append((process, here))
        except BaseException:
            self.stop()
            raise
        self.thread = threading.Thread(target=self._schedule, daemon=True)
        self.thread.start()

    def _pilots_fit(self, levels) -> bool:
        return _fits(levels, _pilots(levels, self.pilot), self.pilot, self.budget)

    def step(self, task):
        """(fine integrals, coarse integrals, proposals clipped) of task."""
        i, j, n = task
        return _block_integrals(self.levels[i].block(j, n), *self.grids[i])

    def _run(self, step_all) -> None:
        """Step the first tasks, then, on several levels, the blocks the
        pilots allocate; step_all(tasks) returns {task: step(task)}."""
        self.results.update(step_all(self._costliest_first(sum(self.tasks, []))))
        if len(self.levels) == 1:
            return
        variances = [
            sum(s.var(ddof=1) for s in self._samples(i)) * max(level.points, 1)
            for i, level in enumerate(self.levels)
        ]
        rest = []
        for i, n in enumerate(_allocation(self.levels, variances, self.pilot, self.budget)):
            done = len(self.tasks[i])
            for j, size in enumerate(_blocks(self.levels[i], n, self.pilot)[done:], start=done):
                self.tasks[i].append((i, j, size))
                rest.append((i, j, size))
        self.results.update(step_all(self._costliest_first(rest)))

    def _costliest_first(self, tasks) -> list:
        return sorted(tasks, key=lambda task: self.levels[task[0]].cost([task[2]]), reverse=True)

    def _step_here(self, tasks) -> dict:
        return {task: self.step(task) for task in tasks}

    def _schedule(self) -> None:
        """The scheduler thread's job: step every task on the workers,
        then tell each worker to end."""
        try:
            self._run(self._step_on_workers)
        except Exception as exc:
            self.error = exc
        finally:
            for _, conn in self.workers:
                try:
                    conn.send(None)
                except OSError:
                    pass

    def _step_on_workers(self, tasks) -> dict:
        """{task: step(task)}, each task sent, in order, to the next idle
        worker."""
        from multiprocessing.connection import wait

        pending = tasks[::-1]
        # (process, task) of each worker's pipe end that awaits a result
        sent, results = {}, {}

        def send_next(process, conn):
            if pending:
                sent[conn] = (process, pending.pop())
                conn.send(sent[conn][1])

        for process, conn in self.workers:
            send_next(process, conn)
        while sent:
            for conn in wait(list(sent)):
                process, task = sent.pop(conn)
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    process.join()
                    raise RuntimeError(
                        f"a Monte Carlo worker ended with exit code {process.exitcode}"
                    ) from None
                if isinstance(result, Exception):
                    raise result
                results[task] = result
                send_next(process, conn)
        return results

    def _discounts(self, i: int) -> list:
        """Per maturity, the discount factor exp(-I) of the fine leg less
        that of the coarse leg, over the paths of level i stepped so far,
        in block order."""
        parts = [self.results[task] for task in self.tasks[i] if task in self.results]
        out = []
        for m in range(len(self.taus)):
            d = np.exp(-np.concatenate([fine[m] for fine, _, _ in parts]))
            if parts[0][1] is not None:
                d -= np.exp(-np.concatenate([coarse[m] for _, coarse, _ in parts]))
            out.append(d)
        return out

    def _samples(self, i: int) -> list:
        """Per maturity, the independent samples whose mean is level i's
        estimate: its _discounts, or on a lattice level the mean of each
        shift's."""
        points = self.levels[i].points
        if not points:
            return self._discounts(i)
        return [d.reshape(-1, points).mean(axis=1) for d in self._discounts(i)]

    def collect(self) -> list:
        """(price, standard error, band SE) at each maturity: the band SE
        scales a lattice level's squared standard error by (t / 3)^2."""
        if self.thread is None:
            self._run(self._step_here)
        else:
            self.thread.join()
            if self.error is not None:
                raise self.error
            for process, _ in self.workers:
                process.join()
        samples = [self._samples(i) for i in range(len(self.tasks))]
        self.moments = [[_moments(s) for s in level] for level in samples]
        scales = [
            (_t_factor(len(shifts[0]) - 1) / 3.0) ** 2 if level.points else 1.0
            for level, shifts in zip(self.levels, samples)
        ]
        return [
            (
                sum(p for p, _ in column),
                float(np.sqrt(sum(se * se for _, se in column))),
                float(np.sqrt(sum(c * se * se for c, (_, se) in zip(scales, column)))),
            )
            for column in zip(*self.moments)
        ]

    def summary(self) -> dict:
        """The run's scheme_summary, once collected, with clamp_frequency
        counted over every path-step the leg took, and levels, the step
        dt, paths, path-steps, clamp_frequency and the mean and standard
        error at each maturity of each level, coarsest first; the
        coarsest also names its sampling, "lattice" with its points and
        shifts, or "mc".  When the finest level is coupled,
        finest_difference holds its mean and standard error of P_dt -
        P_2dt at each maturity."""
        summary = self.run.scheme_summary()
        paths = [sum(n for _, _, n in tasks) for tasks in self.tasks]
        steps = [level.path_steps * n for level, n in zip(self.levels, paths)]
        clipped = [sum(self.results[task][2] for task in tasks) for tasks in self.tasks]
        summary["clamp_frequency"] = sum(clipped) / sum(steps)
        summary["levels"] = [
            {
                "dt": level.dt, "n_paths": n, "path_steps": s, "clamp_frequency": c / s,
                "mean": [p for p, _ in moments], "se": [se for _, se in moments],
            }
            for level, n, s, c, moments in zip(self.levels, paths, steps, clipped, self.moments)
        ]
        coarsest, points = summary["levels"][0], self.levels[0].points
        if points:
            coarsest.update(sampling="lattice", points=points, shifts=paths[0] // points)
        else:
            coarsest["sampling"] = "mc"
        if self.levels[-1].coupled:
            summary["finest_difference"] = [
                {"tau": float(tau), "mean": p, "se": se}
                for tau, (p, se) in zip(self.taus, self.moments[-1])
            ]
        return summary

    def stop(self) -> None:
        """End every worker still stepping and join them all."""
        for process, _ in self.workers:
            process.terminate()
        if self.thread is not None:
            self.thread.join()
            self.thread = None
        for process, conn in self.workers:
            process.join()
            conn.close()
        self.workers = []


def _serve(conn, leg: _MonteCarloLeg) -> None:
    """A forked worker's loop: step each task the parent sends and send
    back its result, or the exception that stopped it, until the parent
    sends None."""
    for task in iter(conn.recv, None):
        try:
            result = leg.step(task)
        except Exception as exc:
            result = exc
        conn.send(result)


def _moments(disc: np.ndarray):
    """(mean, standard error) of disc over the paths."""
    price = float(disc.mean())
    se = float(disc.std(ddof=1) / np.sqrt(len(disc))) if len(disc) > 1 else 0.0
    return price, se


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings for the comparison pipeline.

    n_paths paths of n_steps = round(horizon / dt) steps are the Monte
    Carlo budget of compare_term_structures: a multilevel leg spreads no
    more path-steps than n_paths * n_steps, and no more than _TIME_SHARE
    of their modelled time, over its levels, pilots included.  Its run
    takes n_steps rounded up by _ladder_steps, so the finest level steps
    horizon over that count, never more than dt, and the ladder reaches
    a coarsest level of at least _COARSEST_STEPS steps.
    """

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
    forked workers, even a single block, while this process calls
    reduced and solves the Riccati legs; then it waits for the workers.
    An error in setting up the leg is raised only once reduced has
    returned, so a refused reduction wins over it, and when anything
    raises, the workers are stopped and joined without waiting for
    their blocks.

    The run steps dt = horizon / n for n = _ladder_steps(round(horizon
    / sim_cfg.dt)): the configured count when its own ladder is deep
    enough, else the least odd multiple of 2^L above it, whose ladder
    halves the step L times down to at least _COARSEST_STEPS steps.  So
    dt is never larger than sim_cfg.dt.  The leg is multilevel when n
    is even (see _MonteCarloLeg): levels at dt, 2 dt, 4 dt, ... while
    the step count stays even, each coupled to the next coarser one
    through the sum of its increments, so the estimate keeps the bias of
    the plain run at dt.  A pilot block on every level sets how the
    budget of SimConfig, the plain run's at the configured count, is
    spread over them; a level's blocks of fewer than _PATH_BLOCK paths
    draw several steps at once (see EulerLevel.batch).  Otherwise it is
    the plain run at dt.  SE is the standard error of the estimate
    either way.  The coarsest level is a lattice level, of exact stable
    increments or of compound-Poisson jumps of one radius law, where its
    _LATTICE_BLOCKS blocks fit the budget (see _MonteCarloLeg); the band
    then reads its standard error with the Student-t factor of its
    shifts, and the se column stays the plain standard error.

    original_run picks exact stable increments or compound-Poisson jumps
    at the configured eps, as simulate does.  For compound-Poisson jumps
    the leg then takes its own cutoff, summary's cutoff: the largest
    that _gaussian_cutoff allows for a bound on the third-moment term
    below of one Euler margin _DT_MARGIN dt, taken with B(s) <= (e^(as)
    - 1) / a and P <= 1.  It is chosen before the leg starts, from the
    spec, x0, a, dt and the horizon, while the reduction is still to
    come.  The jumps below it become a Gaussian of their covariance.

    Each maturity passes when |MC - ODE| <= 3 SE + scheme tolerance,
    where a lattice level's term of SE^2 is scaled by (t / 3)^2.
    The scheme tolerance is built from the error terms of the scheme
    the leg runs: a margin of one step the run took (run.dt, horizon
    over the rounded step count n) for the Euler bias, plus, for
    compound-Poisson jumps, the error of the Gaussian in place of the
    small jumps, |m3| / 6 G(x0)^3 int_0^tau B(s)^3 ds P(tau), for m3 the
    third moment of the small jumps projected on G(x0) (JumpSampler.
    third_moment) and B, P the Riccati leg's.  summary names the scheme
    and its numerical slack, and the leg's levels (see
    _MonteCarloLeg.summary), which do not enter the band.
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
        steps = _ladder_steps(n_steps)
        eps, dt = sim_cfg.eps, horizon / steps
        if stable_atom_sampler(spec, eps, dt) is None:
            s = np.linspace(0.0, horizon, 257)
            bound = np.expm1(a * s) / a if a else s
            cap = 6.0 * _DT_MARGIN * dt / np.trapezoid(bound**3, s)
            eps = _gaussian_cutoff(G, spec, x0, eps, cap)
        run = original_run(
            G, spec, a, b, x0, eps, horizon, steps, sim_cfg.n_paths, RngStream(sim_cfg.seed)
        )
        leg = _MonteCarloLeg(run, taus, budget_steps=n_steps)
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
        quotes = leg.collect()
    finally:
        if leg is not None:
            leg.stop()

    # |m3| / 6 G(x0)^3 and int_0^tau B^3 on the Riccati grid
    skew = 0.0 if run.jumps is None else abs(run.jumps.third_moment(G(x0))) / 6.0
    cubes = 0.5 * np.diff(ts.tau_grid) * (ts.B[1:] ** 3 + ts.B[:-1] ** 3)
    cubes = np.concatenate([[0.0], np.cumsum(cubes)])
    rows = []
    items = []
    for tau, (p_mc, se, band_se) in zip(taus, quotes):
        p_ode = bond_price(ts, x0, tau)
        scheme_tol = _DT_MARGIN * run.dt + skew * float(np.interp(tau, ts.tau_grid, cubes)) * p_ode
        disc = abs(p_mc - p_ode)
        band = 3.0 * band_se + scheme_tol
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
    return ComparisonResult(CheckReport(tuple(items)), tuple(rows), leg.summary())


