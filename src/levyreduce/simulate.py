"""Seedable path simulation for the short-rate equations.

One Euler scheme lives here, for the multivariate equation dR =
(aR+b)dt + <G(R), dZ>, with two samplers of the driving increment,
chosen per (spec, eps, dt) by expected cost.  The one-factor stable-CIR
equation is its one-atom case: reduced_run steps the same loop with
G(x) = C x^(1/alpha) and one exact stable atom.  When every atom of the
spherical part carries a pure power law of index in (1, 2), each atom
gets one exact stable increment per step, and nothing is truncated.
Otherwise a compound-Poisson approximation keeps the jumps above the
cutoff eps and compensates their mean: all jumps of a step are drawn
at once, Poisson totals per direction are split across paths, and
exact power tails get closed-form Pareto radii, other radial laws
inverse-CDF tables or atom weights.  Its small jumps below the cutoff
are dropped, not Gaussian-approximated; their variance is reported so
callers can budget the bias.

The Euler loop runs behind an EulerRun, which yields the float64
states as the scheme steps.  A run splits its paths into fixed blocks
of at most _PATH_BLOCK paths, each with its own random stream, so a
path's draws depend on the seed and its block alone, never on how many
processes step the blocks.  simulate_reduced and simulate_original
store every state as a float32 path; a reader that needs only sums of
the states, such as the Monte Carlo bond price, reads the run itself,
or its blocks one by one, and keeps no paths.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import CutoffTooSmall
from .laplace import stable_coefficient
from .measures import LevySpec, VolatilityFunction, radial_integral
from .quadrature import CONVERGED, R_HIGH, panel_integral
from .reduction import ReducedModel
from .spherical import _per_measure, _sample_directions

_TABLE_CELLS_PER_DECADE = 128
# cells in a row without mass that end the tabulation: a whole decade
_EMPTY_RUN_STOP = _TABLE_CELLS_PER_DECADE
_INVERSE_TABLE_SIZE = 16384
_TAIL_REMAINDER = 1e-12
_V_MAX = -np.log(_TAIL_REMAINDER)
_V_STEP = _V_MAX / (_INVERSE_TABLE_SIZE - 1)
# pi/2 as the nearest double plus the remainder, so that v + pi/2 and
# pi/2 - |v| keep their relative accuracy for doubles v near -pi/2, pi/2
_HALF_PI = 0.5 * np.pi
_HALF_PI_LO = 6.123233995736766e-17
# paths per block of an Euler run: every (n,) float64 temporary of a
# block step then stays under glibc's 128 KiB mmap threshold, so the
# step reuses heap memory instead of faulting in fresh pages
_PATH_BLOCK = 10_000


@dataclass(frozen=True)
class RngStream:
    """Deterministic random source identified by (seed, stream).

    generator() always returns a fresh generator seeded from the pair,
    so identical identifiers reproduce identical draws regardless of
    consumption elsewhere.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream]))


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError("rng must be an RngStream, Generator, or integer seed")


def _path_blocks(rng, n_paths: int, loop):
    """(paths, block loop) of each path block of a run over n_paths, and
    the seed tag of rng.

    Every block holds _PATH_BLOCK paths but the last, which holds the
    rest.  Block i draws from the child i of SeedSequence([seed,
    stream]), so a block's draws do not depend on the number of blocks.
    The block loop is loop(paths, generator), unstarted.
    """
    if isinstance(rng, (int, np.integer)):
        rng = RngStream(int(rng))
    if not isinstance(rng, RngStream):
        raise TypeError("an Euler run needs an RngStream or an integer seed")
    blocks = []
    for i, start in enumerate(range(0, n_paths, _PATH_BLOCK)):
        n = min(_PATH_BLOCK, n_paths - start)
        seq = np.random.SeedSequence([rng.seed, rng.stream], spawn_key=(i,))
        blocks.append((n, partial(loop, n, np.random.default_rng(seq))))
    return blocks, (rng.seed, rng.stream)


class _SchemeSlack:
    """The scheme and its numerical slack, for PathEnsemble and EulerRun:
    both carry cutoff, jump_intensity, dropped_variance and
    clamp_frequency."""

    @property
    def scheme(self) -> str:
        """"compound_poisson" for truncated jumps, "exact_stable" for
        exact stable increments."""
        return "exact_stable" if self.cutoff is None else "compound_poisson"

    def scheme_summary(self) -> dict:
        """The scheme behind the paths and its numerical slack."""
        return {
            "scheme": self.scheme,
            "cutoff": self.cutoff,
            "jump_intensity": self.jump_intensity,
            "dropped_variance": self.dropped_variance,
            "clamp_frequency": self.clamp_frequency,
        }


@dataclass(frozen=True)
class PathEnsemble(_SchemeSlack):
    """Simulated short-rate paths on a uniform time grid.

    values is (n_paths, n_steps+1) in float32; every entry is
    nonnegative by construction of the schemes.  The simulators store
    it time-major and pass its transpose, so each Euler step writes one
    contiguous row.  clamp_frequency is the fraction of proposed steps
    that were clipped at zero.  cutoff, jump_intensity and
    dropped_variance describe the truncated jump sampler behind the
    paths; they stay None for exact stable increments.
    """

    values: np.ndarray
    dt: float
    seed: tuple | None = None
    clamp_frequency: float = 0.0
    cutoff: float | None = None
    jump_intensity: float | None = None
    dropped_variance: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError("values must be (n_paths, n_steps+1)")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.values.shape[1]) * self.dt


class EulerRun(_SchemeSlack):
    """One run of a full-truncation Euler scheme, stepped as it is read.

    blocks holds one (paths, loop) pair per path block, in path order;
    loop() starts that block's Euler loop, which yields the block's
    state at t = k dt for k = 0..n_steps together with the number of
    proposals clipped at zero to reach it.  Iterating the run steps
    every block in lockstep and yields their states concatenated, each
    a fresh (n_paths,) float64 array, so a reader may keep any of them;
    the run itself keeps none.  block(i) is block i as a run of its own,
    for readers that step the blocks one by one.  clipped counts the
    proposals clipped so far; a reader of block(i) adds that run's count
    to it.  clamp_frequency is clipped over all n_steps * n_paths
    proposals.  jumps is the truncated jump sampler behind the
    increments, None for exact stable increments.  A run steps once.
    """

    def __init__(self, blocks, dt, n_steps, seed, jumps):
        self.blocks = tuple(blocks)
        self.clipped = 0
        self.dt = dt
        self.n_steps = n_steps
        self.n_paths = sum(n for n, _ in self.blocks)
        self.seed = seed
        self.cutoff = None if jumps is None else jumps.cutoff
        self.jump_intensity = None if jumps is None else jumps.intensity
        self.dropped_variance = None if jumps is None else jumps.dropped_variance

    def __iter__(self):
        for nodes in zip(*(loop() for _, loop in self.blocks)):
            self.clipped += sum(clipped for _, clipped in nodes)
            if len(nodes) == 1:
                yield nodes[0][0]
            else:
                yield np.concatenate([r for r, _ in nodes])

    def block(self, i: int) -> "EulerRun":
        """Path block i as a run of its own, with its own clip count."""
        run = copy.copy(self)
        run.blocks = (self.blocks[i],)
        run.n_paths = self.blocks[i][0]
        run.clipped = 0
        return run

    @property
    def clamp_frequency(self) -> float:
        return self.clipped / float(self.n_steps * self.n_paths)


def _stored(run: EulerRun) -> PathEnsemble:
    """Every state of run, rounded into the float32 path matrix."""
    values = np.empty((run.n_steps + 1, run.n_paths), dtype=np.float32)
    for k, r in enumerate(run):
        values[k] = r
    return PathEnsemble(
        values.T, run.dt, run.seed, run.clamp_frequency,
        run.cutoff, run.jump_intensity, run.dropped_variance,
    )


def sample_stable(alpha: float, scale: float, dt: float, rng, size=None):
    """Increment(s) of the compensated, spectrally positive alpha-stable
    martingale over a step dt.

    The law is pinned by its Laplace transform: E exp(-u X) =
    exp(dt scale^alpha c_alpha u^alpha); the mean is zero for alpha > 1.
    Each call draws a block of uniforms on [-pi/2, pi/2), then a block
    of standard exponentials, and maps them through _cms.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("stable index must lie in (1, 2)")
    if scale <= 0 or dt <= 0:
        raise ValueError("scale and dt must be positive")
    gen = _as_generator(rng)
    n = 1 if size is None else int(size)

    v = gen.uniform(-_HALF_PI, _HALF_PI, size=n)
    w = gen.standard_exponential(size=n)
    out = _cms(alpha, scale * dt ** (1.0 / alpha), v, w)
    return float(out[0]) if size is None else out


def _cms(alpha: float, scale: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Chambers-Mallows-Stuck map: scale X for uniforms v on
    [-pi/2, pi/2) and standard exponentials w, where E exp(-u X) =
    exp(c_alpha u^alpha).

    With a = alpha and d = v + pi/2 in (0, pi),
        X = -c_a^(1/a) sin(a d) cos(v)^(-1/a) (sin((a-1) d) / w)^((1-a)/a).
    This is the maximally skewed construction written in d, so that no
    factor loses its relative accuracy as v nears -pi/2, and the closed
    end v = -pi/2 gives the finite limit.  cos v is taken as
    sin(pi/2 - |v|), which keeps it accurate at both ends.  Every sine
    comes from the tangent of its half angle, sin x = 2t / (1 + t^2) for
    t = tan(x/2), an identity for every x, also where t passes its pole;
    the three factors 2 cancel through the exponents.  The two powers
    are one exp of a sum of logs.  v and w are left unchanged.
    """
    d = v + _HALF_PI
    d += _HALF_PI_LO
    # s, b, c: sin(a d)/2, sin((a-1) d)/2, cos(v)/2
    s = np.multiply(d, 0.5 * alpha)
    np.tan(s, out=s)
    b = np.multiply(d, 0.5 * (alpha - 1.0), out=d)
    np.tan(b, out=b)
    c = np.abs(v)
    np.subtract(_HALF_PI, c, out=c)
    c += _HALF_PI_LO
    c *= 0.5
    np.tan(c, out=c)
    buf = np.empty_like(s)
    _half_sine(s, buf)
    _half_sine(b, buf)
    _half_sine(c, buf)

    b /= w
    np.log(b, out=b)
    b *= (1.0 - alpha) / alpha
    np.log(c, out=c)
    c *= 1.0 / alpha
    b -= c
    np.exp(b, out=b)
    b *= s
    b *= -scale * stable_coefficient(alpha) ** (1.0 / alpha)
    return b


def _half_sine(t: np.ndarray, buf: np.ndarray) -> None:
    """Overwrite t = tan(x/2) with sin(x)/2 = t / (1 + t^2)."""
    np.square(t, out=buf)
    buf += 1.0
    t /= buf


def _checked_step(x0, horizon, n_steps, n_paths) -> float:
    """The step of an Euler run, once x0 and its sizes are checked."""
    if x0 < 0:
        raise ValueError("x0 must be nonnegative")
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need at least one step and one path")
    return float(horizon) / n_steps


def reduced_run(
    model: ReducedModel,
    x0: float,
    horizon: float,
    n_steps: int,
    n_paths: int,
    rng,
) -> EulerRun:
    """Full-truncation Euler scheme for the one-factor stable-CIR rate.

    It steps original_run's loop on the original equation with d = 1:
    one atom of weight 1 under r^-(1+alpha) dr, drawn by its exact
    stable sampler, and G(x) = C x^(1/alpha).  model may be any object
    with fields a, b, C, alpha; C = 0 degenerates to the drift ODE.  rng
    is an RngStream or an integer seed.
    """
    dt = _checked_step(x0, horizon, n_steps, n_paths)
    sampler = StableAtomSampler(np.ones((1, 1)), np.array([model.alpha]), np.ones(1))
    G = VolatilityFunction.power(1.0 / model.alpha, [model.C])
    loop = partial(_original_steps, G, sampler, None, model.a, model.b, x0, dt, n_steps)
    blocks, seed = _path_blocks(rng, n_paths, loop)
    return EulerRun(blocks, dt, n_steps, seed, None)


def simulate_reduced(
    model: ReducedModel,
    x0: float,
    horizon: float,
    n_steps: int,
    n_paths: int,
    rng,
) -> PathEnsemble:
    """The paths of reduced_run, every state stored."""
    return _stored(reduced_run(model, x0, horizon, n_steps, n_paths, rng))


@dataclass(frozen=True)
class JumpSampler:
    """Compound-Poisson approximation of the jump martingale above a
    cutoff.

    Jumps land along a finite list of directions (atoms of the
    spherical part, or its quadrature discretization).  Directions that
    share a radial measure share one radius law: exact power tails are
    drawn in closed form, other densities through an inverse-CDF table,
    atoms from their cumulative weights.  radius_laws[law_of[i]] is the
    law of direction i: a float power index, a table array, or a
    (radii, cumulative weights) pair.  sample_increment returns
    compensated per-path increments, i.e. the jump sums minus dt times
    the mean flux.
    """

    directions: np.ndarray
    intensities: np.ndarray
    law_of: np.ndarray
    radius_laws: tuple
    mean_flux: np.ndarray
    dropped_variance: float
    cutoff: float

    def __post_init__(self):
        # what every sample_increment reads: the directions grouped by
        # radius law, the first direction of each law, and the columns
        # of the grouped directions
        order = np.argsort(self.law_of, kind="stable")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_firsts", np.unique(self.law_of, return_index=True)[1])
        object.__setattr__(self, "_columns", self.directions[order].T)

    @property
    def intensity(self) -> float:
        return float(np.sum(self.intensities))

    def _draw_radii(self, i: int, n: int, gen) -> np.ndarray:
        """n radii from the tail law of direction i."""
        law = self.radius_laws[self.law_of[i]]
        if isinstance(law, float):
            # exact power tail: P(R > r) = (r / eps)^-alpha above the cutoff
            return self.cutoff * np.exp(gen.standard_exponential(n) * (1.0 / law))
        if isinstance(law, tuple):
            radii, cdf = law
            pick = np.searchsorted(cdf, gen.random(n), side="right")
            return radii[pick.clip(0, len(radii) - 1)]
        # the table is uniform in v = -log(tail probability), so an
        # exponential draw indexes it directly; heavy tails stay resolved
        pos = gen.standard_exponential(n) * (1.0 / _V_STEP)
        pos = np.minimum(pos, len(law) - 1.000001)
        idx = pos.astype(np.intp)
        frac = pos - idx
        return law[idx] * (1.0 - frac) + law[idx + 1] * frac

    def sample_increment(self, dt: float, n_paths: int, rng) -> np.ndarray:
        gen = _as_generator(rng)
        # Poisson splitting: a Poisson(lam dt n_paths) total per direction,
        # each jump owned by a uniform path, gives every path i.i.d.
        # Poisson(lam dt) counts per direction
        totals = gen.poisson(self.intensities * (dt * n_paths))
        # jumps grouped by radius law, so each law needs one draw
        counts = totals[self._order]
        sizes = np.bincount(self.law_of, weights=totals, minlength=len(self._firsts))
        radii = [self._draw_radii(i, int(n), gen) for i, n in zip(self._firsts, sizes) if n]
        radii = np.concatenate(radii) if radii else np.empty(0)
        owners = gen.integers(0, n_paths, radii.size)
        out = np.empty((n_paths, len(self._columns)))
        for j, col in enumerate(self._columns):
            out[:, j] = np.bincount(
                owners, weights=radii * np.repeat(col, counts), minlength=n_paths
            )
        out -= dt * self.mean_flux
        return out


def _radius_table(gamma, eps: float) -> np.ndarray:
    """Inverse-CDF table of a radial density restricted to (eps, inf),
    tabulated uniformly in v = -log(tail probability)."""
    r_max = min(eps * 1e8, R_HIGH)
    n_cells = max(int(np.log10(r_max / eps) * _TABLE_CELLS_PER_DECADE), 16)
    grid = np.geomspace(eps, r_max, n_cells + 1)
    # one batched pass, each cell refined to its own tolerance
    cells = panel_integral(gamma.density, grid[:-1], grid[1:])
    # past the end of the support: the cells after the first run of
    # _EMPTY_RUN_STOP empty cells are 0
    j = np.arange(n_cells)
    empty_run = j - np.maximum.accumulate(np.where(cells != 0.0, j, -1))
    stop = np.flatnonzero(empty_run >= _EMPTY_RUN_STOP)
    if stop.size:
        cells[stop[0] + 1 :] = 0.0
    # survival mass from the top avoids cancellation in the deep tail
    survival = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
    total = max(survival[0], 1e-300)
    with np.errstate(divide="ignore"):
        v_nodes = -np.log(np.maximum(survival / total, 1e-300))
    v_nodes = np.minimum(v_nodes, 2.0 * _V_MAX)
    v_grid = np.arange(_INVERSE_TABLE_SIZE) * _V_STEP
    return np.interp(v_grid, v_nodes, grid)


def _radius_law(gamma, eps: float, mass: float):
    """The law of one radius above eps: the power index of an exact power
    tail, an inverse-CDF table, or (radii, cumulative weights) of atoms."""
    tail_atoms = [(r, w) for r, w in gamma.atoms if r > eps]
    if gamma.density is not None and mass > 0.0:
        if tail_atoms:
            raise ValueError(
                "mixed atom and density radial tails are not supported "
                "by the jump sampler"
            )
        if gamma.power_index is not None:
            return gamma.power_index
        return _radius_table(gamma, eps)
    if tail_atoms:
        rr = np.array([r for r, _ in tail_atoms])
        ww = np.array([w for _, w in tail_atoms])
        return rr, np.cumsum(ww) / np.sum(ww)
    return np.array([eps]), np.array([1.0])


def truncated_jump_sampler(
    spec: LevySpec,
    eps: float,
    intensity_budget: float = 1e6,
):
    """Compound-Poisson approximation of a decomposed jump measure.

    Returns (JumpSampler, dropped_variance) where dropped_variance is
    int_{|y| <= eps} |y|^2 nu(dy), the second moment of the discarded
    small jumps.  Tail mass, flux, dropped variance and radius law are
    computed once per distinct radial measure.  Raises CutoffTooSmall
    when the total tail intensity exceeds the configured budget.
    """
    if eps <= 0:
        raise ValueError("cutoff must be positive")
    dirs, wgts = _sample_directions(spec.spherical, 64)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    wgts = np.asarray(wgts, dtype=float)

    laws = []

    def tail(gamma):
        mass_res = radial_integral(gamma, lo=eps)
        flux_res = radial_integral(gamma, lambda r: np.asarray(r, float), lo=eps)
        if mass_res.status != CONVERGED or flux_res.status != CONVERGED:
            return None
        drop_res = radial_integral(gamma, lambda r: np.asarray(r, float) ** 2, hi=eps)
        laws.append(_radius_law(gamma, eps, mass_res.value))
        return len(laws) - 1, mass_res.value, flux_res.value, max(drop_res.value, 0.0)

    rows = _per_measure(spec, dirs, tail)
    for xi, row in zip(dirs, rows):
        if row is None:
            raise CutoffTooSmall(
                f"tail mass above eps={eps:g} is not finite along {np.round(xi, 6)}"
            )
    law_of = np.array([row[0] for row in rows], dtype=np.intp)
    mass, flux, drop = np.array([row[1:] for row in rows], dtype=float).T
    intensities = wgts * mass
    dropped = float(np.sum(wgts * drop))

    total = float(np.sum(intensities))
    if total > intensity_budget:
        raise CutoffTooSmall(
            f"tail intensity {total:.3e} exceeds the budget {intensity_budget:.3e}"
        )
    sampler = JumpSampler(
        directions=dirs,
        intensities=intensities,
        law_of=law_of,
        radius_laws=tuple(laws),
        mean_flux=((wgts * flux)[:, None] * dirs).sum(axis=0),
        dropped_variance=dropped,
        cutoff=float(eps),
    )
    return sampler, dropped


@dataclass(frozen=True)
class StableAtomSampler:
    """Exact increments of Z = sum_i xi_i Y_i over a step, where each Y_i
    is an independent compensated, spectrally positive alpha_i-stable
    martingale of scale scales[i] along the atom directions[i].

    Each atom gets its own stable draw.  The atoms are never merged into
    one draw through (sum_i w_i <v, xi_i>^alpha)^(1/alpha): that merge
    is the reduction, so a comparison built on it would be circular.
    """

    directions: np.ndarray
    alphas: np.ndarray
    scales: np.ndarray

    def sample_increment(self, dt: float, n_paths: int, rng) -> np.ndarray:
        gen = _as_generator(rng)
        y = np.empty((n_paths, len(self.alphas)))
        # Python floats: numpy scalars slow every scalar step of _cms
        for i, (alpha, scale) in enumerate(zip(self.alphas.tolist(), self.scales.tolist())):
            y[:, i] = sample_stable(alpha, scale, dt, gen, size=n_paths)
        # np.dot, as @ leaves BLAS and is 6x slower for one atom
        return np.dot(y, self.directions)


def stable_atom_sampler(spec: LevySpec, eps: float, dt: float):
    """The exact per-atom sampler of spec's jumps when it is cheaper than
    the compound-Poisson sampler at cutoff eps and step dt, else None.

    It applies when the spherical part is atoms and every atom's radial
    law is a pure power law s r^-(1+alpha), alpha in (1, 2), without
    atoms; atom i of weight w_i then drives a stable process of scale
    (w_i s_i)^(1/alpha_i).  Timed on a 2-vCPU x86-64 host at 10k to 50k
    paths, one stable draw costs 1.1 to 2.0 truncated jumps, and the two
    samplers break even at 1.2 to 1.7 expected jumps per atom for 2 to
    16 atoms.  Exact increments also carry no truncation bias, so the
    exact sampler is chosen iff n_atoms is at most the expected jumps
    per path-step, dt sum_i w_i s_i eps^-alpha_i / alpha_i.  Atoms of
    zero weight or scale carry no jumps and get no draw.
    """
    if eps <= 0:
        raise ValueError("cutoff must be positive")
    if not spec.spherical.is_atomic:
        return None
    laws = [spec.radial(xi) for xi in spec.spherical.directions]
    if any(g.atoms or g.power_index is None or not 1.0 < g.power_index < 2.0 for g in laws):
        return None
    alphas = np.array([g.power_index for g in laws])
    # the power_index contract makes density(1) the scale s exactly
    mass = np.asarray(spec.spherical.weights, float) * np.array(
        [float(g.density(1.0)) for g in laws]
    )
    if np.any(mass < 0.0):
        raise ValueError("atom weights and radial scales must be nonnegative")
    live = mass > 0.0
    jumps = dt * float(np.sum(mass[live] * eps ** -alphas[live] / alphas[live]))
    if np.count_nonzero(live) > jumps:
        return None
    return StableAtomSampler(
        directions=np.asarray(spec.spherical.directions, float)[live],
        alphas=alphas[live],
        scales=mass[live] ** (1.0 / alphas[live]),
    )


def original_run(
    G,
    spec: LevySpec,
    a: float,
    b: float,
    x0: float,
    eps: float,
    horizon: float,
    n_steps: int,
    n_paths: int,
    rng,
) -> EulerRun:
    """Euler scheme for dR = (aR+b)dt + <G(R), dZ>.

    The jump part of dZ comes from stable_atom_sampler when it applies
    and is cheaper: exact per-atom stable increments, with no cutoff.
    Otherwise it comes from the compound-Poisson approximation above
    the cutoff eps, and the run records that sampler's cutoff,
    intensity and dropped variance.  A nonzero Wiener covariance adds
    correlated Gaussian increments.  States are clipped at zero and the
    clip frequency recorded.  The sampler is built once and shared by
    the path blocks, each drawing from its own child stream of rng, an
    RngStream or an integer seed.
    """
    if b < 0:
        raise ValueError("b must be nonnegative")
    dt = _checked_step(x0, horizon, n_steps, n_paths)

    jumps = None
    sampler = stable_atom_sampler(spec, eps, dt)
    if sampler is None:
        sampler = jumps = truncated_jump_sampler(spec, eps)[0]

    q = np.asarray(spec.wiener_cov, dtype=float)
    if np.any(q != 0.0):
        w, vecs = np.linalg.eigh(q)
        root = vecs @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    else:
        root = None

    blocks, seed = _path_blocks(
        rng, n_paths, partial(_original_steps, G, sampler, root, a, b, x0, dt, n_steps)
    )
    return EulerRun(blocks, dt, n_steps, seed, jumps)


def _original_steps(G, sampler, root, a, b, x0, dt, n_steps, n_paths, gen):
    """The Euler loop of one path block of original_run: (state,
    proposals clipped) per node."""
    r = np.full(n_paths, float(x0))
    yield r, 0
    for _ in range(n_steps):
        dz = sampler.sample_increment(dt, n_paths, gen)
        if root is not None:
            dz += gen.standard_normal((n_paths, root.shape[0])) @ root.T * np.sqrt(dt)
        # r is clipped already, so G reads the clipped state
        r = r + (a * r + b) * dt + G.inner(r, dz)
        clipped = int(np.count_nonzero(r < 0.0))
        np.maximum(r, 0.0, out=r)
        yield r, clipped


def simulate_original(
    G,
    spec: LevySpec,
    a: float,
    b: float,
    x0: float,
    eps: float,
    horizon: float,
    n_steps: int,
    n_paths: int,
    rng,
) -> PathEnsemble:
    """The paths of original_run, every state stored."""
    return _stored(
        original_run(G, spec, a, b, x0, eps, horizon, n_steps, n_paths, rng)
    )
