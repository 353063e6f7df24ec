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
become a Gaussian of their covariance, drawn with the Wiener part
(Asmussen and Rosinski 2001; Cohen and Rosinski 2007); the third
moment they leave out is kept, and compare budgets that error.  The
equation reads the noise only through <G(R), dZ>, so every run draws
its increments in the coordinates of a basis of the range of G: one
column for a power G, as in the reduction's C R^(1/alpha) dZ^alpha,
and d for a tabulated one.

The Euler loop runs behind an EulerRun, which yields the float64
states as the scheme steps.  A run splits its paths into fixed blocks
of at most _PATH_BLOCK paths, each with its own random stream, so a
path's draws depend on the seed and its block alone, never on how many
processes step the blocks.  simulate_reduced and simulate_original
store every state as a float32 path; a reader that needs only sums of
the states, such as the Monte Carlo bond price, reads the run itself,
or its blocks one by one, and keeps no paths.

Every run also carries its multilevel form, a tuple of EulerLevels:
with an even step count, the finest steps the run's dt, each coarser
one twice the step of the next, and every level but the coarsest
steps a coarse leg at twice its step on the sum of each pair of its
own increments; with an odd one, the plain run alone.  The sum of two
exact increments over dt is an exact increment over 2 dt, and at a
fixed cutoff so is the sum of two compound-Poisson and Gaussian ones,
so the coarse leg has the law of a plain run at 2 dt and draws nothing
of its own (Dereich 2011).  compare rounds its step count with
_ladder_steps, so that the ladder reaches _COARSEST_STEPS steps.  A
level's block of fewer than _PATH_BLOCK paths draws the increments of
several steps in one call, as many as _PATH_BLOCK path-steps hold:
the path-steps of one draw are i.i.d., so each step's increments keep
their law, and the draw's fixed cost is paid once per batch.  compare
may make the coarsest level a lattice level: each path-step takes its
Gaussian's normals and its sampler's uniforms from a randomly shifted
rank-1 Korobov lattice under the tent transform, whole shifts per path
block, which is multilevel quasi-Monte Carlo (Giles and Waterhouse
2009).  An exact sampler maps the uniforms of its stable draws; a
compound-Poisson one of one radius law the largest jump of a step, in
LePage order (Rosinski 2001), and draws the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable

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
# the modelled (fixed, per-path) time in ns of one step of a path block,
# as the sum of its parts: the Euler step, each exact stable atom drawn,
# the compound-Poisson sampler, each expected jump of a path-step and
# each Gaussian column.  Timed once, in-process on a 2-vCPU x86-64 host,
# as the best of 15 runs of _original_steps at 100 and 10 000 paths in
# d = 2 and 3, for 1 to 8 exact atoms, 16 atoms at cutoffs of 0.021 to
# 1.33 expected jumps per path-step, and 0 or 3 Gaussian columns.  The
# atom row is scaled so that two atoms give the 95 us + 87 ns per path
# that the multilevel allocation was tuned on; timed, an atom cost about
# 19 us + 26 ns, and the fixed-to-per-path ratio of a step stayed at 750
# to 850 paths from 1 to 8 atoms.  The table prices the d-dimensional
# step, with d jump and d Gaussian columns, although every run steps the
# K columns of G's basis, so a leg's budget and allocation do not depend
# on G; the projected step has about the same fixed cost and a smaller
# cost per path.  The fixed time of every row but the first is the
# draw's: a batched block (see EulerLevel.batch) pays it once per draw
# of several steps, and the Euler step's once per step.  Timed the same
# way, best of 7 at 100 to 1000 paths drawing 10 000 path-steps at once,
# a batched step's fixed time was 5.9 to 7.2 us, the Euler row's 7 us,
# for worked's two exact atoms and for many-atoms' compound-Poisson step
# with its Gaussian, whose unbatched fixed times were 44 and 38 us.  The
# last row is what a compound-Poisson lattice step adds (see
# _original_steps), timed in the same loop as the sampler's row, at
# many-atoms' coarsest level (63 steps, 0.47 expected jumps per
# path-step, one Gaussian column of G's basis), best of 20 interleaved
# runs at workload seeds 3 to 5: a lattice block of 1024 paths, 9 steps
# per draw, took 2.08 to 2.22 times a plain block of 10 000 paths per
# path-step, and 1.6 to 1.8 times a plain block of 1024.  The row prices
# it at 2.15 times the plain run's step there, so that a leg whose
# coarsest level is a lattice level keeps to the plain run's time, which
# its budget is.  An exact lattice step costs the plain one: its lattice
# columns and map took 432 us against 431 us
_STEP_COSTS = np.array([
    [7_000.0, 6.0],  # Euler step
    [44_350.0, 40.5],  # per exact stable atom
    [36_000.0, 9.5],  # compound-Poisson sampler
    [0.0, 29.0],  # per expected jump of a path-step
    [1_500.0, 16.0],  # per Gaussian column
    [0.0, 87.5],  # per compound-Poisson lattice path-step
])
# the (fixed, per-path) time in ns of a coarse step, which draws nothing:
# 12 us + 10 ns per path, timed beside the two-atom step above
_COARSE_COST = (12_180.0, 10.44)
# the cutoff compare takes for compound-Poisson jumps is at most this
# many doublings of the configured one
_CUTOFF_DOUBLINGS = 4
# the least step count of the coarsest level that _ladder_steps rounds
# compare's step count up to reach.  Of 16, 32 and 64, 32 gave the
# smallest squared SEs over worked and many-atoms at workload seeds 101
# to 103: within 2 % of 16's on worked, and 4 to 5 % below them on
# many-atoms at two seeds of the three; 64 left them 12 to 25 % higher
_COARSEST_STEPS = 32
# the rank-1 Korobov lattices of compare's coarsest level, n points to
# (g, order): the generating vector z_j = g^(j-1) mod n repeats after
# order coordinates, the order of g mod n.  g has the least weighted P_2
# criterion (weights 1/j^2, 256 dimensions) of the odd g up to n/2, as
# tools/lattice_search.py finds it.  An exact run takes 4096 points, a
# compound-Poisson one the prime 257, whose order 256 holds many-atoms'
# 189 coarsest coordinates, as no power of two below 1024 can: its 64
# shifts fit many-atoms' budget where 16 of 1024 did, and give the band
# 63 degrees of freedom where those gave 15 (see pricing._LATTICE_BLOCKS)
_LATTICES = {4096: (1939, 1024), 257: (65, 256)}
_EXACT_POINTS, _POISSON_POINTS = 4096, 257
# a lattice block holds the fewest whole shifts of a level's points that
# make at least _LATTICE_BLOCK paths: one of 4096, four of 257.  So a
# small lattice pays the fixed times of its steps no more often than one
# of 1024 points; 64 blocks of one shift of 257 lost the coupled levels
# a fifth of their paths on many-atoms
_LATTICE_BLOCK = 1024
# lattice uniforms are clipped into [_U_MIN, 1 - _U_MIN]: the tent
# transform maps the points 0 and 1/2 to 0 and 1, where v = pi (u - 1/2)
# would reach -pi/2 or pi/2 and w = -log1p(-u) would be 0 or infinite
_U_MIN = 2.0**-53


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


def _seed_tag(rng) -> tuple:
    """(seed, stream) of rng, an RngStream or an integer seed."""
    if isinstance(rng, (int, np.integer)):
        rng = RngStream(int(rng))
    if not isinstance(rng, RngStream):
        raise TypeError("an Euler run needs an RngStream or an integer seed")
    return rng.seed, rng.stream


def _block_sizes(n_paths: int, start: int = 0) -> list:
    """The path counts of the blocks of paths start..n_paths:
    _PATH_BLOCK each but the last, which holds the rest."""
    return [min(_PATH_BLOCK, n_paths - s) for s in range(start, n_paths, _PATH_BLOCK)]


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

    plain is the run itself as one uncoupled EulerLevel, whose path
    block j holds _block_sizes(n_paths)[j] paths: plain.block(j, n)
    starts that block's Euler loop, which yields the nodes (state, None,
    proposals clipped) of _original_steps at t = k dt for k =
    0..n_steps.  Iterating the run steps every block in lockstep and
    yields their states concatenated, each a fresh (n_paths,) float64
    array, so a reader may keep any of them; the run itself keeps none.
    A reader that steps the blocks one by one adds their clipped counts
    to clipped, the proposals clipped so far.  clamp_frequency is
    clipped over all n_steps * n_paths proposals.  jumps is the
    compound-Poisson jump sampler behind the increments, None for exact
    stable increments.  levels is the run's multilevel form (see
    _levels).  price(dt, lattice) is the step cost of a level at the step
    dt, on the lattice or not (see _step_cost).  lattice is (points,
    coordinates per path-step) of the lattice its coarsest level may
    take (see lattice_level), None where its sampler maps none.  A run
    steps once.
    """

    def __init__(self, steps, dt, n_steps, n_paths, rng, jumps, price, lattice):
        self.seed = _seed_tag(rng)
        self.lattice = lattice
        self.price = price
        self.plain = EulerLevel(None, dt, n_steps, False, steps, self.seed, price(dt))
        self.levels = _levels(self.plain, price)
        self.clipped = 0
        self.dt = dt
        self.n_steps = n_steps
        self.n_paths = n_paths
        self.jumps = jumps
        self.cutoff = None if jumps is None else jumps.cutoff
        self.jump_intensity = None if jumps is None else jumps.intensity
        self.dropped_variance = None if jumps is None else jumps.dropped_variance

    def __iter__(self):
        loops = [self.plain.block(j, n) for j, n in enumerate(_block_sizes(self.n_paths))]
        for nodes in zip(*loops):
            self.clipped += sum(clipped for _, _, clipped in nodes)
            if len(nodes) == 1:
                yield nodes[0][0]
            else:
                yield np.concatenate([r for r, _, _ in nodes])

    @property
    def clamp_frequency(self) -> float:
        return self.clipped / float(self.n_steps * self.n_paths)

    def cost(self, n_steps: int) -> float:
        """The modelled time in ns of the run's path blocks stepped
        plainly at n_steps steps over its horizon (see EulerLevel.cost)."""
        dt = self.dt * self.n_steps / n_steps
        plain = replace(self.plain, dt=dt, n_steps=n_steps, step_cost=self.price(dt))
        return plain.cost(_block_sizes(self.n_paths))

    def lattice_level(self):
        """The coarsest level on the run's lattice, priced as such; None
        for a run of one level, a run without a lattice, or a level whose
        coordinates, n_steps times those of a path-step, outnumber the
        order of the lattice's generator, past which they repeat."""
        coarsest = self.levels[0]
        if len(self.levels) == 1 or self.lattice is None:
            return None
        points, width = self.lattice
        if coarsest.n_steps * width > _LATTICES[points][1]:
            return None
        return replace(coarsest, points=points, step_cost=self.price(coarsest.dt, True))


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

    It is original_run's scheme on the original equation with d = 1:
    one atom xi = 1 of weight 1 under r^-(1+alpha) dr, drawn by its
    exact stable sampler, no Wiener part, and G(x) = C x^(1/alpha).
    model may be any object with fields a, b, C, alpha; C = 0
    degenerates to the drift ODE.  rng is an RngStream or an integer
    seed.
    """
    dt = _checked_step(x0, horizon, n_steps, n_paths)
    sampler = StableAtomSampler(np.ones((1, 1)), np.array([model.alpha]), np.ones(1))
    G = VolatilityFunction.power(1.0 / model.alpha, [model.C])
    q = np.zeros((1, 1))
    return _euler_run(G, sampler, q, model.a, model.b, x0, dt, n_steps, n_paths, rng)


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
    cutoff, with the moments of the small jumps below it.

    Jumps land along a finite list of directions (atoms of the
    spherical part, or its quadrature discretization).  Directions that
    share a radial measure share one radius law: exact power tails are
    drawn in closed form, other densities through an inverse-CDF table,
    atoms from their cumulative weights.  radius_laws[law_of[i]] is the
    law of direction i: a float power index, a table array, or a
    (radii, cumulative weights) pair.  sample_increment returns
    compensated per-path increments, i.e. the jump sums minus dt times
    the mean flux.

    small_cov is the covariance per unit time of the small jumps,
    sum_i w_i xi_i xi_i^T int_0^cutoff r^2 gamma_i(dr), which
    original_run gives to a Gaussian; dropped_variance is its trace.
    small_third holds w_i int_0^cutoff r^3 gamma_i(dr) per direction:
    the third moments the Gaussian does not carry.
    """

    directions: np.ndarray
    intensities: np.ndarray
    law_of: np.ndarray
    radius_laws: tuple
    mean_flux: np.ndarray
    small_cov: np.ndarray
    small_third: np.ndarray
    cutoff: float

    def __post_init__(self):
        # what every sample_increment reads: the directions grouped by
        # radius law, the first direction of each law, and the columns
        # of the grouped directions
        order = np.argsort(self.law_of, kind="stable")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_firsts", np.unique(self.law_of, return_index=True)[1])
        object.__setattr__(self, "_columns", self.directions[order].T)
        # what mapped_increment reads: the directions by the size of
        # their projection, the cumulative share of their intensities,
        # which ends at 1 exactly, and its guide table (Chen and Asau
        # 1974): cell c of 2^m >= 4 n cells holds the number of shares
        # up to c / 2^m, which no cell adds more than guide_steps to
        by_size = np.argsort(np.linalg.norm(self.directions, axis=1), kind="stable")
        shares = np.cumsum(self.intensities[by_size])
        shares /= max(shares[-1], 1e-300)
        cells = 1 << (4 * len(shares) - 1).bit_length()
        guide = np.searchsorted(shares, np.arange(cells + 1) / cells, side="right")
        object.__setattr__(self, "_by_size", self.directions[by_size])
        object.__setattr__(self, "_size_cdf", shares)
        object.__setattr__(self, "_guide", guide[:-1])
        object.__setattr__(self, "_guide_steps", int(np.diff(guide).max()))

    @property
    def intensity(self) -> float:
        return float(np.sum(self.intensities))

    @property
    def dropped_variance(self) -> float:
        return float(np.trace(self.small_cov))

    def third_moment(self, g) -> float:
        """sum_i w_i <g, xi_i>^3 int_0^cutoff r^3 gamma_i(dr): the third
        moment per unit time of the small jumps projected on g."""
        return float(self.small_third @ (self.directions @ g) ** 3)

    @property
    def lattice(self):
        """(points, coordinates per path-step) of the lattice that
        mapped_increment maps, for jumps of one radius law and a positive
        intensity; else None."""
        return (_POISSON_POINTS, 2) if len(self._firsts) == 1 and self.intensity > 0 else None

    def _draw_radii(self, i: int, n: int, gen) -> np.ndarray:
        """n radii from the tail law of direction i."""
        law = self.radius_laws[self.law_of[i]]
        if isinstance(law, tuple):
            return _atom_radii(law, gen.random(n))
        return self._tail_radii(law, gen.standard_exponential(n))

    def _tail_radii(self, law, v: np.ndarray) -> np.ndarray:
        """The radii of law whose tail probability is exp(-v)."""
        if isinstance(law, float):
            # exact power tail: P(R > r) = (r / eps)^-alpha above the cutoff
            return self.cutoff * np.exp(v * (1.0 / law))
        if isinstance(law, tuple):
            return _atom_radii(law, -np.expm1(-v))
        # the table is uniform in v = -log(tail probability), so an
        # exponential draw indexes it directly; heavy tails stay resolved
        pos = v * (1.0 / _V_STEP)
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

    def mapped_increment(self, dt: float, u: np.ndarray, gen) -> np.ndarray:
        """The increments of sample_increment, one per column of the
        uniforms u in (0, 1), for jumps of one radius law, the largest
        first (LePage order).  The jumps of a path-step are the arrivals
        of a unit-rate Poisson process on (0, lam dt), lam the intensity:
        row 0 gives the first, Gamma_1 = -log1p(-u), and row 1 its
        direction, by the inverse CDF of the intensities over the
        directions sorted by the size of their projection.  A jump
        exists where Gamma_1 < lam dt, of the radius whose tail
        probability is Gamma_1 / (lam dt).  The later arrivals of those
        path-steps come from gen: sample_increment's own jumps, each at
        Gamma = lam dt e^-v for v the exponential of its radius, kept
        where Gamma > Gamma_1, which leaves a unit-rate Poisson process
        on (Gamma_1, lam dt).  A path-step without a first jump has none."""
        lam = dt * self.intensity
        # the path-steps whose first arrival comes before lam, and
        # v1 = log(lam / Gamma_1) > 0, the tail exponent of its jump
        first = np.flatnonzero(u[0] < -np.expm1(-lam))
        v1 = np.log1p(-u[0, first])
        np.negative(v1, out=v1)
        np.log(v1, out=v1)
        np.subtract(np.log(lam), v1, out=v1)
        # the inverse CDF: the number of shares up to the uniform
        key = u[1, first]
        pick = self._guide[(key * len(self._guide)).astype(np.intp)]
        for _ in range(self._guide_steps):
            pick += key >= self._size_cdf[pick]
        # their later arrivals, drawn as sample_increment draws its jumps
        totals = gen.poisson(self.intensities * (dt * first.size))
        v = gen.standard_exponential(int(totals.sum()))
        owners = gen.integers(0, first.size, v.size)
        kept = np.flatnonzero(v < v1[owners])
        law = self.radius_laws[self.law_of[0]]
        firsts, radii = self._tail_radii(law, v1), self._tail_radii(law, v[kept])
        out = np.empty((u.shape[1], self.directions.shape[1]))
        out[:] = -dt * self.mean_flux
        for j, col in enumerate(self.directions.T):
            jumps = firsts * self._by_size[pick, j]
            weights = radii * np.repeat(col, totals)[kept]
            jumps += np.bincount(owners[kept], weights=weights, minlength=first.size)
            out[first, j] += jumps
        return out


def _atom_radii(law: tuple, u: np.ndarray) -> np.ndarray:
    """The radii of law, (radii, cumulative weights), at the uniforms u."""
    radii, cdf = law
    pick = np.searchsorted(cdf, u, side="right")
    return radii[pick.clip(0, len(radii) - 1)]


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
    int_{|y| <= eps} |y|^2 nu(dy), the trace of the sampler's small_cov:
    the variance the Gaussian of original_run carries in place of the
    small jumps.  Tail mass, flux, small-jump moments and radius law are
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
        small = [
            max(radial_integral(gamma, lambda r, p=p: np.asarray(r, float) ** p, hi=eps).value, 0.0)
            for p in (2, 3)
        ]
        laws.append(_radius_law(gamma, eps, mass_res.value))
        return len(laws) - 1, mass_res.value, flux_res.value, *small

    rows = _per_measure(spec, dirs, tail)
    for xi, row in zip(dirs, rows):
        if row is None:
            raise CutoffTooSmall(
                f"tail mass above eps={eps:g} is not finite along {np.round(xi, 6)}"
            )
    law_of = np.array([row[0] for row in rows], dtype=np.intp)
    mass, flux, second, third = np.array([row[1:] for row in rows], dtype=float).T
    intensities = wgts * mass

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
        small_cov=(dirs.T * (wgts * second)) @ dirs,
        small_third=wgts * third,
        cutoff=float(eps),
    )
    return sampler, sampler.dropped_variance


def _gaussian_cutoff(G, spec: LevySpec, x0: float, eps: float, cap: float) -> float:
    """The largest of eps, 2 eps, ..., 2^_CUTOFF_DOUBLINGS eps at which
    the small jumps below it have sum_i w_i |<G(x0), xi_i>|^3
    int_0^cutoff r^3 gamma_i(dr) at most cap; eps where none has.

    That sum grows with the cutoff and bounds the third moment of the
    small jumps projected on G(x0), the leading error of giving them to
    a Gaussian of their covariance."""
    dirs, wgts = _sample_directions(spec.spherical, 64)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    cutoffs = eps * 2.0 ** np.arange(_CUTOFF_DOUBLINGS + 1)

    def thirds(gamma):
        return [
            radial_integral(gamma, lambda r: np.asarray(r, float) ** 3, hi=cut).value
            for cut in cutoffs
        ]

    weights = np.asarray(wgts, dtype=float) * np.abs(dirs @ G(x0)) ** 3
    moments = weights @ np.array(_per_measure(spec, dirs, thirds))
    return float(cutoffs[moments <= cap][-1]) if moments[0] <= cap else float(eps)


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
        if len(self.alphas) == 1:
            # one product per entry, equal to the bit to the k = 1 np.dot
            y = sample_stable(self.alphas.item(), self.scales.item(), dt, gen, size=n_paths)
            return y[:, None] * self.directions[0]
        y = np.empty((n_paths, len(self.alphas)))
        # Python floats: numpy scalars slow every scalar step of _cms
        for i, (alpha, scale) in enumerate(zip(self.alphas.tolist(), self.scales.tolist())):
            y[:, i] = sample_stable(alpha, scale, dt, gen, size=n_paths)
        # np.dot, as @ leaves BLAS and is 6x slower for one atom
        return np.dot(y, self.directions)

    @property
    def lattice(self):
        """(points, coordinates per path-step) of the lattice that
        mapped_increment maps: two uniforms per atom."""
        return _EXACT_POINTS, 2 * len(self.alphas)

    def mapped_increment(self, dt: float, u: np.ndarray) -> np.ndarray:
        """The increments of sample_increment, one per column of the
        uniforms u in (0, 1), two rows per atom: atom i maps row 2i to
        v = pi (u - 1/2) and row 2i + 1 to w = -log1p(-u), the uniform
        and the exponential of its _cms draw."""
        y = np.empty((u.shape[1], len(self.alphas)))
        for i, (alpha, scale) in enumerate(zip(self.alphas.tolist(), self.scales.tolist())):
            v, w = _stable_inputs(u[2 * i], u[2 * i + 1])
            y[:, i] = _cms(alpha, scale * dt ** (1.0 / alpha), v, w)
        return np.dot(y, self.directions)


def _stable_inputs(u1: np.ndarray, u2: np.ndarray) -> tuple:
    """(v, w) of _cms from uniforms in (0, 1): v = pi (u1 - 1/2) in
    (-pi/2, pi/2) and the exponential w = -log1p(-u2) > 0."""
    v = u1 - 0.5
    v *= np.pi
    w = np.log1p(-u2)
    np.negative(w, out=w)
    return v, w


@lru_cache(maxsize=2)
def _lattice_points(n: int, m: int) -> np.ndarray:
    """The first m coordinates of the n unshifted points of the Korobov
    lattice (n, g) of _LATTICES: an (m, n) uint16 array, row j the
    integers k z_j mod n, k = 0..n-1, for z_j = g^j mod n, read-only.
    Built once per level and process.  For n a power of two, uint16
    products wrap modulo 2^16, a multiple of n, so they are exact modulo
    n; a prime n reduces its int64 products."""
    g = _LATTICES[n][0]
    z = np.array([pow(g, j, n) for j in range(m)], dtype=np.uint16)
    if n & (n - 1):
        points = (np.multiply.outer(z.astype(np.int64), np.arange(n)) % n).astype(np.uint16)
    else:
        points = np.multiply.outer(z, np.arange(n, dtype=np.uint16)) & np.uint16(n - 1)
    points.flags.writeable = False
    return points


def _lattice_uniforms(points: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The rows points of _lattice_points under each row of shift (one
    shift, or S of them), tent-transformed and clipped: row j holds, for
    each shift in turn, the values 1 - |2 {x} - 1| at x = points[j] / n +
    shift_j, n = points.shape[1], clipped into [_U_MIN, 1 - _U_MIN].
    For n a power of two, points / n is exact, so the shift adds to a
    value below 1; the tent, twice the distance of x to the nearest
    integer, is exact too."""
    shift = np.reshape(shift, (-1, len(points))).T
    x = points[:, None, :] * (1.0 / points.shape[1])
    x = x + shift[:, :, None]
    x -= np.rint(x)
    np.abs(x, out=x)
    x *= 2.0
    np.maximum(x, _U_MIN, out=x)
    np.minimum(x, 1.0 - _U_MIN, out=x)
    return x.reshape(len(points), -1)


# Wichura's AS241 (PPND16): the numerator and denominator coefficients,
# constant term first, of the central region |u - 1/2| <= 0.425 and of
# the tails at r = sqrt(-log min(u, 1 - u)) - 1.6 up to r = 3.4 and
# r - 3.4 beyond; every coefficient is positive and every r >= 0
_AS241 = np.array([
    [[3.387132872796366608, 133.14166789178437745, 1971.5909503065514427,
      13731.693765509461125, 45921.953931549871457, 67265.770927008700853,
      33430.575583588128105, 2509.0809287301226727],
     [1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
      21213.794301586595867, 39307.89580009271061, 28729.085735721942674,
      5226.495278852854561]],
    [[1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055,
      3.64784832476320460504, 1.27045825245236838258, 0.24178072517745061177,
      0.0227238449892691845833, 7.7454501427834140764e-4],
     [1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
      0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4,
      1.05075007164441684324e-9]],
    [[6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358,
      0.29656057182850489123, 0.026532189526576123093, 0.0012426609473880784386,
      2.71155556874348757815e-5, 2.01033439929228813265e-7],
     [1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
      7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7,
      2.04426310338993978564e-15]],
])


def _rational(coefs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The ratio of the two polynomials of coefs (2, 8) at r >= 0, as one
    product with the powers of r: with every term positive, the sums
    lose no accuracy, and one matrix product is faster than Horner's
    rule in numpy."""
    powers = np.empty((coefs.shape[1], r.size))
    powers[0] = 1.0
    powers[1] = r
    for k in range(2, len(powers)):
        np.multiply(powers[k - 1], r, out=powers[k])
    num, den = coefs @ powers
    num /= den
    return num


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile at u in (0, 1), by Wichura's AS241
    (Applied Statistics 37, 1988), accurate to about 1e-16 relative."""
    shape, u = u.shape, u.ravel()
    q = u - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _rational(_AS241[0], r)
    x *= q
    tails = np.flatnonzero(np.abs(q) > 0.425)
    if tails.size:
        ut = u[tails]
        r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
        r -= 1.6
        far = r > 3.4
        tail = _rational(_AS241[1], r)
        if far.any():
            tail[far] = _rational(_AS241[2], r[far] - 3.4)
        x[tails] = np.copysign(tail, q[tails])
    return x.reshape(shape)


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

    eps is the configured cutoff, in simulate and compare alike; compare
    takes its own, larger cutoff only once this has chosen the
    compound-Poisson sampler, which any larger cutoff would choose too.
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
    the cutoff eps, and the small jumps below it become a Gaussian of
    their covariance, the sampler's small_cov; the run records that
    sampler's cutoff, intensity and dropped variance, and keeps it as
    jumps.  The Gaussian and a nonzero Wiener covariance add up to one
    correlated Gaussian increment.  States are clipped at zero and the
    clip frequency recorded.  The sampler is built once and shared by
    the path blocks, each drawing from its own child stream of rng, an
    RngStream or an integer seed.

    The run steps dZ in the coordinates of G's basis U (see _euler_run),
    under either sampler.  The run's levels hold its multilevel form
    (see _levels), under either sampler too: at a fixed cutoff the sum
    of two compound-Poisson and Gaussian increments over dt has the law
    of one over 2 dt, as the sum of two exact stable increments has.
    """
    if b < 0:
        raise ValueError("b must be nonnegative")
    dt = _checked_step(x0, horizon, n_steps, n_paths)
    q = np.asarray(spec.wiener_cov, dtype=float)
    sampler = stable_atom_sampler(spec, eps, dt)
    if sampler is None:
        sampler = truncated_jump_sampler(spec, eps)[0]
        q = q + sampler.small_cov
    return _euler_run(G, sampler, q, a, b, x0, dt, n_steps, n_paths, rng)


def _euler_run(G, sampler, q, a, b, x0, dt, n_steps, n_paths, rng) -> EulerRun:
    """The EulerRun of dR = (aR+b)dt + <G(R), dZ> whose increments dZ are
    sampler's jumps plus a Gaussian of covariance q dt.

    The loop steps dZ in the coordinates of G's basis U (d x K), U^T dZ,
    which is all that <G(R), dZ> reads: the sampler's directions, and a
    compound-Poisson sampler's mean flux, are projected on U once, and
    q becomes U^T q U.  A power G steps one coordinate, one normal and
    one jump column per path-step, where dZ takes d of each; a G in the
    standard basis steps dZ itself.  The step is priced as the
    d-dimensional one (_step_cost of the unprojected sampler and d
    Gaussian columns, at each level's own step), so a leg's budget and
    allocation do not depend on G's basis.  A compound-Poisson sampler
    is kept unprojected as the run's jumps.  The run's lattice is the
    sampler's, with root's normals added to its coordinates per
    path-step (see _original_steps).
    """
    jumps = sampler if isinstance(sampler, JumpSampler) else None
    price = partial(_step_cost, sampler, q.shape[0] if np.any(q != 0.0) else 0)
    U = G.basis
    sampler = replace(sampler, directions=sampler.directions @ U)
    if jumps is not None:
        sampler = replace(sampler, mean_flux=jumps.mean_flux @ U)
    q = U.T @ q @ U
    root = None
    if np.any(q != 0.0):
        w, vecs = np.linalg.eigh(q)
        root = vecs @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    steps = partial(_original_steps, G, sampler, root, a, b, x0)
    lattice = sampler.lattice
    if lattice is not None:
        lattice = (lattice[0], (0 if root is None else root.shape[0]) + lattice[1])
    return EulerRun(steps, dt, n_steps, n_paths, rng, jumps, price, lattice)


def _original_steps(
    G, sampler, root, a, b, x0, dt, n_steps, coupled, n_paths, gen, batch=1, lattice=0
):
    """The Euler loop of one path block: (state, coarse state, proposals
    clipped) at each node t = k dt.

    Each draw takes the increments of batch steps (fewer in the last) at
    once: sampler's increments of batch * n_paths path-steps, then
    root's Gaussian, one normal per column, both read step after step in
    blocks of n_paths rows.  Each step contracts its increments dz with
    G's coefficients (G.inner); _euler_run projects sampler and root, so
    dz has the K columns of G's basis.  With batch 1, each step draws
    its own.  With coupled, a coarse leg steps at 2 dt beside the fine
    one, on the sum of each pair of fine increments, Wiener part
    included; its state comes at the even nodes, None at the odd ones,
    and the clipped count covers both legs.  Without, the coarse state
    is always None.

    With lattice, a number of points n of _LATTICES, the uniforms of
    each path-step come from the n points of the Korobov lattice (see
    _lattice_uniforms), one path per point, under n_paths / n shifts that
    the block draws from gen before anything else, shift s for the paths
    s n to s n + n - 1.  Step k takes the W coordinates W k, ..., W k + W - 1: first
    root's K normals, through _ndtri, then the sampler's own (see its
    lattice) for its mapped_increment, which may draw the rest from
    gen.  For A exact atoms, coordinates W k + K + 2i and W k + K + 2i
    + 1 are atom i's; a compound-Poisson step's are its first jump's
    arrival and direction.  Each draw slices the coordinates of its own
    steps from the level's unshifted points.
    """
    r = np.full(n_paths, float(x0))
    coarse = r.copy() if coupled else None
    if root is not None:
        # the Gaussian's normals and their mix, held for the whole block
        noise, mixed = np.empty((2, batch * n_paths, root.shape[0]))
    if lattice:
        normals = 0 if root is None else root.shape[0]
        width = normals + sampler.lattice[1]
        points = _lattice_points(lattice, n_steps * width)
        shift = gen.random((n_paths // lattice, n_steps * width))
        mapped = sampler.mapped_increment
        if isinstance(sampler, JumpSampler):
            # its later arrivals come from gen
            mapped = partial(mapped, gen=gen)
    yield r, coarse, 0
    for start in range(0, n_steps, batch):
        count = min(batch, n_steps - start)
        rows = count * n_paths
        if lattice:
            # row c holds coordinate c of each step, the steps in turn
            coords = np.arange(start * width, (start + count) * width)
            coords = coords.reshape(count, width).T.ravel()
            u = _lattice_uniforms(points[coords], shift[:, coords]).reshape(width, rows)
            draws = mapped(dt, u[normals:])
        else:
            draws = sampler.sample_increment(dt, rows, gen)
        if root is not None:
            if lattice:
                noise[:rows] = _ndtri(u[:normals]).T
            else:
                gen.standard_normal(out=noise[:rows])
            # np.dot, as @ leaves BLAS and is 12x slower for K = 1
            np.dot(noise[:rows], root.T, out=mixed[:rows])
            mixed[:rows] *= np.sqrt(dt)
            draws += mixed[:rows]
        for k, dz in enumerate(draws.reshape(-1, n_paths, draws.shape[1]), start + 1):
            r, clipped = _euler_step(G, a, b, r, dt, dz)
            if not coupled:
                yield r, None, clipped
            elif k % 2:
                # each draw is fresh and the step leaves dz as it is, so
                # the pair sum may reuse it
                pair = dz
                yield r, None, clipped
            else:
                pair += dz
                coarse, coarse_clipped = _euler_step(G, a, b, coarse, 2.0 * dt, pair)
                yield r, coarse, clipped + coarse_clipped


def _step_cost(sampler, columns: int, dt: float, lattice: bool = False) -> tuple:
    """The modelled (step, draw, per-path) time in ns of one Euler step
    of dt of a path block under sampler, with columns Gaussian columns:
    the fixed time of the Euler step, the fixed time of its draw, and
    the time per path.  An exact sampler pays per stable atom drawn, a
    compound-Poisson one per expected jump of a path-step, and each pays
    for the Gaussian (see _STEP_COSTS).  With lattice, a compound-Poisson
    step also pays for its lattice draw; an exact one costs the same."""
    if isinstance(sampler, StableAtomSampler):
        units = [1.0, len(sampler.alphas), 0.0, 0.0, columns, 0.0]
    else:
        units = [1.0, 0.0, 1.0, dt * sampler.intensity, columns, float(lattice)]
    units = np.array(units, dtype=float)
    draw = units[1:] @ _STEP_COSTS[1:, 0]
    return float(_STEP_COSTS[0, 0]), float(draw), float(units @ _STEP_COSTS[:, 1])


def _euler_step(G, a, b, r, dt, dz):
    """The full-truncation Euler step over dt from the states r with the
    increments dz in the coordinates of G's basis: (next states,
    proposals clipped at zero)."""
    # r is clipped already, so G reads the clipped state
    r = r + (a * r + b) * dt + G.inner(r, dz)
    clipped = int(np.count_nonzero(r < 0.0))
    np.maximum(r, 0.0, out=r)
    return r, clipped


@dataclass(frozen=True)
class EulerLevel:
    """One level of a run's multilevel form, index counted from the
    coarsest: n_steps Euler steps of dt, and with coupled the coarse leg
    at 2 dt beside them.

    steps is the run's _original_steps up to its step arguments.
    block(j, n_paths) starts the loop of the level's path block j, which
    draws from the child (index, j) of SeedSequence(seed), batch(n_paths)
    steps per draw, so a block's draws depend on the seed, the level,
    the block and its path count alone.  The run's plain level has index
    None, and its block j draws from the child j, one step per draw: the
    run's own block j, as simulate steps it.  step_cost is the modelled
    (step, draw, per-path) time of one fine step of dt in ns (see
    _step_cost).  points, set only on a coarsest level that EulerRun.
    lattice_level makes, makes each block whole shifts of the points
    points of the Korobov lattice of _LATTICES, its shifts drawn from
    the block's stream (see _original_steps); such a block holds exactly
    lattice_paths paths.  0 leaves the level on plain Monte Carlo.
    """

    index: int | None
    dt: float
    n_steps: int
    coupled: bool
    steps: Callable
    seed: tuple
    step_cost: tuple
    points: int = 0

    def block(self, j: int, n_paths: int):
        if self.points and n_paths != self.lattice_paths:
            raise ValueError(f"a lattice block holds {self.lattice_paths} paths, not {n_paths}")
        key = (j,) if self.index is None else (self.index, j)
        seq = np.random.SeedSequence(list(self.seed), spawn_key=key)
        gen = np.random.default_rng(seq)
        batch = self.batch(n_paths)
        return self.steps(self.dt, self.n_steps, self.coupled, n_paths, gen, batch, self.points)

    @property
    def lattice_paths(self) -> int:
        """The paths of one block of a lattice level, the fewest whole
        shifts of its points that reach _LATTICE_BLOCK; 0 off the lattice."""
        return self.points and self.points * -(-_LATTICE_BLOCK // self.points)

    def batch(self, n_paths: int) -> int:
        """The steps a block of n_paths paths draws at once: as many as
        _PATH_BLOCK path-steps hold on a multilevel level, so a small
        block pays its draw's fixed time once per batch and no draw
        outgrows a full block's; one on the plain level."""
        return 1 if self.index is None else max(1, _PATH_BLOCK // n_paths)

    @property
    def path_steps(self) -> int:
        """Path-steps of one path of the level, over both legs."""
        return self.n_steps + self.n_steps // 2 if self.coupled else self.n_steps

    def cost(self, sizes) -> float:
        """The modelled time in ns of the level's path blocks of sizes
        paths: every fine step of a block pays step_cost's step and
        per-path times, every draw its draw time, and every coarse step
        _COARSE_COST."""
        step, draw, per_path = self.step_cost
        cost = 0.0
        for n in sizes:
            draws = -(-self.n_steps // self.batch(n))
            cost += self.n_steps * (step + per_path * n) + draws * draw
            if self.coupled:
                cost += self.n_steps // 2 * (_COARSE_COST[0] + _COARSE_COST[1] * n)
        return cost

    @property
    def path_cost(self) -> float:
        """The modelled time in ns of one more path of the level in
        batched blocks: per fine step its per-path time and its share of
        a draw of _PATH_BLOCK path-steps, per coarse step _COARSE_COST's
        per-path time."""
        _, draw, per_path = self.step_cost
        cost = self.n_steps * (per_path + draw / _PATH_BLOCK)
        return cost + self.n_steps // 2 * _COARSE_COST[1] if self.coupled else cost


def _levels(plain: EulerLevel, price) -> tuple:
    """The multilevel form of the run whose plain level is plain,
    coarsest first: the finest level steps its dt, and each coarser one
    twice the step of the next while the step count stays even; every
    level but the coarsest is coupled, and each costs price(dt) at its
    own step dt.  An odd step count leaves the plain level alone.  So
    the odd part of the step count sets the ladder's depth; compare
    takes a count whose ladder reaches a coarsest level of at least
    _COARSEST_STEPS steps (see _ladder_steps)."""
    dt, n_steps, sizes = plain.dt, plain.n_steps, []
    while n_steps % 2 == 0:
        sizes.append((dt, n_steps, True))
        dt, n_steps = 2.0 * dt, n_steps // 2
    if not sizes:
        return (plain,)
    sizes.append((dt, n_steps, False))
    return tuple(
        EulerLevel(index, h, n, coupled, plain.steps, plain.seed, price(h))
        for index, (h, n, coupled) in enumerate(reversed(sizes))
    )


def _ladder_steps(n_steps: int) -> int:
    """The step count of a multilevel run for the configured n_steps:
    for L the most halvings that leave n_steps / 2^L at least
    _COARSEST_STEPS, the least odd multiple of 2^L at or above n_steps,
    whose ladder (see _levels) halves the step L times down to a
    coarsest level of at least _COARSEST_STEPS steps; n_steps itself
    when 2^L divides it, so its own ladder is at least that deep."""
    depth = max((n_steps // _COARSEST_STEPS).bit_length() - 1, 0)
    if n_steps % (1 << depth) == 0:
        return n_steps
    return (-(-n_steps >> depth) | 1) << depth


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
