"""Problem definitions: dynamics, forcing terms, declared constants, knobs.

A :class:`Problem` bundles everything the steering pipeline consumes: the
semigroup, the control operator, the delay/history data, the forcing terms
and the forcing's declared constants.  Two variants exist:

* semilinear -- forcing ``eta(t, x(t - beta))`` plus an optional nonlocal
  initial coupling ``x(0) = phi(0) + nu(x)``;
* integro -- forcing is the running convolution of a polynomial kernel
  against the delayed integrand ``q(t, x(t - beta))``; no nonlocal coupling.

``Problem.nonlinearity`` is the pointwise map of either variant, ``eta`` or
``q``, and ``Problem.kernel`` the kernel's coefficients, lowest power first.
The map is called once per run of forcing rows: ``fn(t, v)`` takes the node
times ``t`` of shape ``(n,)`` and the delayed states ``v[i] = x(t_i - beta)``
of shape ``(n, dim)`` and returns the ``(n, dim)`` forcing rows.
The impulse is ``theta * x(theta_j-)`` on every impulse window (theta_j, lam_j].

The problem computes the Lipschitz constants of the impulse (lam_j) and of
nu (sum |alpha_i|); the certificate computes the bounds on T and on B, and
the sup constants of the impulse and of nu on one ball of paths
(:func:`certificates.ball_radius`).  Declared are only the
constants of the supplied forcing, which the code cannot introspect
(:class:`AssumptionConstants`).  One pair of forcing constants describes
whichever pointwise map the problem carries, ``eta`` or the integrand
``q``; :mod:`evosteer.certificates` scales the latter by the discrete
kernel mass, so both variants share one set of formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FieldError, PiecewiseTrajectory, TimeMesh

# The fewest steps any mesh interval's sample grid takes.
MIN_STEPS = 8


@dataclass(frozen=True)
class AssumptionConstants:
    """Declared Lipschitz constant and uniform bound of the forcing: of eta,
    or of the kernel integrand q.  The impulse ``theta * x`` and nu are
    unbounded maps, so they have no sup constant to declare: the
    certificate takes theirs on a ball of paths it names.  Unused
    constants stay at 0.
    """

    nonlin_lipschitz: float = 0.0
    nonlin_sup: float = 0.0

    def __post_init__(self):
        for name in ("nonlin_lipschitz", "nonlin_sup"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


class WeightedSampleNonlocal:
    """Nonlocal initial coupling nu(x) = sum_j alpha_j * x(t_j).

    Lipschitz in the path sup norm with constant sum |alpha_j|.  A
    :class:`Problem` refuses it unless every instant lies in [0, b].
    """

    def __init__(self, alphas: Sequence[float], instants: Sequence[float]):
        if len(alphas) != len(instants):
            raise FieldError("alphas", "one nonlocal weight per sample instant required")
        self.alphas = tuple(float(a) for a in alphas)
        self.instants = tuple(float(t) for t in instants)

    @property
    def lipschitz(self) -> float:
        return sum(abs(a) for a in self.alphas)

    def __call__(self, traj: PiecewiseTrajectory) -> np.ndarray:
        out = np.zeros(traj.dim)
        for a, t in zip(self.alphas, self.instants):
            out += a * traj.value(t)
        return out


@dataclass
class Problem:
    """Full problem tuple consumed by the Gramian/steering/solver pipeline;
    the control space is weighted like the state space, so B* is B^T.
    ``control_matrix`` is B, or None for B = I, which takes no products.
    ``kernel``, the coefficients c_r of kappa(s) = sum_r c_r s^r, lowest
    power first, makes the integro variant, whose ``nonlinearity`` is q."""

    semigroup: object
    control_matrix: Optional[np.ndarray]
    mesh: TimeMesh
    beta: float
    history: Callable[[float], np.ndarray]
    nonlinearity: Optional[Callable] = None
    kernel: Optional[tuple] = None
    nonlocal_term: Optional[WeightedSampleNonlocal] = None
    constants: AssumptionConstants = field(default_factory=AssumptionConstants)

    def __post_init__(self):
        if self.control_matrix is not None:
            self.control_matrix = np.atleast_2d(np.asarray(self.control_matrix, float))
            if self.control_matrix.shape[0] != self.semigroup.dim:
                raise FieldError("control", "row count must match the state dimension")
        if self.beta <= 0:
            raise FieldError("beta", "delay length beta must be positive")
        if self.kernel is not None:
            coeffs = tuple(float(c) for c in self.kernel)
            if not coeffs or not np.all(np.isfinite(coeffs)):
                raise ValueError(f"kernel coeffs must be a nonempty list of finite "
                                 f"numbers, got {self.kernel!r}")
            self.kernel = coeffs
        if self.nonlocal_term is not None:
            if self.kernel is not None:
                raise ValueError("the integro variant carries no nonlocal coupling")
            for t in self.nonlocal_term.instants:
                if not 0.0 <= t <= self.mesh.b:
                    raise FieldError("instants",
                                     f"nonlocal sample instant {t} outside [0, b]")

    @property
    def dim(self) -> int:
        return self.semigroup.dim

    @property
    def control_dim(self) -> int:
        B = self.control_matrix
        return self.dim if B is None else B.shape[1]

    @property
    def impulse_lipschitz(self) -> tuple:
        """Lipschitz constants of the impulse, j = 1..n: on (theta_j, lam_j]
        ``theta * x`` scales by at most lam_j."""
        return self.mesh.lam[1:]

    @property
    def nonlocal_lipschitz(self) -> float:
        """Lipschitz constant of nu in the path sup norm, 0 without nu."""
        nu = self.nonlocal_term
        return nu.lipschitz if nu is not None else 0.0

    @property
    def variant(self) -> str:
        return "integro" if self.kernel is not None else "semilinear"

    @property
    def state_weight(self) -> float:
        return self.semigroup.weight

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(self.state_weight) * np.linalg.norm(v))

    def phi0(self) -> np.ndarray:
        return np.asarray(self.history(0.0), dtype=float)

    def impulse_path(self, j: int, times, x_minus: np.ndarray) -> np.ndarray:
        """Samples of impulse window j (j = 1..n) at ``times``: ``theta *
        x_minus`` at each time theta, x_minus = x(theta_j-), as one outer
        product.  A product that overflows is refused with a ``ValueError``,
        not left to numpy's overflow warning."""
        with np.errstate(over="ignore"):
            out = np.outer(times, x_minus)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"impulse {j}: theta * x(theta_j-) has non-finite entries")
        return out

    def sample_history(self, samples: int) -> np.ndarray:
        grid = np.linspace(-self.beta, 0.0, samples + 1)
        return np.array([self.history(float(s)) for s in grid], dtype=float)


@dataclass(frozen=True)
class Numerics:
    """Discretization and iteration knobs shared across the pipeline.

    ``time_step`` sets the step count of every mesh interval, shared by the
    solver grids and the oracle, with at least ``MIN_STEPS`` steps each.
    ``history_samples`` sets only the stored history grid on [-beta, 0]
    (that many steps); a forcing node with t <= beta reads x(t - beta) from
    it by interpolation.
    """

    time_step: float = 1e-3
    history_samples: int = 128
    tol: float = 1e-9
    max_iter: int = 200
    oracle_refine: int = 10
    seed: int = 1

    def __post_init__(self):
        for name in ("time_step", "tol"):
            if not getattr(self, name) > 0:
                raise FieldError(name, f"{name} must be positive")
        for name in ("history_samples", "max_iter", "oracle_refine"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"{name} must be at least 1")
        if self.seed < 0:
            raise FieldError("seed", f"seed must be nonnegative, got {self.seed}")

    def steps_for(self, length: float) -> int:
        return max(MIN_STEPS, int(np.ceil(length / self.time_step)))
