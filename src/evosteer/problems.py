"""Problem definitions: dynamics, forcing terms, declared constants, knobs.

A :class:`Problem` bundles everything the steering pipeline consumes: the
semigroup, the control operator, the delay/history data, the forcing terms
and the declared assumption constants.  Two variants exist:

* semilinear -- forcing ``eta(t, x(t - beta))`` plus an optional nonlocal
  initial coupling ``x(0) = phi(0) + nonlocal(x)``;
* integro -- forcing is the running convolution of a scalar kernel against a
  delayed integrand ``q(t, x(t - beta))``; no nonlocal coupling.

Both ``eta`` and ``q`` are called once per sample grid: ``fn(t, v)`` takes the
node times ``t`` of shape ``(n,)`` and the delayed states ``v[i] = x(t_i -
beta)`` of shape ``(n, dim)`` and returns the ``(n, dim)`` forcing rows.
The impulse maps take a whole window the same way: ``fn(t, x)`` takes the
sample times ``t`` of shape ``(n,)`` and the left limit ``x = x(theta_j-)``
of shape ``(dim,)`` and returns the ``(n, dim)`` samples of the window.

Only the constants of the supplied callables, which the code cannot
introspect, are declared; the bounds on T and on B are computed.  One pair of
constants describes whichever pointwise map the problem carries, ``eta`` or
the integrand ``q``; :mod:`evosteer.certificates` scales the latter by the
discrete kernel mass, so both variants share one set of formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import PiecewiseTrajectory, TimeMesh
from .semigroups import is_identity

# The fewest steps any mesh interval's sample grid takes.
MIN_STEPS = 8


class FieldError(ValueError):
    """A configuration field out of range; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class AssumptionConstants:
    """Declared Lipschitz/bound constants of the supplied callables.

    nonlin_* belong to eta, or to the kernel integrand q.  The per-impulse
    tuples are indexed j = 1..n.  Unused constants stay at 0.
    """

    nonlin_lipschitz: float = 0.0
    nonlin_sup: float = 0.0
    impulse_lipschitz: tuple = ()
    impulse_sup: tuple = ()
    nonlocal_lipschitz: float = 0.0
    nonlocal_sup: float = 0.0

    def __post_init__(self):
        for name in ("nonlin_lipschitz", "nonlin_sup", "nonlocal_lipschitz",
                     "nonlocal_sup"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if any(c < 0 for c in self.impulse_lipschitz + self.impulse_sup):
            raise ValueError("impulse constants must be nonnegative")


@dataclass(frozen=True)
class ConvolutionKernel:
    """Kernel pair for the integro-differential variant: scalar kernel
    ``kappa(s)``, called on an array of lags and returning kappa at each
    entry in an array of the same shape, and delayed integrand ``q(t, v)``,
    called on a whole grid with ``v[i] = x(t_i - beta)``."""

    kappa: Callable[[np.ndarray], np.ndarray]
    q: Callable


class WeightedSampleNonlocal:
    """Nonlocal initial coupling nu(x) = sum_j alpha_j * x(t_j).

    Lipschitz in the path sup norm with constant sum |alpha_j|.
    """

    def __init__(self, alphas: Sequence[float], instants: Sequence[float]):
        if len(alphas) != len(instants):
            raise ValueError("one weight per sample instant required")
        self.alphas = tuple(float(a) for a in alphas)
        self.instants = tuple(float(t) for t in instants)

    @property
    def lipschitz(self) -> float:
        return sum(abs(a) for a in self.alphas)

    def __call__(self, traj: PiecewiseTrajectory) -> np.ndarray:
        for t in self.instants:
            if not 0.0 <= t <= traj.mesh.b:
                raise ValueError(f"nonlocal sample instant {t} outside [0, b]")
        out = np.zeros(traj.dim)
        for a, t in zip(self.alphas, self.instants):
            out += a * traj.value(t)
        return out


@dataclass
class Problem:
    """Full problem tuple consumed by the Gramian/steering/solver pipeline;
    the control space is weighted like the state space, so B* is B^T."""

    semigroup: object
    control_matrix: np.ndarray
    mesh: TimeMesh
    beta: float
    history: Callable[[float], np.ndarray]
    nonlinearity: Optional[Callable] = None
    kernel: Optional[ConvolutionKernel] = None
    impulses: tuple = ()
    nonlocal_term: Optional[Callable] = None
    constants: AssumptionConstants = field(default_factory=AssumptionConstants)

    def __post_init__(self):
        self.control_matrix = np.atleast_2d(np.asarray(self.control_matrix, dtype=float))
        if self.control_matrix.shape[0] != self.semigroup.dim:
            raise ValueError("control matrix row count must match the state dimension")
        if self.beta <= 0:
            raise ValueError("delay length beta must be positive")
        if len(self.impulses) != self.mesh.n_impulses:
            raise ValueError("one impulse map per impulse window required")
        if self.kernel is not None and self.nonlinearity is not None:
            raise ValueError("kernel and pointwise nonlinearity are exclusive variants")
        if self.kernel is not None and self.nonlocal_term is not None:
            raise ValueError("the integro variant carries no nonlocal coupling")

    @property
    def dim(self) -> int:
        return self.semigroup.dim

    @property
    def control_dim(self) -> int:
        return self.control_matrix.shape[1]

    @property
    def variant(self) -> str:
        return "integro" if self.kernel is not None else "semilinear"

    @property
    def state_weight(self) -> float:
        return self.semigroup.weight

    @property
    def identity_control(self) -> bool:
        """Whether B = I, which makes B and B* the identity: the solve then
        skips their products, which would only copy.  Read from the current
        B, so a reassigned B counts, and tested without forming one."""
        return is_identity(self.control_matrix)

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(self.state_weight) * np.linalg.norm(v))

    def control_adjoint(self) -> np.ndarray:
        """Matrix of B*: B^T, state and control being weighted alike."""
        return self.control_matrix.T

    def phi0(self) -> np.ndarray:
        return np.asarray(self.history(0.0), dtype=float)

    def impulse_path(self, j: int, times, x_minus: np.ndarray) -> np.ndarray:
        """Samples of impulse window j (j = 1..n) at ``times``: the impulse
        map applied to the left limit x(theta_j-) = ``x_minus``, in one call."""
        times = np.asarray(times, dtype=float)
        out = np.asarray(self.impulses[j - 1](times, x_minus), dtype=float)
        if out.shape != (len(times), self.dim):
            raise ValueError(f"impulse map {j} returned shape {out.shape} for "
                             f"{len(times)} times, expected {(len(times), self.dim)}")
        if not np.all(np.isfinite(out)):
            raise ValueError(f"impulse map {j} returned non-finite samples")
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
    delta_floor: float = 1e-8
    oracle_refine: int = 10
    target_tol: float = 1e-6
    seed: int = 1

    def __post_init__(self):
        for name in ("time_step", "tol", "delta_floor", "target_tol"):
            if not getattr(self, name) > 0:
                raise FieldError(name, f"{name} must be positive")
        for name in ("history_samples", "max_iter", "oracle_refine"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"{name} must be at least 1")
        if self.seed < 0:
            raise FieldError("seed", f"seed must be nonnegative, got {self.seed}")

    def steps_for(self, length: float) -> int:
        return max(MIN_STEPS, int(np.ceil(length / self.time_step)))
