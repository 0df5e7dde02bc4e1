"""Problem definitions: dynamics, forcing terms, declared constants, knobs.

A :class:`Problem` bundles everything the steering pipeline consumes: the
semigroup, the control operator, the delay/history data, the forcing terms
and the declared assumption constants.  Two variants exist:

* semilinear -- forcing ``eta(theta, segment)`` plus an optional nonlocal
  initial coupling ``x(0) = phi(0) + nonlocal(x)``;
* integro -- forcing is the running convolution of a scalar kernel against a
  history-dependent integrand ``q``; no nonlocal coupling.

Lipschitz and bound constants are properties of the supplied callables that
the code cannot introspect, so they are declared up front; an empirical
sampler in :mod:`evosteer.certificates` can sanity-check them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import PiecewiseTrajectory, TimeMesh


@dataclass(frozen=True)
class AssumptionConstants:
    """Declared norm/Lipschitz constants of the problem data.

    semigroup_bound (>= 1) dominates |T(theta)| on [0, b]; control_op_norm is
    |B|.  The per-impulse tuples are indexed j = 1..n.  Unused constants stay
    at 0.
    """

    semigroup_bound: float = 1.0
    control_op_norm: float = 1.0
    nonlin_lipschitz: float = 0.0
    nonlin_sup: float = 0.0
    impulse_lipschitz: tuple = ()
    impulse_sup: tuple = ()
    nonlocal_lipschitz: float = 0.0
    nonlocal_sup: float = 0.0
    kernel_nonlin_lipschitz: float = 0.0
    kernel_nonlin_sup: float = 0.0

    def __post_init__(self):
        if self.semigroup_bound < 1.0:
            raise ValueError("semigroup bound must be >= 1")
        for name in ("control_op_norm", "nonlin_lipschitz", "nonlin_sup",
                     "nonlocal_lipschitz", "nonlocal_sup",
                     "kernel_nonlin_lipschitz", "kernel_nonlin_sup"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if any(c < 0 for c in self.impulse_lipschitz + self.impulse_sup):
            raise ValueError("impulse constants must be nonnegative")


@dataclass(frozen=True)
class ConvolutionKernel:
    """Kernel pair for the integro-differential variant: scalar kernel
    ``kappa(s)`` and history-dependent integrand ``q(theta, segment)``."""

    kappa: Callable[[float], float]
    q: Callable

    def kappa_mass(self, b: float, steps: int = 2048) -> float:
        """int_0^b |kappa(s)| ds by composite trapezoid."""
        s = np.linspace(0.0, b, steps + 1)
        vals = np.abs([self.kappa(float(x)) for x in s])
        return float(np.trapezoid(vals, dx=b / steps))


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
            if t < 0.0 or t > traj.mesh.b:
                raise ValueError(f"nonlocal sample instant {t} outside [0, b]")
        out = np.zeros(traj.dim)
        for a, t in zip(self.alphas, self.instants):
            out += a * traj.value(t)
        return out


@dataclass
class Problem:
    """Full problem tuple consumed by the Gramian/steering/solver pipeline."""

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
    control_weight: Optional[float] = None

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
        if self.control_weight is None:
            self.control_weight = self.semigroup.weight

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

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(self.state_weight) * np.linalg.norm(v))

    def control_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.control_weight) * np.linalg.norm(u))

    def control_adjoint(self) -> np.ndarray:
        """Matrix of B* under the scaled inner products on state and control."""
        return (self.state_weight / self.control_weight) * self.control_matrix.T

    def phi0(self) -> np.ndarray:
        return np.asarray(self.history(0.0), dtype=float)

    def sample_history(self, samples: int) -> np.ndarray:
        grid = np.linspace(-self.beta, 0.0, samples + 1)
        return np.array([self.history(float(s)) for s in grid], dtype=float)


@dataclass(frozen=True)
class Numerics:
    """Discretization and iteration knobs shared across the pipeline.

    ``time_step`` sets the step count of every mesh interval, shared by the
    solver grids and the oracle, with at least ``min_steps`` steps each.
    """

    time_step: float = 1e-3
    history_samples: int = 128
    tol: float = 1e-9
    max_iter: int = 200
    delta_floor: float = 1e-8
    ridge: object = 0.0
    min_steps: int = 8
    oracle_refine: int = 10
    target_tol: float = 1e-6
    seed: int = 1

    def __post_init__(self):
        for name in ("time_step", "tol", "delta_floor", "target_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("history_samples", "max_iter", "min_steps", "oracle_refine"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def steps_for(self, length: float) -> int:
        return max(self.min_steps, int(np.ceil(length / self.time_step)))

    def ridge_for(self, window: int) -> float:
        if np.isscalar(self.ridge):
            return float(self.ridge)
        return float(self.ridge[window])
