"""Controllability Gramians and minimum-energy steering on control windows.

For each control window (start, end] the Gramian

    G = int_start^end  T(end - tau) B B* T(end - tau)*  d tau

is assembled by composite trapezoid on the window grid, symmetrized, and
factorized once.  The synthesized feedback on the window is

    u(tau) = B* T(end - tau)* G^{-1} r,

where r is the window's steering residual: the target minus the free
evolution of the window's initial data minus the accumulated forcing
convolution.  Because the residual integral, the Gramian and the solution
sweep share one tau-grid, plugging u back into the discrete solution
operator reproduces the target at the window end to solver round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import PiecewiseTrajectory
from .discretize import WindowGrid, build_window_grids
from .problems import Numerics, Problem


class NotInvertibleError(Exception):
    """A window Gramian fell below the invertibility floor.

    Carries the measured smallest eigenvalue so the caller can refine the
    grid, shrink the window, or add ridge regularization.
    """

    def __init__(self, window: int, min_eig: float, floor: float):
        self.window = window
        self.min_eig = min_eig
        self.floor = floor
        super().__init__(
            f"Gramian of control window {window} is numerically singular: "
            f"min eigenvalue {min_eig:.3e} < floor {floor:.3e}")


@dataclass
class GramianBlock:
    """One window's assembled Gramian with its conditioning diagnostics.

    ``min_eig`` is measured on the raw symmetrized matrix; ``ridge`` (if any)
    is added to the diagonal of the solve matrix and reported, never silent.
    ``floor_used`` = min_eig + ridge is the realized invertibility floor that
    certificates consume as the per-window delta.
    """

    index: int
    matrix: np.ndarray
    min_eig: float
    ridge: float = 0.0
    delta_floor: float = 1e-8

    def __post_init__(self):
        self._factor = None

    @property
    def floor_used(self) -> float:
        return self.min_eig + self.ridge

    @property
    def invertible(self) -> bool:
        return self.floor_used >= self.delta_floor

    def solve_matrix(self) -> np.ndarray:
        if self.ridge:
            return self.matrix + self.ridge * np.eye(self.matrix.shape[0])
        return self.matrix

    def factor(self):
        if self._factor is None:
            self._factor = cho_factor(self.solve_matrix(), lower=True)
        return self._factor


def assemble_from_grid(B: np.ndarray, scale: float, grid: WindowGrid,
                       numerics: Optional[Numerics] = None) -> GramianBlock:
    """Gramian of one control window on its shared tau-grid; ``scale`` is the
    state-to-control weight ratio that makes B* the adjoint of B."""
    numerics = numerics or Numerics()
    w = grid.weights
    G = np.zeros((B.shape[0], B.shape[0]))
    for g in range(grid.m + 1):
        M = grid.table.apply_to_matrix(g, B)
        G += w[grid.m - g] * (M @ M.T)
    G = 0.5 * scale * (G + G.T)
    min_eig = float(np.linalg.eigvalsh(G)[0])
    return GramianBlock(index=grid.index, matrix=G, min_eig=min_eig,
                        ridge=numerics.ridge_for(grid.index),
                        delta_floor=numerics.delta_floor)


def assemble_gramian(semigroup, control_matrix, window, quad_steps: int,
                     index: int = 0, control_weight: Optional[float] = None,
                     numerics: Optional[Numerics] = None) -> GramianBlock:
    """Assemble the Gramian of one window (start, end] with ``quad_steps``
    composite-trapezoid steps.  Convenience wrapper over the grid path."""
    start, end = float(window[0]), float(window[1])
    if end <= start:
        raise ValueError(f"degenerate window ({start}, {end}]")
    if quad_steps < 2:
        raise ValueError("quad_steps must be at least 2")
    times = np.linspace(start, end, quad_steps + 1)
    table = semigroup.lag_table((end - start) / quad_steps, quad_steps)
    grid = WindowGrid(index=index, start=start, end=end, times=times, table=table)
    cw = control_weight if control_weight is not None else semigroup.weight
    B = np.atleast_2d(np.asarray(control_matrix, dtype=float))
    return assemble_from_grid(B, semigroup.weight / cw, grid, numerics)


def gramian_solve(block: GramianBlock, v: np.ndarray) -> np.ndarray:
    """Solve G w = v through the symmetric factorization, with iterative
    refinement so the residual stays below 1e-10 relative."""
    if not block.invertible:
        raise NotInvertibleError(block.index, block.min_eig, block.delta_floor)
    A = block.solve_matrix()
    fac = block.factor()
    w = cho_solve(fac, v)
    for _ in range(3):
        r = v - A @ w
        if np.linalg.norm(r) <= 1e-12 * max(np.linalg.norm(v), 1e-300):
            break
        w = w + cho_solve(fac, r)
    return w


def window_start(problem: Problem, traj: PiecewiseTrajectory, j: int) -> np.ndarray:
    """Initial state of control window j under the iterate ``traj``:
    phi(0) + nu(x) on the first window (the integro variant carries no nu),
    the impulse value impulse_j(lam_j, x(theta_j-)) on later ones."""
    if j == 0:
        x0 = problem.phi0().copy()
        if problem.nonlocal_term is not None:
            x0 = x0 + problem.nonlocal_term(traj)
        return x0
    x_minus = traj.left_value_at_theta(j)
    return np.asarray(problem.impulses[j - 1](problem.mesh.lam[j], x_minus),
                      dtype=float)


def steering_residual(problem: Problem, j: int, traj: PiecewiseTrajectory,
                      target: np.ndarray, grid: WindowGrid,
                      forcing: np.ndarray) -> np.ndarray:
    """Residual of window j: the uncontrolled terminal defect

        r = target - T(end - start) x0 - int T(end - tau) f(tau) dtau,

    with x0 the window start and f the forcing sampled on the window grid
    (eta(tau, x_tau) for the semilinear variant, the running kernel
    convolution for the integro one).
    """
    free = grid.table.apply(grid.m, window_start(problem, traj, j))
    lags = grid.m - np.arange(grid.m + 1)
    integral = grid.table.lagged_weighted_sum(lags, forcing, grid.weights)
    return np.asarray(target, dtype=float) - free - integral


# One residual serves both variants; the integro name stays as an alias
# because bench/spans.py probes it by name.
steering_residual_integro = steering_residual


@dataclass
class ControlSignal:
    """The synthesized control: samples per control window, identically zero
    on impulse windows, plus the solved Gramian preimages that define the
    continuous feedback law."""

    problem: Problem
    window_times: list
    samples: list
    preimages: list

    def sup_norms(self) -> list:
        return [max(self.problem.control_norm(u) for u in U) for U in self.samples]

    def value(self, t: float) -> np.ndarray:
        """Continuous evaluation; zero on impulse windows and at t = 0."""
        for j, (a, end) in enumerate(self.problem.mesh.control_windows()):
            if a < t <= end:
                adj = self.problem.semigroup.apply_adjoint(end - t, self.preimages[j])
                return self.problem.control_adjoint() @ adj
        return np.zeros(self.problem.control_dim)


def synthesize_control(problem: Problem, grids: list, blocks: list,
                       residuals: list) -> ControlSignal:
    """Sampled feedback on every control window from the solved residuals."""
    B_adj = problem.control_adjoint()
    times, samples, preimages = [], [], []
    for grid, block, r in zip(grids, blocks, residuals):
        y = gramian_solve(block, r)
        adj = grid.table.adjoint_evolve(y)          # rows T(g*delta)* y
        U = adj[grid.m - np.arange(grid.m + 1)] @ B_adj.T
        times.append(grid.times)
        samples.append(U)
        preimages.append(y)
    return ControlSignal(problem=problem, window_times=times,
                         samples=samples, preimages=preimages)


def control_bound(problem: Problem, j: int, target: np.ndarray,
                  floor: float) -> float:
    """Worst-case sup bound on the window-j control from the declared
    constants and the realized Gramian floor."""
    c = problem.constants
    K, M, b = c.semigroup_bound, c.control_op_norm, problem.mesh.b
    zn = problem.norm(np.asarray(target, dtype=float))
    if problem.variant == "integro":
        kb = problem.kernel.kappa_mass(b)
        tail = K * c.kernel_nonlin_sup * b * kb
    else:
        tail = K * c.nonlin_sup * b
    if j == 0:
        if problem.variant == "integro":
            head = K * problem.norm(problem.phi0())
        else:
            head = K * (problem.norm(problem.phi0()) + c.nonlocal_sup)
    else:
        head = K * c.impulse_sup[j - 1]
    return (M * K / floor) * (zn + head + tail)


def assemble_all(problem: Problem, numerics: Optional[Numerics] = None):
    """Window grids plus their Gramian blocks, the pipeline's first stage."""
    numerics = numerics or Numerics()
    grids = build_window_grids(problem, numerics)
    scale = problem.state_weight / problem.control_weight
    blocks = [assemble_from_grid(problem.control_matrix, scale, g, numerics)
              for g in grids]
    return grids, blocks
