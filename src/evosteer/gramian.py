"""Controllability Gramians and minimum-energy steering on control windows.

For each control window (start, end] the Gramian

    G = int_start^end  T(end - tau) B B* T(end - tau)*  d tau

is assembled by composite trapezoid on the window grid, symmetrized, and
eigendecomposed once, for its floor and its solve.  The feedback on it is

    u(tau) = B* T(end - tau)* G^{-1} r,

where r is the window's steering residual: the target minus the free
evolution of the window's initial data minus the accumulated forcing
convolution.  Because the residual integral, the Gramian and the solution
sweep share one tau-grid, plugging u back into the discrete solution
operator reproduces the target at the window end to solver round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    The symmetric ``matrix`` is decomposed once, by ``eigh`` at construction;
    ``min_eig`` is its smallest eigenvalue.  ``ridge`` (if any) shifts every
    eigenvalue of the solve and is reported, never silent.  ``floor_used`` =
    min_eig + ridge is the realized invertibility floor that certificates
    consume as the per-window delta.
    """

    index: int
    matrix: np.ndarray
    delta_floor: float
    ridge: float = 0.0

    def __post_init__(self):
        self.eigvals, self.eigvecs = np.linalg.eigh(self.matrix)
        self.min_eig = float(self.eigvals[0])

    @property
    def floor_used(self) -> float:
        return self.min_eig + self.ridge

    @property
    def invertible(self) -> bool:
        return self.floor_used >= self.delta_floor


def assemble_from_grid(B: np.ndarray, scale: float, grid: WindowGrid,
                       numerics: Numerics) -> GramianBlock:
    """Gramian of one control window on its shared tau-grid; ``scale`` is the
    state-to-control weight ratio that makes B* the adjoint of B."""
    G = grid.table.gramian(B, grid.weights[::-1])
    G = 0.5 * scale * (G + G.T)
    return GramianBlock(index=grid.index, matrix=G,
                        ridge=numerics.ridge_for(grid.index),
                        delta_floor=numerics.delta_floor)


def assemble_gramian(semigroup, control_matrix, window,
                     quad_steps: int) -> GramianBlock:
    """Assemble the Gramian of one window (start, end] with ``quad_steps``
    composite-trapezoid steps, the control space weighted like the state
    space and the default numerics.  Convenience wrapper over the grid
    path."""
    start, end = float(window[0]), float(window[1])
    if end <= start:
        raise ValueError(f"degenerate window ({start}, {end}]")
    if quad_steps < 2:
        raise ValueError("quad_steps must be at least 2")
    times = np.linspace(start, end, quad_steps + 1)
    table = semigroup.lag_table((end - start) / quad_steps, quad_steps)
    grid = WindowGrid(index=0, start=start, end=end, times=times, table=table)
    B = np.atleast_2d(np.asarray(control_matrix, dtype=float))
    return assemble_from_grid(B, 1.0, grid, Numerics())


def gramian_solve(block: GramianBlock, v: np.ndarray) -> np.ndarray:
    """Solve (G + ridge I) w = v as V ((V^T r) / (lam + ridge)) from the
    block's eigendecomposition, refined until the residual r is at most
    1e-12 relative to v, or after 3 refinement steps."""
    if not block.invertible:
        raise NotInvertibleError(block.index, block.min_eig, block.delta_floor)
    V, lam = block.eigvecs, block.eigvals + block.ridge
    w, r = 0.0, v
    for _ in range(4):
        w = w + V @ ((V.T @ r) / lam)
        r = v - (block.matrix @ w + block.ridge * w)
        if np.linalg.norm(r) <= 1e-12 * max(np.linalg.norm(v), 1e-300):
            break
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
    return problem.impulse_path(j, [problem.mesh.lam[j]], x_minus)[0]


def forcing_integral(grid: WindowGrid, forcing: np.ndarray) -> np.ndarray:
    """int_start^end T(end - tau) f(tau) dtau by trapezoid on the window
    grid, with f the forcing sampled on it (eta(tau, x_tau) for the
    semilinear variant, the running kernel convolution for the integro one).
    """
    lags = grid.m - np.arange(grid.m + 1)
    return grid.table.lagged_weighted_sum(lags, forcing, grid.weights)


def steering_residual(start: np.ndarray, target: np.ndarray, grid: WindowGrid,
                      integral: np.ndarray) -> np.ndarray:
    """Residual of a control window: the uncontrolled terminal defect

        r = target - T(end - start) x0 - int T(end - tau) f(tau) dtau,

    with x0 = ``start`` the window start (see :func:`window_start`) and the
    forcing's ``integral`` from :func:`forcing_integral`.
    """
    free = grid.table.apply(grid.m, start)
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
        """Largest weighted control norm per window, from batched row dots."""
        scale = np.sqrt(self.problem.control_weight)
        return [float(scale * np.sqrt((U[:, None, :] @ U[:, :, None]).max()))
                for U in self.samples]

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
        U = adj[grid.m - np.arange(grid.m + 1)]
        if not problem.identity_control:
            U = U @ B_adj.T
        times.append(grid.times)
        samples.append(U)
        preimages.append(y)
    return ControlSignal(problem=problem, window_times=times,
                         samples=samples, preimages=preimages)


def assemble_all(problem: Problem, numerics: Numerics):
    """Window grids plus their Gramian blocks, the pipeline's first stage."""
    grids = build_window_grids(problem, numerics)
    scale = problem.state_weight / problem.control_weight
    blocks = [assemble_from_grid(problem.control_matrix, scale, g, numerics)
              for g in grids]
    return grids, blocks
