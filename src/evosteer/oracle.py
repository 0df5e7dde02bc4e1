"""Independent reference integrator for problems linear in the state.

Classical fixed-step RK4 on x' = A x + B u(t) across the control windows,
with the impulse override applied on impulse windows, at a configurable
multiple of the solver's resolution.  The feedback law
u(t) = B* T(end - t)* y is evaluated by co-integrating the adjoint state
w(t) = T(end - t)* y, which satisfies w' = -A^T w, so the oracle never
reuses the solver's quadrature or lag tables.  Used as ground truth when
validating the steering pipeline.

The augmented system z' = M z is linear and autonomous, so one RK4 step of
size h is exactly z <- P z with P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24,
the degree-4 Taylor polynomial of exp(hM).  The integrator is therefore
advanced by its exact one-step matrix: the state at solver node i of a
window is (P^refine)^i z_0, all of a window's states formed at once by
batched doubling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PiecewiseTrajectory
from .discretize import interval_times
from .gramian import ControlSignal
from .problems import Numerics, Problem
from .semigroups import expm, powers


@dataclass
class OracleResult:
    trajectory: PiecewiseTrajectory
    defects: list


def check_linear(problem: Problem) -> None:
    """Refuse, with a ``ValueError`` that says why, a problem the oracle
    cannot integrate: one with a pointwise map (eta or q) or a nonlocal
    coupling, or whose semigroup exposes no dense generator."""
    if problem.nonlinearity is not None:
        raise ValueError("oracle requires a problem linear in the state")
    if problem.nonlocal_term is not None:
        raise ValueError("oracle does not support nonlocal initial coupling")
    if not hasattr(problem.semigroup, "A"):
        raise ValueError("oracle needs a dense generator matrix")


def oracle_linear(problem: Problem, control: ControlSignal, targets,
                  numerics: Numerics) -> OracleResult:
    """Reference trajectory for a linear problem driven by ``control``;
    refuses what :func:`check_linear` refuses."""
    check_linear(problem)
    A = problem.semigroup.A
    B = problem.control_matrix
    d = problem.dim
    refine = numerics.oracle_refine

    hist = problem.sample_history(numerics.history_samples)
    seg_times = interval_times(problem.mesh, numerics)
    seg_values = []
    x = problem.phi0().copy()
    defects = []
    for times, (a, end, kind, j) in zip(seg_times, problem.mesh.intervals()):
        m = len(times) - 1
        if kind == "impulse":
            vals = problem.impulse_path(j, times, x)
            seg_values.append(vals)
            x = vals[-1].copy()
            continue
        y = control.preimages[j]
        # augmented linear system: x' = A x + (B B*) w, w' = -A^T w
        M = np.zeros((2 * d, 2 * d))
        M[:d, :d] = A
        M[:d, d:] = np.eye(d) if B is None else B @ B.T
        M[d:, d:] = -A.T
        z = np.concatenate([x, expm(A.T * (end - a)) @ y])
        hM = (end - a) / (m * refine) * M
        eye = np.eye(2 * d)
        # the RK4 step matrix sum_{k<=4} (hM)^k / k!, in Horner form
        P = eye + hM @ (eye + hM @ (eye + hM @ (eye + hM / 4.0) / 3.0) / 2.0)
        step = np.linalg.matrix_power(P, refine)
        vals = powers(step, m, z[:, None])[:, :d, 0]
        seg_values.append(vals)
        x = vals[-1].copy()
        defects.append(problem.norm(x - np.asarray(targets[j], dtype=float)))
    traj = PiecewiseTrajectory(problem.mesh, problem.beta, hist,
                               seg_times, seg_values,
                               weight=problem.state_weight)
    return OracleResult(trajectory=traj, defects=defects)
