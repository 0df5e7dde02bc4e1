"""Contraction certificates for the steered fixed-point iteration.

The steered operator is a contraction in the path sup norm whenever a max
over window-wise branch constants stays below 1.  Each branch combines the
forcing's declared Lipschitz constant, the problem's computed ones of the
impulse and of nu, the window's Gramian floor and the computed bounds
K >= |T(t)| and M = |B| (:func:`operator_bounds`); the floors used
here are the *measured* smallest eigenvalues of the assembled Gramians, so
the certificate describes the discretization actually solved rather than an
abstract assumption.  A verdict of False never asserts divergence -- the
condition is sufficient only.

The control and solution bounds also need sup constants of the impulse and
of nu.  Both maps, ``theta * x`` and ``sum_i alpha_i x(t_i)``, are linear
and unbounded, so their sup constants exist only on a ball of paths: on
the ball of radius R (:func:`ball_radius`) they are lam_j R and
sum |alpha_i| R.  The radius is an assumption, not a bound: nothing proves
that the steered path stays inside it, so the report sets the solved
path's sup norm beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problems import Problem
from .solver import Sweep


def delay_ratio(b: float, beta: float) -> float:
    """The horizon-to-delay ratio b/beta that converts averaged-history
    distances into path sup distances."""
    if beta <= 0:
        raise ValueError("delay length beta must be positive")
    return b / beta


@dataclass(frozen=True)
class Certificate:
    """Computed constants of the sufficient condition and the verdict."""

    variant: str
    delay_ratio: float
    semigroup_bound: float
    control_op_norm: float
    gramian_floors: tuple
    contraction_constant: float
    binding_branch: str
    ball_radius: float
    solution_bound: float
    control_bounds: tuple
    kernel_mass: float = 0.0

    def __post_init__(self):
        for name in ("delay_ratio", "semigroup_bound", "control_op_norm",
                     "contraction_constant", "ball_radius", "solution_bound",
                     "kernel_mass"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def contracts(self) -> bool:
        return self.contraction_constant < 1.0


def contraction_constant(K: float, M: float, b: float, gamma: float,
                         nonlin_lipschitz: float, impulse_lips: Sequence[float],
                         nonlocal_lip: float, floors: Sequence[float]):
    """Contraction constant and its binding branch.

    Branches: for each impulse window j >= 1,
        (1 + M^2 K^2 b / floor_j) (K * L_f * gamma * b + K * L_imp_j);
    for the first window,
        (1 + M^2 K^2 b / floor_0) (K * L_f * gamma * b + K * C_nonlocal);
    plus the bare max impulse Lipschitz constant.  L_f = ``nonlin_lipschitz``
    is the forcing's Lipschitz constant: L_eta, or for the integro variant
    L_q times the kernel mass; L_imp_j = ``impulse_lips[j - 1]`` and
    C_nonlocal = ``nonlocal_lip``.
    """
    floors = list(floors)
    if len(floors) != len(impulse_lips) + 1:
        raise ValueError("one Gramian floor per control window required")
    branches = {}
    for j, (lnu, floor) in enumerate(zip(impulse_lips, floors[1:]), start=1):
        amp = 1.0 + (M * M * K * K * b) / floor
        branches[f"window_{j}"] = amp * (K * nonlin_lipschitz * gamma * b + K * lnu)
    amp0 = 1.0 + (M * M * K * K * b) / floors[0]
    branches["window_0"] = amp0 * (K * nonlin_lipschitz * gamma * b
                                   + K * nonlocal_lip)
    if impulse_lips:
        branches["impulse"] = max(impulse_lips)
    binding = max(branches, key=branches.get)
    return branches[binding], binding


def solution_bound(K: float, M: float, b: float, control_sup: float,
                   phi0_norm: float, forcing_sup: float = 0.0,
                   nonlocal_sup: float = 0.0,
                   impulse_sup: Sequence[float] = ()) -> float:
    """A-priori sup bound on the steered path from the control bound and the
    sup constants, which hold only on the ball of radius R: a bound only
    while the path stays inside R, as ``solve.within_ball`` checks."""
    base = M * K * control_sup * b + K * forcing_sup * b
    candidates = [base + K * (phi0_norm + nonlocal_sup)]
    for c in impulse_sup:
        candidates += [base + K * c, c]
    return max(candidates)


def operator_bounds(problem: Problem) -> tuple:
    """(K, M): K >= |T(t)| on [0, b], the semigroup's own bound, and M =
    |B|_2, exactly 1 for B = I without taking its SVD."""
    K = problem.semigroup.bound(problem.mesh.b)
    M = (1.0 if problem.identity_control
         else float(np.linalg.norm(problem.control_matrix, 2)))
    return K, M


def ball_radius(problem: Problem, targets) -> float:
    """R = 2 K max(1, |phi(0)|, max_j |z_j|), the radius of the ball of paths
    on which the sup constants of the impulse and of nu hold: twice the
    largest start or target the semigroup can carry.  An assumption on the
    path, not a bound on it."""
    K = problem.semigroup.bound(problem.mesh.b)
    scale = max([1.0, problem.norm(problem.phi0())]
                + [problem.norm(np.asarray(z, dtype=float)) for z in targets])
    return 2.0 * K * scale


def control_bound(problem: Problem, j: int, target: np.ndarray, floor: float,
                  radius: float, forcing_sup: float = 0.0) -> float:
    """Worst-case sup bound on the window-j control from K and M, the sup
    constant on the ball of ``radius`` of the map that sets the window's
    start (nu for j = 0, the impulse otherwise), the realized Gramian floor
    and the forcing's sup."""
    (K, M), b = operator_bounds(problem), problem.mesh.b
    zn = problem.norm(np.asarray(target, dtype=float))
    tail = K * forcing_sup * b
    if j == 0:
        head = K * (problem.norm(problem.phi0())
                    + problem.nonlocal_lipschitz * radius)
    else:
        head = K * (problem.impulse_lipschitz[j - 1] * radius)
    return (M * K / floor) * (zn + head + tail)


def certificate_for(sweep: Sweep, targets) -> Certificate:
    """Assemble the full certificate from a prepared sweep's problem and
    Gramian blocks and the window targets.  Both variants share one set of
    formulas: the integro forcing's constants are q's times the kernel mass
    max_i sum_k w_ik |kappa(t_i - s_k)| of the Volterra sum actually solved,
    read from the sweep's kernel.  The sweep has already refused every
    Gramian below its invertibility floor, so every floor is positive."""
    problem, blocks = sweep.problem, sweep.blocks
    c = problem.constants
    (K, M), b = operator_bounds(problem), problem.mesh.b
    gamma = delay_ratio(b, problem.beta)
    floors = tuple(blk.min_eig for blk in blocks)
    kb, gain = 0.0, 1.0
    if sweep.kern is not None:
        kb = gain = sweep.kern.kernel_mass
    lf, branch = contraction_constant(
        K, M, b, gamma, c.nonlin_lipschitz * gain, problem.impulse_lipschitz,
        problem.nonlocal_lipschitz, floors)
    forcing_sup = c.nonlin_sup * gain
    R = ball_radius(problem, targets)
    qs = tuple(control_bound(problem, j, targets[j], floors[j], R, forcing_sup)
               for j in range(len(blocks)))
    alpha = solution_bound(
        K, M, b, max(qs), problem.norm(problem.phi0()), forcing_sup=forcing_sup,
        nonlocal_sup=problem.nonlocal_lipschitz * R,
        impulse_sup=tuple(lam * R for lam in problem.impulse_lipschitz))
    return Certificate(variant=problem.variant, delay_ratio=gamma,
                       semigroup_bound=K, control_op_norm=M,
                       gramian_floors=floors, contraction_constant=lf,
                       binding_branch=branch, ball_radius=R,
                       solution_bound=alpha, control_bounds=qs, kernel_mass=kb)
