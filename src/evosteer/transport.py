"""Builders for the transport benchmark: advection on [0, pi] with the
left-shift semigroup, distributed control at every grid node, and the
time-scaled impulse x -> theta * x on each impulse window.

Case 1 adds a sine nonlinearity driven by the state one delay in the past
and a weighted-sample nonlocal initial coupling.  Case 2 takes a saturating
pointwise map q of the delayed state, convolved with the kernel kappa(s) =
s, and drops the nonlocal coupling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import FieldError, TimeMesh
from .problems import AssumptionConstants, Problem, WeightedSampleNonlocal
from .semigroups import ShiftSemigroup

# The presets' mesh: one impulse on (0.3, 0.5] inside a unit horizon.
MESH = TimeMesh((0.0, 0.3, 0.5, 1.0))


def smooth_targets(problem: Problem, seed: int) -> list:
    """One smooth random target per control window of a transport problem,
    drawn from ``seed`` (the config loader passes ``[numerics] seed``)."""
    rng = np.random.default_rng(seed)
    return [smooth_unit_field(problem.dim, rng)
            for _ in range(problem.mesh.n_impulses + 1)]


def smooth_unit_field(N: int, rng: np.random.Generator) -> np.ndarray:
    """Random combination of the first four sine modes, normalized to unit
    norm in the grid-weighted L2 inner product.  Vanishes at the outflow
    boundary."""
    nodes = np.arange(N) * np.pi / N
    coeff = rng.normal(size=4)
    field_vals = sum(c * np.sin((k + 1) * nodes) for k, c in enumerate(coeff))
    h = np.pi / N
    return field_vals / (np.sqrt(h) * np.linalg.norm(field_vals))


def _problem(N: int, beta: float, mesh: TimeMesh, *, nonlin_lipschitz: float,
             nonlin_sup: float, nonlinearity=None, kernel=None,
             nonlocal_term: Optional[WeightedSampleNonlocal] = None) -> Problem:
    """The transport problem both cases share -- the shift semigroup on N
    nodes, B = I, the history phi(theta) = (1 + theta) sin(x) and the
    impulse theta * x on each impulse window -- with a case's pointwise
    map, its kernel, its nonlocal term and the map's constants."""
    semigroup = ShiftSemigroup(N)
    profile = np.sin(np.arange(N) * np.pi / N)
    constants = AssumptionConstants(nonlin_lipschitz=nonlin_lipschitz,
                                    nonlin_sup=nonlin_sup)
    return Problem(semigroup=semigroup, control_matrix=np.eye(N), mesh=mesh,
                   beta=beta, history=lambda theta: profile * (1.0 + theta),
                   nonlinearity=nonlinearity, kernel=kernel,
                   nonlocal_term=nonlocal_term, constants=constants)


def build_case1(*, N: int = 64, beta: float = 1.0, mesh: TimeMesh = MESH,
                k0: float = 0.05, alphas: tuple = (0.1,),
                instants: tuple = (0.2,)) -> Problem:
    """Sine nonlinearity of the delayed state plus weighted-sample nonlocal
    coupling.

    The forcing reads the state exactly one delay back, x(t - beta), applies
    sin node-wise and scales by the gain k0, so |k0| is both its Lipschitz
    constant and (node-wise) its uniform bound, for either sign of k0.
    Empty ``alphas`` and ``instants`` drop the nonlocal coupling.
    """
    def eta(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        return k0 * np.sin(v)

    nonloc = (WeightedSampleNonlocal(alphas, instants)
              if alphas or instants else None)
    return _problem(N, beta, mesh, nonlin_lipschitz=abs(k0), nonlin_sup=abs(k0),
                    nonlinearity=eta, nonlocal_term=nonloc)


def build_case2(*, N: int = 64, beta: float = 1.0, mesh: TimeMesh = MESH,
                a: float = 0.0) -> Problem:
    """Saturating integrand q convolved with the kernel kappa(s) = s, the
    polynomial coefficients (0, 1).

    q(t, v) = exp(-t) |v| / ((a + 2 exp(t)) (1 + 2|v|)) node-wise, v =
    x(t - beta) the state one delay back; Lipschitz constant 1/(a+2), uniform
    bound below 1.  Refuses a <= -1, where a + 2 exp(t) may vanish.
    """
    if not a > -1.0:
        raise FieldError("a", "saturation parameter a must exceed -1")

    def q(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        v = np.abs(v)
        return (np.exp(-t)[:, None] * v
                / ((a + 2.0 * np.exp(t))[:, None] * (1.0 + 2.0 * v)))

    return _problem(N, beta, mesh, nonlin_lipschitz=1.0 / (a + 2.0), nonlin_sup=1.0,
                    nonlinearity=q, kernel=(0.0, 1.0))
