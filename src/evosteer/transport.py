"""Builders for the transport benchmark: advection on [0, pi] with the
left-shift semigroup, distributed control at every grid node, and the
time-scaled impulse x -> theta * x on each impulse window.

Case 1 adds a sine nonlinearity driven by the state one delay in the past
and a weighted-sample nonlocal initial coupling.  Case 2 replaces the
nonlinearity with the running convolution of kappa(s) = s against a
saturating integrand and drops the nonlocal coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TimeMesh
from .problems import (AssumptionConstants, ConvolutionKernel, FieldError,
                       Problem, WeightedSampleNonlocal)
from .semigroups import ShiftSemigroup


@dataclass
class TransportConfig:
    """Desk-scale configuration of the transport benchmark: Case 1 reads
    ``k0``, ``alphas`` and ``instants``, Case 2 ``a``, and both the rest.
    Defaults keep one impulse on (0.3, 0.5] inside a unit horizon with unit
    delay.  Targets default to smooth random unit-norm fields drawn from
    ``seed``, which the config loader sets from ``[numerics] seed``."""

    N: int = 64
    beta: float = 1.0
    mesh: TimeMesh = TimeMesh((0.0, 0.3, 0.5, 1.0))
    k0: float = 0.05
    a: float = 0.0
    alphas: tuple = (0.1,)
    instants: tuple = (0.2,)
    targets: Optional[list] = None
    seed: int = 7

    def __post_init__(self):
        for field, bad, message in (
                ("N", self.N < 4, "spatial grid size N must be at least 4"),
                ("a", self.a <= -1.0, "saturation parameter a must exceed -1"),
                ("beta", self.beta <= 0, "delay length beta must be positive"),
                ("seed", self.seed < 0, "target seed must be nonnegative"),
                ("alphas", len(self.alphas) != len(self.instants),
                 "one nonlocal weight per sample instant required"),
                ("instants", not all(0.0 <= t <= self.mesh.b for t in self.instants),
                 "nonlocal sample instants must lie in [0, b]")):
            if bad:
                raise FieldError(field, message)

    def resolved_targets(self) -> list:
        if self.targets is not None:
            return list(self.targets)
        rng = np.random.default_rng(self.seed)
        return [smooth_unit_field(self.N, rng)
                for _ in range(self.mesh.n_impulses + 1)]


def smooth_unit_field(N: int, rng: np.random.Generator) -> np.ndarray:
    """Random combination of the first four sine modes, normalized to unit
    norm in the grid-weighted L2 inner product.  Vanishes at the outflow
    boundary."""
    nodes = np.arange(N) * np.pi / N
    coeff = rng.normal(size=4)
    field_vals = sum(c * np.sin((k + 1) * nodes) for k, c in enumerate(coeff))
    h = np.pi / N
    return field_vals / (np.sqrt(h) * np.linalg.norm(field_vals))


def _problem(cfg: TransportConfig, *, nonlin_lipschitz: float,
             nonlin_sup: float, nonlinearity=None, kernel=None,
             nonlocal_term: Optional[WeightedSampleNonlocal] = None) -> Problem:
    """The transport problem both cases share -- the shift semigroup,
    B = I, the history phi(theta) = (1 + theta) sin(x) and the impulse
    x -> theta * x on each impulse window -- with a case's forcing, its
    nonlocal term and the forcing's constants."""
    profile = np.sin(np.arange(cfg.N) * np.pi / cfg.N)
    mesh, n = cfg.mesh, cfg.mesh.n_impulses
    lip = nonlocal_term.lipschitz if nonlocal_term is not None else 0.0
    constants = AssumptionConstants(
        nonlin_lipschitz=nonlin_lipschitz,
        nonlin_sup=nonlin_sup,
        impulse_lipschitz=tuple(mesh.b for _ in range(n)),
        # theta * x on an impulse window is bounded only on bounded sets;
        # lam_j * 2 covers paths steered to unit-norm targets at desk scale.
        impulse_sup=tuple(2.0 * mesh.lam[j] for j in range(1, n + 1)),
        nonlocal_lipschitz=lip,
        # weighted sampling is bounded only on bounded sets; 4x the weight
        # sum covers paths steered between unit-norm targets at desk scale
        nonlocal_sup=4.0 * lip,
    )
    # np.outer(times, x) has the rows theta_i * x: the map on a whole window
    return Problem(semigroup=ShiftSemigroup(cfg.N), control_matrix=np.eye(cfg.N),
                   mesh=mesh, beta=cfg.beta,
                   history=lambda theta: profile * (1.0 + theta),
                   nonlinearity=nonlinearity, kernel=kernel,
                   impulses=tuple(np.outer for _ in range(n)),
                   nonlocal_term=nonlocal_term, constants=constants)


def build_case1(cfg: TransportConfig) -> Problem:
    """Sine nonlinearity of the delayed state plus weighted-sample nonlocal
    coupling.

    The forcing reads the state exactly one delay back, x(t - beta), applies
    sin node-wise and scales by the gain k0, so |k0| is both its Lipschitz
    constant and (node-wise) its uniform bound, for either sign of k0.
    """
    k0 = cfg.k0

    def eta(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        return k0 * np.sin(v)

    nonloc = (WeightedSampleNonlocal(cfg.alphas, cfg.instants)
              if cfg.alphas else None)
    return _problem(cfg, nonlin_lipschitz=abs(k0), nonlin_sup=abs(k0),
                    nonlinearity=eta, nonlocal_term=nonloc)


def build_case2(cfg: TransportConfig) -> Problem:
    """Convolution kernel kappa(s) = s with a saturating integrand.

    q(t, v) = exp(-t) |v| / ((a + 2 exp(t)) (1 + 2|v|)) node-wise, v =
    x(t - beta) the state one delay back; Lipschitz constant 1/(a+2), uniform
    bound below 1.
    """
    a = cfg.a

    def q(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        v = np.abs(v)
        return (np.exp(-t)[:, None] * v
                / ((a + 2.0 * np.exp(t))[:, None] * (1.0 + 2.0 * v)))

    return _problem(cfg, nonlin_lipschitz=1.0 / (a + 2.0), nonlin_sup=1.0,
                    kernel=ConvolutionKernel(kappa=lambda s: s, q=q))
