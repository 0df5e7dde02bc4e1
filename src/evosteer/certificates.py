"""Contraction certificates for the steered fixed-point iteration.

The steered operator is a contraction in the path sup norm whenever a max
over window-wise branch constants stays below 1.  Each branch combines the
declared Lipschitz data with the window's Gramian floor; the floors used
here are the *measured* smallest eigenvalues of the assembled Gramians (plus
any ridge), so the certificate describes the discretization actually solved
rather than an abstract assumption.  A verdict of False never asserts
divergence -- the condition is sufficient only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import HistorySegment, segment_norm
from .discretize import KernelDiscretization
from .problems import Numerics, Problem


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
    solution_bound: float
    control_bounds: tuple
    kernel_mass: float = 0.0

    def __post_init__(self):
        for name in ("delay_ratio", "semigroup_bound", "control_op_norm",
                     "contraction_constant", "solution_bound", "kernel_mass"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def contracts(self) -> bool:
        return self.contraction_constant < 1.0

    def as_dict(self) -> dict:
        return {
            "variant": self.variant,
            "delay_ratio": self.delay_ratio,
            "semigroup_bound": self.semigroup_bound,
            "control_op_norm": self.control_op_norm,
            "gramian_floors": list(self.gramian_floors),
            "contraction_constant": self.contraction_constant,
            "binding_branch": self.binding_branch,
            "solution_bound": self.solution_bound,
            "control_bounds": list(self.control_bounds),
            "kernel_mass": self.kernel_mass,
            "contracts": self.contracts,
        }


def contraction_constant(K: float, M: float, b: float, gamma: float,
                         nonlin_lipschitz: float, impulse_lipschitz: Sequence[float],
                         nonlocal_lipschitz: float, floors: Sequence[float]):
    """Semilinear contraction constant and its binding branch.

    Branches: for each impulse window j >= 1,
        (1 + M^2 K^2 b / floor_j) (K * L_eta * gamma * b + K * L_imp_j);
    for the first window,
        (1 + M^2 K^2 b / floor_0) (K * L_eta * gamma * b + K * C_nonlocal);
    plus the bare max impulse Lipschitz constant.
    """
    floors = list(floors)
    if len(floors) != len(impulse_lipschitz) + 1:
        raise ValueError("one Gramian floor per control window required")
    branches = {}
    for j, (lnu, floor) in enumerate(zip(impulse_lipschitz, floors[1:]), start=1):
        amp = 1.0 + (M * M * K * K * b) / floor
        branches[f"window_{j}"] = amp * (K * nonlin_lipschitz * gamma * b + K * lnu)
    amp0 = 1.0 + (M * M * K * K * b) / floors[0]
    branches["window_0"] = amp0 * (K * nonlin_lipschitz * gamma * b
                                   + K * nonlocal_lipschitz)
    if impulse_lipschitz:
        branches["impulse"] = max(impulse_lipschitz)
    binding = max(branches, key=branches.get)
    return branches[binding], binding


def contraction_constant_integro(K: float, M: float, b: float, gamma: float,
                                 kernel_lipschitz: float, kernel_mass: float,
                                 impulse_lipschitz: Sequence[float],
                                 floors: Sequence[float]):
    """Integro-variant contraction constant and its binding branch."""
    floors = list(floors)
    if len(floors) != len(impulse_lipschitz) + 1:
        raise ValueError("one Gramian floor per control window required")
    conv_gain = K * kernel_lipschitz * kernel_mass * gamma * b
    branches = {}
    for j, (lnu, floor) in enumerate(zip(impulse_lipschitz, floors[1:]), start=1):
        amp = 1.0 + (M * M * K * K * b) / floor
        branches[f"window_{j}"] = (K * lnu + conv_gain) * amp
    amp0 = 1.0 + (M * M * K * K * b) / floors[0]
    branches["window_0"] = amp0 * conv_gain
    if impulse_lipschitz:
        branches["impulse"] = max(impulse_lipschitz)
    binding = max(branches, key=branches.get)
    return branches[binding], binding


def solution_bound(K: float, M: float, b: float, control_sup: float,
                   phi0_norm: float, variant: str, nonlin_sup: float = 0.0,
                   nonlocal_sup: float = 0.0, impulse_sup: Sequence[float] = (),
                   kernel_sup: float = 0.0, kernel_mass: float = 0.0) -> float:
    """A-priori sup bound on the steered path from the declared constants
    and the control bound; the fixed point stays inside this ball."""
    if variant == "integro":
        tail = K * kernel_sup * b * kernel_mass
        first = K * phi0_norm + M * K * control_sup * b + tail
    else:
        tail = K * nonlin_sup * b
        first = M * K * control_sup * b + tail + K * (phi0_norm + nonlocal_sup)
    candidates = [first]
    for c in impulse_sup:
        candidates.append(M * K * control_sup * b + tail + K * c)
        candidates.append(c)
    return max(candidates)


def certificate_for(problem: Problem, blocks, targets, numerics=None,
                    kern: Optional[KernelDiscretization] = None) -> Certificate:
    """Assemble the full certificate from a problem, its Gramian blocks and
    the window targets.  The integro variant's kernel mass is the sup-norm
    gain max_i sum_k w_ik |kappa(t_i - s_k)| of the Volterra sum actually
    solved, read from ``kern`` (built on ``numerics``' grid when not
    given), not the continuous integral."""
    from .gramian import control_bound

    c = problem.constants
    b = problem.mesh.b
    gamma = delay_ratio(b, problem.beta)
    floors = tuple(blk.floor_used for blk in blocks)
    for blk in blocks:
        if blk.floor_used <= 0:
            raise ValueError("certificate undefined for a singular Gramian; "
                             f"window {blk.index} floor {blk.floor_used:.3e}")
    if problem.variant == "integro":
        kern = kern or KernelDiscretization(problem, numerics or Numerics())
        kb = kern.kernel_mass
        lf, branch = contraction_constant_integro(
            c.semigroup_bound, c.control_op_norm, b, gamma,
            c.kernel_nonlin_lipschitz, kb, c.impulse_lipschitz, floors)
    else:
        kb = 0.0
        lf, branch = contraction_constant(
            c.semigroup_bound, c.control_op_norm, b, gamma,
            c.nonlin_lipschitz, c.impulse_lipschitz, c.nonlocal_lipschitz, floors)
    qs = tuple(control_bound(problem, j, targets[j], floors[j], kb)
               for j in range(len(blocks)))
    alpha = solution_bound(
        c.semigroup_bound, c.control_op_norm, b, max(qs),
        problem.norm(problem.phi0()), problem.variant,
        nonlin_sup=c.nonlin_sup, nonlocal_sup=c.nonlocal_sup,
        impulse_sup=c.impulse_sup, kernel_sup=c.kernel_nonlin_sup,
        kernel_mass=kb)
    return Certificate(variant=problem.variant, delay_ratio=gamma,
                       semigroup_bound=c.semigroup_bound,
                       control_op_norm=c.control_op_norm,
                       gramian_floors=floors, contraction_constant=lf,
                       binding_branch=branch, solution_bound=alpha,
                       control_bounds=qs, kernel_mass=kb)


def estimate_constants(problem: Problem, rng: Optional[np.random.Generator] = None,
                       samples: int = 64, segment_points: int = 64) -> dict:
    """Empirical spot-estimates of the declared constants from random
    evaluations; warns when a declared value looks too small.

    The Lipschitz ratios are probed on segment pairs whose difference is
    constant in the history offset, the configuration on which the averaged
    history norm and the pointwise distance agree.
    """
    rng = rng or np.random.default_rng(0)
    c = problem.constants
    d = problem.dim
    beta, b = problem.beta, problem.mesh.b
    est: dict = {}

    def random_segment():
        base = rng.normal(size=(segment_points + 1, d))
        smooth = np.cumsum(base, axis=0) / np.sqrt(segment_points)
        return HistorySegment(samples=smooth, beta=beta,
                              weight=problem.state_weight)

    fn = problem.nonlinearity if problem.kernel is None else problem.kernel.q
    if fn is not None:
        lip, sup = 0.0, 0.0
        for _ in range(samples):
            theta = float(rng.uniform(0.0, b))
            seg = random_segment()
            shift = rng.normal(size=d)
            other = HistorySegment(seg.samples + shift[None, :], beta,
                                   problem.state_weight)
            fx = np.asarray(fn(theta, seg), dtype=float)
            fy = np.asarray(fn(theta, other), dtype=float)
            dist = segment_norm(HistorySegment(seg.samples - other.samples,
                                               beta, problem.state_weight))
            if dist > 0:
                lip = max(lip, problem.norm(fx - fy) / dist)
            sup = max(sup, problem.norm(fx))
        if problem.kernel is None:
            est["nonlin_lipschitz"], est["nonlin_sup"] = lip, sup
            _warn_if_low("nonlin_lipschitz", c.nonlin_lipschitz, lip)
            _warn_if_low("nonlin_sup", c.nonlin_sup, sup)
        else:
            est["kernel_nonlin_lipschitz"], est["kernel_nonlin_sup"] = lip, sup
            _warn_if_low("kernel_nonlin_lipschitz", c.kernel_nonlin_lipschitz, lip)
            _warn_if_low("kernel_nonlin_sup", c.kernel_nonlin_sup, sup)

    lips, sups = [], []
    for j, nu in enumerate(problem.impulses, start=1):
        a, end = problem.mesh.impulse_windows()[j - 1]
        lip, sup = 0.0, 0.0
        for _ in range(samples):
            theta = float(rng.uniform(a, end))
            x, y = rng.normal(size=d), rng.normal(size=d)
            vx = np.asarray(nu(theta, x), dtype=float)
            vy = np.asarray(nu(theta, y), dtype=float)
            dxy = problem.norm(x - y)
            if dxy > 0:
                lip = max(lip, problem.norm(vx - vy) / dxy)
            sup = max(sup, problem.norm(vx))
        lips.append(lip)
        sups.append(sup)
        if j - 1 < len(c.impulse_lipschitz):
            _warn_if_low(f"impulse_lipschitz[{j-1}]", c.impulse_lipschitz[j - 1], lip)
    est["impulse_lipschitz"] = tuple(lips)
    est["impulse_sup"] = tuple(sups)
    return est


def _warn_if_low(name: str, declared: float, estimated: float):
    if estimated > declared * (1.0 + 1e-9):
        warnings.warn(f"declared {name} = {declared:.6g} is below the empirical "
                      f"estimate {estimated:.6g}", stacklevel=3)
