"""Controllability Gramians and minimum-energy steering on control windows.

For each control window (start, end] the Gramian

    G = int_start^end  T(end - tau) B B* T(end - tau)*  d tau

is assembled by composite trapezoid on the window's tau-grid, by the
window's lag table, and factored once, for its floor and its solve, by
:func:`factor_gramian`, which refuses a floor below ``DELTA_FLOOR``.  The
matrix backend's G is a small dense array, symmetrized and eigendecomposed.
The shift backend's G (B = I) is exactly tridiagonal, kept as its two
diagonals: its floor is a certified lower bound on its smallest eigenvalue,
from Sturm counts, and its solve runs on one LDL^T factorization, no N x N.
The feedback on G is

    u(tau) = B* T(end - tau)* G^{-1} r,

where r is the window's steering residual: the target minus the free
evolution of the window's initial data minus the accumulated forcing
convolution.  Because the residual integral, the Gramian and the solution
sweep share one tau-grid, plugging u back into the discrete solution
operator reproduces the target at the window end to solver round-off.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .core import PiecewiseTrajectory
from .problems import Problem
from .semigroups import MatrixLagTable, ShiftLagTable

# Unit roundoff and the smallest normal double
_U = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


class NotInvertibleError(Exception):
    """A window Gramian's floor fell below ``DELTA_FLOOR``; carries the floor
    (for a tridiagonal Gramian a certified lower bound on its smallest
    eigenvalue), so the caller can refine the grid or shrink the window."""

    def __init__(self, window: int, min_eig: float, floor: float):
        self.window = window
        self.min_eig = min_eig
        self.floor = floor
        super().__init__(
            f"Gramian of control window {window} is numerically singular: "
            f"min eigenvalue {min_eig:.3e} < floor {floor:.3e}")


def sturm_count(diag: list, off_sq: list, z: float) -> int:
    """Nonpositive pivots of the LDL^T factorization of T - z I, T the
    symmetric tridiagonal with diagonal ``diag`` and squared off-diagonal
    ``off_sq`` (led by a 0 for the first row): the number of eigenvalues
    below z (Sylvester's law of inertia).  A zero pivot counts as negative
    and is replaced by -tiny, so the recurrence goes on.

    Computed in floating point, the count is exact for a T^ with T's
    diagonal and each off-diagonal entry changed by at most 2.5 u of
    itself, u the unit roundoff, barring underflow (W. Kahan; J. W. Demmel,
    Applied Numerical Linear Algebra, SIAM 1997, section 5.3.4)."""
    count, q = 0, 1.0
    for a, b2 in zip(diag, off_sq):
        q = (a - z) - b2 / q
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -_TINY
    return count


def _ordered(x: float) -> int:
    """The doubles in order as integers: adjacent doubles differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _double(k: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else -k | 1 << 63))[0]


def smallest_eigenvalue_bracket(diag: np.ndarray, off: np.ndarray) -> tuple:
    """Adjacent doubles lo < hi with count(lo) = 0 and count(hi) >= 1 by
    :func:`sturm_count`, for the symmetric tridiagonal T with diagonal
    ``diag`` and off-diagonal ``off``, bisected on the ordered doubles: each
    count halves the doubles left, so at most 64 counts.

    hi starts at min(diag), which bounds the smallest eigenvalue of the
    counts' T^ from above (T^ keeps T's diagonal), so its count is at least
    1; lo starts at Gershgorin's lower bound, lowered should the counts'
    rounding need it."""
    radius = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    d, e2 = diag.tolist(), [0.0] + (off * off).tolist()
    lo, hi = float(np.min(diag - radius)), float(np.min(diag))
    if not np.isfinite(lo):
        raise ValueError("the tridiagonal Gramian has non-finite entries")
    while sturm_count(d, e2, lo):
        lo -= hi - lo + abs(lo) + _TINY
    a, b = _ordered(lo), _ordered(hi)
    while b - a > 1:
        mid = (a + b) // 2
        if sturm_count(d, e2, _double(mid)):
            b = mid
        else:
            a = mid
    return _double(a), _double(b)


def tridiagonal_floor(diag: np.ndarray, off: np.ndarray) -> float:
    """A certified lower bound on the smallest eigenvalue of the symmetric
    tridiagonal T with diagonal ``diag`` and off-diagonal ``off``.

    With lo from :func:`smallest_eigenvalue_bracket`, count(lo) = 0 says
    every eigenvalue of the count's T^ (see :func:`sturm_count`) exceeds
    lo, and |T^ - T|_2 <= 2 max |T^_i,i+1 - T_i,i+1| <= 5 u max |off|
    (Weyl), so lo - 5 u max |off|, rounded down, is below every eigenvalue
    of T."""
    lo, _ = smallest_eigenvalue_bracket(diag, off)
    margin = 5.000001 * _U * float(np.max(np.abs(off), initial=0.0))
    return float(np.nextafter(lo - margin, -np.inf))


class _Dense:
    """A dense G, symmetrized, with its eigendecomposition G = V diag(lam)
    V^T: its floor ``min_eig`` is the smallest lam."""

    def __init__(self, G: np.ndarray):
        self.matrix = 0.5 * (G + G.T)
        self.eigvals, self.eigvecs = np.linalg.eigh(self.matrix)
        self.min_eig = float(self.eigvals[0])

    def solve(self, r: np.ndarray) -> np.ndarray:
        V = self.eigvecs
        with np.errstate(over="ignore"):    # the sweep refuses an overflow
            return V @ ((V.T @ r) / self.eigvals)

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ w


class _Tridiagonal:
    """A symmetric tridiagonal G kept as its two diagonals: its floor
    ``min_eig`` is a certified lower bound on its smallest eigenvalue
    (:func:`tridiagonal_floor`), at most 5 u max |off| and 2 ulp below the
    counts' bracket; its solve runs on G = L diag(p) L^T, L unit lower
    bidiagonal, made on the first solve: a refused G is never factored."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag, self.off = diag, off
        self.min_eig = tridiagonal_floor(diag, off)

    @functools.cached_property
    def _ldl(self) -> tuple:
        p, ls = [], []
        q = float(self.diag[0])
        for a, b in zip(self.diag[1:].tolist(), self.off.tolist()):
            p.append(q)
            ls.append(b / q)
            q = a - ls[-1] * b
        p.append(q)
        return np.array(p), ls

    def solve(self, v: np.ndarray) -> np.ndarray:
        """G^{-1} v: L y = v, then L^T x = y / p."""
        pivots, mult = self._ldl
        y = [float(v[0])]
        for li, vi in zip(mult, v[1:].tolist()):
            y.append(vi - li * y[-1])
        with np.errstate(over="ignore"):    # the sweep refuses an overflow
            z = (np.array(y) / pivots).tolist()
        x = [z[-1]]
        for li, zi in zip(reversed(mult), reversed(z[:-1])):
            x.append(zi - li * x[-1])
        return np.array(x[::-1])

    def matvec(self, w: np.ndarray) -> np.ndarray:
        out = self.diag * w
        out[:-1] += self.off * w[1:]
        out[1:] += self.off * w[:-1]
        return out


# A window Gramian whose floor is below this is refused as singular.
DELTA_FLOOR = 1e-8


def factor_gramian(index: int, G) -> _Dense | _Tridiagonal:
    """Control window ``index``'s Gramian G as its lag table returns it, a
    dense array (:class:`_Dense`) or a (diagonal, off-diagonal) pair
    (:class:`_Tridiagonal`), factored once for its floor ``min_eig``, the
    window's delta in the certificate, and its solve; the only reader of that
    format.  Refuses a floor below ``DELTA_FLOOR`` (NotInvertibleError)."""
    block = _Tridiagonal(*G) if isinstance(G, tuple) else _Dense(G)
    if not block.min_eig >= DELTA_FLOOR:
        raise NotInvertibleError(index, block.min_eig, DELTA_FLOOR)
    return block


def gramian_solve(block: _Dense | _Tridiagonal, v: np.ndarray) -> np.ndarray:
    """Solve G w = v, refined until the residual r is at most 1e-12
    relative to v, or after 3 refinement steps, each solving for r by the
    block's factorization."""
    w, r = 0.0, v
    # an overflowed solve leaves inf in w, and the refinement inf - inf:
    # the non-finite w is refused by the sweep, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            w = w + block.solve(r)
            r = v - block.matvec(w)
            if np.linalg.norm(r) <= 1e-12 * max(np.linalg.norm(v), 1e-300):
                break
    return w


def window_start(problem: Problem, traj: PiecewiseTrajectory) -> np.ndarray:
    """Initial state phi(0) + nu(x) of the first control window under the
    iterate ``traj`` (the integro variant carries no nu).  A later window
    starts at the last sample of the impulse window before it.  A sum that
    overflows is refused with a ``ValueError``, not left to numpy's
    overflow warning."""
    x0 = problem.phi0().copy()
    if problem.nonlocal_term is not None:
        with np.errstate(over="ignore"):
            x0 = x0 + problem.nonlocal_term(traj)
        if not np.all(np.isfinite(x0)):
            raise ValueError("window 0's start phi(0) + nu(x) has non-finite entries")
    return x0


def steering_residual(start: np.ndarray, target: np.ndarray,
                      table: MatrixLagTable | ShiftLagTable,
                      integral: np.ndarray) -> np.ndarray:
    """Residual of a control window: the uncontrolled terminal defect

        r = target - T(end - start) x0 - int T(end - tau) f(tau) dtau,

    with x0 = ``start`` the window start, T(end - start) the window's lag
    ``table`` at its last lag, and the forcing's ``integral``, the table's
    ``end_integral`` of the forcing samples (eta(tau, x_tau) for the
    semilinear variant, the running kernel convolution for the integro one).
    """
    free = table.apply(table.m, start)
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
        scale = np.sqrt(self.problem.state_weight)
        return [float(scale * np.sqrt((U[:, None, :] @ U[:, :, None]).max()))
                for U in self.samples]

    def value(self, t: float) -> np.ndarray:
        """Continuous evaluation; zero on impulse windows and at t = 0."""
        for j, (a, end) in enumerate(self.problem.mesh.control_windows()):
            if a < t <= end:
                adj = self.problem.semigroup.apply_adjoint(end - t, self.preimages[j])
                B = self.problem.control_matrix
                return adj if B is None else B.T @ adj
        return np.zeros(self.problem.control_dim)


def synthesize_control(problem: Problem, table: MatrixLagTable | ShiftLagTable,
                       block: _Dense | _Tridiagonal, residual: np.ndarray) -> tuple:
    """The sampled feedback on one control window, by its lag ``table``, and
    its Gramian preimage y = G^{-1} r, as ``(samples, preimage)``; the
    product with B* is taken only when there is a B, and an overflow in it
    is left to the sweep's refusal of a non-finite path."""
    y = gramian_solve(block, residual)
    adj = table.adjoint_evolve(y)          # rows T(g*delta)* y
    U = adj[table.m - np.arange(table.m + 1)]
    if problem.control_matrix is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            U = U @ problem.control_matrix
    return U, y


def assemble_all(problem: Problem, window_times: list) -> tuple:
    """The lag table of every control window, one per uniform grid in
    ``window_times``, and their factored Gramians (:func:`factor_gramian`),
    as ``(tables, blocks)``: the pipeline's first stage, which refuses a
    singular one."""
    tables = [problem.semigroup.lag_table((t[-1] - t[0]) / (len(t) - 1), len(t) - 1)
              for t in window_times]
    return tables, [factor_gramian(j, table.gramian(problem.control_matrix))
                    for j, table in enumerate(tables)]
