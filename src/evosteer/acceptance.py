"""The acceptance corpus: one callable check per acceptance criterion.

Shared by ``evosteer selftest`` and tests/test_acceptance.py.  Each check
collects named sub-assertions with their measured values, so a failure
report states exactly which bound broke and by how much.  Expensive runs
(the linear steering corpus, the two transport benchmarks) are cached and
reused across criteria.

Known limitation, kept deliberately: the contraction certificate of the
transport Case-1 preset evaluates above 1 (see
`criterion-04-case1-certificate`).  The realized Gramian floor of any
control window on the N-node transport grid is at most bound^2 *
opnorm(B)^2 * pi/N, because the adjoint shift annihilates the node nearest
the outflow boundary after time pi/N; with N = 64 the resulting
amplification factor alone pushes every window branch of the constant
past 1 (the bare impulse branch is lambda_1 = 0.5) even though the Picard
iteration itself contracts briskly.  The check asserts the documented
bound anyway and fails honestly rather than substituting a floor the
discretization does not deliver.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .certificates import contraction_constant
from .core import (PiecewiseTrajectory, TimeMesh, history_segment,
                   path_sup_norm, segment_norm, sup_distance)
from .problems import Numerics, Problem
from .runner import run
from .semigroups import MatrixSemigroup, expm
from .transport import build_case1, build_case2, smooth_targets

_CACHE: dict = {}


@dataclass
class Checks:
    items: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, msg: str) -> None:
        self.items.append((bool(ok), msg))

    def close(self, actual: float, bound: float, msg: str) -> None:
        self.check(actual <= bound, f"{msg}: {actual:.3e} <= {bound:.3e}")

    def note(self, msg: str) -> None:
        self.notes.append(msg)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.items)

    def detail(self) -> str:
        bad = [msg for ok, msg in self.items if not ok]
        if bad:
            return "FAILED: " + "; ".join(bad)
        return "; ".join(self.notes) if self.notes else f"{len(self.items)} checks"


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    elapsed: float


# ---------------------------------------------------------------- corpora


def _linear_numerics(time_step: float = 3e-4) -> Numerics:
    return Numerics(time_step=time_step, history_samples=32, tol=1e-11,
                    max_iter=60, oracle_refine=10, seed=5)


def _random_linear_instance(rng: np.random.Generator, dim: int):
    A = rng.normal(size=(dim, dim))
    A *= rng.uniform(0.5, 1.0) / np.linalg.norm(A, 2)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    B = Q @ np.diag(rng.uniform(0.8, 1.25, size=dim))
    phi0 = rng.normal(size=dim)
    phi0 *= 0.5 / np.linalg.norm(phi0)
    mesh = TimeMesh([0.0, 0.45, 0.55, 1.0])
    targets = []
    for _ in range(2):
        z = rng.normal(size=dim)
        targets.append(z / np.linalg.norm(z))
    problem = Problem(semigroup=MatrixSemigroup(A), control_matrix=B, mesh=mesh,
                      beta=1.0, history=lambda s: phi0)
    return problem, targets


def linear_corpus() -> list:
    """Ten random steered linear systems with oracle cross-checks."""
    if "linear" not in _CACHE:
        rng = np.random.default_rng(42)
        out = []
        numerics = _linear_numerics()
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            problem, targets = _random_linear_instance(rng, dim)
            result = run(problem, targets, numerics, with_oracle=True)
            out.append(result)
        _CACHE["linear"] = out
    return _CACHE["linear"]


def _transport_run(key: str, builder):
    """The run of the transport case ``builder`` makes at its defaults,
    cached under ``key``."""
    if key not in _CACHE:
        problem = builder()
        numerics = Numerics(time_step=1e-3, history_samples=128, tol=1e-9,
                            max_iter=200, seed=7)
        _CACHE[key] = run(problem, smooth_targets(problem, numerics.seed), numerics)
    return _CACHE[key]


# ---------------------------------------------------------------- criteria


def criterion_semigroup_laws(c: Checks) -> None:
    """Random 8x8 generator: composition law, identity at 0, adjoint duality."""
    rng = np.random.default_rng(11)
    A = rng.normal(size=(8, 8))
    A *= 1.5 / np.linalg.norm(A, 2)
    T = MatrixSemigroup(A)
    worst_law = worst_dual = 0.0
    for _ in range(50):
        s, t = rng.uniform(0.0, 0.5, size=2)
        v = rng.normal(size=8)
        u = rng.normal(size=8)
        lhs = T.apply(s + t, v)
        rhs = T.apply(s, T.apply(t, v))
        worst_law = max(worst_law, np.linalg.norm(lhs - rhs) / np.linalg.norm(v))
        dual = abs(T.apply(s, u) @ v - u @ T.apply_adjoint(s, v))
        worst_dual = max(worst_dual, dual / (np.linalg.norm(u) * np.linalg.norm(v)))
    c.close(worst_law, 1e-10, "semigroup law defect")
    c.close(worst_dual, 1e-10, "adjoint duality defect")
    v = rng.normal(size=8)
    c.check(np.array_equal(T.apply(0.0, v), v), "T(0) is the identity exactly")
    c.note(f"law defect {worst_law:.1e}, duality defect {worst_dual:.1e}")


def criterion_gramian_correctness(c: Checks) -> None:
    """Scalar closed form, symmetry, positive semidefiniteness, and the exact
    Gramian W = F22^T F12 from expm([[-A, BB^T], [0, A^T]] w) (Van Loan, IEEE
    TAC 23, 1978), which the trapezoid with step h misses by at most
    (w h^2 / 12) sup |f''| <= (w h^2 / 12) 4 |A|^2 |B|^2 e^{2 |A| w}."""
    width = 0.05
    for a in (-1.0, 0.5):
        G = MatrixSemigroup([[a]]).lag_table(width / 1000, 1000).gramian(None)
        exact = (math.exp(2 * a * width) - 1.0) / (2 * a)
        rel = abs(G[0, 0] - exact) / exact
        c.close(rel, 1e-8, f"scalar Gramian closed form (a={a})")
    rng = np.random.default_rng(12)
    width, steps = 0.8, 200
    worst_sym = worst_eig = worst_exact = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        A = rng.normal(size=(dim, dim)) / np.sqrt(dim)
        B = rng.normal(size=(dim, dim)) / np.sqrt(dim)
        G = MatrixSemigroup(A).lag_table(width / steps, steps).gramian(B)
        worst_sym = max(worst_sym, np.linalg.norm(G - G.T) / np.linalg.norm(G))
        worst_eig = min(worst_eig, np.linalg.eigvalsh(G)[0])
        F = expm(np.block([[-A, B @ B.T], [np.zeros_like(A), A.T]]) * width)
        exact = F[dim:, dim:].T @ F[:dim, dim:]
        a, b = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
        bound = width ** 3 / steps ** 2 / 3 * (a * b) ** 2 * math.exp(2 * a * width)
        worst_exact = max(worst_exact, np.linalg.norm(G - exact, 2) / bound)
    c.close(worst_sym, 1e-12, "Gramian asymmetry")
    c.check(worst_eig >= -1e-12, f"min eigenvalue {worst_eig:.3e} >= -1e-12")
    c.close(worst_exact, 1.0, "distance to the Van Loan Gramian over its "
            "trapezoid error bound")
    c.note(f"asymmetry {worst_sym:.1e}, most negative eigenvalue "
           f"{worst_eig:.1e}, Van Loan distance {worst_exact:.2f} of its bound")


def criterion_linear_steering(c: Checks) -> None:
    """Both window targets hit and the oracle agrees, on 10 random systems."""
    worst_defect = worst_dist = 0.0
    for result in linear_corpus():
        worst_defect = max(worst_defect, max(result.solve.per_window_defect))
        worst_dist = max(worst_dist, result.oracle_distance)
    c.close(worst_defect, 1e-6, "window defect")
    c.close(worst_dist, 1e-6, "solver-vs-oracle sup distance")
    c.note(f"worst defect {worst_defect:.1e}, worst oracle distance {worst_dist:.1e}")


def criterion_case1_solve(c: Checks) -> None:
    """Transport Case 1: convergence, target hits, measured contraction."""
    result = _transport_run("case1", build_case1)
    c.check(result.solve.converged,
            f"Picard converged in {result.solve.iterations_text()}")
    for j, d in enumerate(result.solve.per_window_defect):
        c.close(d, 1e-3, f"window {j} defect")
    lf = result.certificate.contraction_constant
    ratio = result.solve.measured_ratio
    c.close(ratio, lf + 0.1, "measured update ratio vs certificate")
    c.note(f"{result.solve.iterations_text()}, measured ratio {ratio:.3f}, "
           f"certificate constant {lf:.3f}")


def criterion_case1_certificate(c: Checks) -> None:
    """Transport Case 1: the sufficient-condition constant must be below 1.

    Expected to FAIL on the default preset: the realized Gramian floors are
    of order pi/(3N), so the certificate honestly reports a constant far
    above 1 even though the iteration converges (the condition is sufficient
    only).  See the module docstring and README.
    """
    result = _transport_run("case1", build_case1)
    lf = result.certificate.contraction_constant
    floors = ", ".join(f"{f:.3e}" for f in result.certificate.gramian_floors)
    c.check(lf < 1.0,
            f"contraction constant {lf:.3f} < 1 (gramian floors {floors}, "
            f"binding branch {result.certificate.binding_branch})")
    c.note(f"constant {lf:.3f}")


def criterion_integro(c: Checks) -> None:
    """Case 2: kernel mass, hand-substituted constant, solve quality."""
    result = _transport_run("case2", build_case2)
    kb = result.certificate.kernel_mass
    b = result.problem.mesh.b
    c.close(abs(kb - b * b / 2.0), 1e-10, "kernel mass vs closed form")
    # The Volterra forcing's Lipschitz constant is L_q = 1/(a+2) = 0.5 times
    # the kernel mass b^2/2 = 0.5.
    worked, _ = contraction_constant(
        K=1.0, M=1.0, b=1.0, gamma=1.0, nonlin_lipschitz=0.5 * 0.5,
        impulse_lips=[0.1], nonlocal_lip=0.0, floors=[1.0, 1.0])
    c.close(abs(worked - 0.7), 1e-12, "hand-substituted integro constant")
    c.check(result.solve.converged,
            f"Picard converged in {result.solve.iterations_text()}")
    lf = result.certificate.contraction_constant
    if lf < 1.0:
        c.note(f"certificate contracts (constant {lf:.3f})")
    for j, d in enumerate(result.solve.per_window_defect):
        c.close(d, 1e-3, f"window {j} defect")
    c.note(f"kernel mass {kb:.12f}, certificate constant {lf:.3f}")


def _random_pair(rng, mesh, beta, dim, steps, hsamples):
    hist_t = np.linspace(-beta, 0.0, hsamples + 1)
    hist = np.column_stack([np.sin((k + 1) * hist_t) for k in range(dim)])

    def smooth(m):
        z = np.cumsum(rng.normal(size=(m + 1, dim)), axis=0)
        return z / max(1.0, np.abs(z).max())

    def build():
        seg_t, seg_v = [], []
        for a, end, kind, j in mesh.intervals():
            t = np.linspace(a, end, steps + 1)
            seg_t.append(t)
            seg_v.append(smooth(steps))
        return PiecewiseTrajectory(mesh, beta, hist, seg_t, seg_v)

    return build(), build()


def criterion_delay_estimate(c: Checks) -> None:
    """Averaged history distance <= (b/beta) * path sup distance, on 100
    random trajectory pairs sharing their history."""
    rng = np.random.default_rng(13)
    mesh = TimeMesh([0.0, 0.35, 0.45, 1.0])
    beta = 0.7
    gamma = mesh.b / beta
    offsets = np.linspace(-beta, 0.0, 97)
    worst = -np.inf
    for _ in range(100):
        x, y = _random_pair(rng, mesh, beta, 3, 24, 96)
        sup = sup_distance(x, y)
        ts = np.concatenate([rng.uniform(0.0, 1.0, size=9),
                             [0.35, 0.45, 1.0, beta]])
        diffs = history_segment(x, ts, offsets) - history_segment(y, ts, offsets)
        for diff in diffs:
            worst = max(worst, segment_norm(diff, beta) - gamma * sup)
    c.check(worst <= 1e-12, f"delay estimate margin {worst:.3e} <= 0")
    c.note(f"largest margin {worst:.3e} (negative means strict)")


def criterion_boundedness(c: Checks) -> None:
    """Synthesized controls stay under their bounds, paths under theirs."""
    corpus = linear_corpus() + [_transport_run("case1", build_case1),
                                _transport_run("case2", build_case2)]
    for tag, result in zip([f"linear{i}" for i in range(10)] + ["case1", "case2"],
                           corpus):
        sups = result.solve.control.sup_norms()
        for j, (s, q) in enumerate(zip(sups, result.certificate.control_bounds)):
            c.check(s <= q + 1e-9, f"{tag} window {j}: sup|u| {s:.3e} <= "
                                   f"bound {q:.3e}")
        pc = path_sup_norm(result.solve.trajectory)
        alpha = result.certificate.solution_bound
        c.check(pc <= alpha + 1e-6, f"{tag}: path sup {pc:.3e} <= "
                                    f"solution bound {alpha:.3e}")
    c.note(f"{len(corpus)} instances within bounds")


def criterion_impulse_exactness(c: Checks) -> None:
    """On impulse windows the converged path equals the impulse map of the
    left limit at every stored sample, bit for bit: the sweep evaluates
    each impulse window from the path it has just advanced."""
    windows = inexact = 0
    for result in linear_corpus() + [_transport_run("case1", build_case1),
                                     _transport_run("case2", build_case2)]:
        traj = result.solve.trajectory
        problem = result.problem
        for k, (a, end, kind, j) in enumerate(problem.mesh.intervals()):
            if kind != "impulse":
                continue
            x_minus = traj.left_value_at_theta(j)
            expected = problem.impulse_path(j, traj.seg_times[k], x_minus)
            windows += 1
            inexact += expected.tobytes() != traj.seg_values[k].tobytes()
    c.check(inexact == 0, f"{inexact} of {windows} impulse windows differ "
                          f"from their impulse map")
    c.note(f"{windows} impulse windows equal their impulse maps bit for bit")


def criterion_grid_convergence(c: Checks) -> None:
    """Halving the step cuts the oracle-measured steering defect by >= 3x.

    The solver's own defect is round-off at any resolution (the control is
    synthesized on the same grid the endpoint integral uses), so refinement
    is measured against the independent integrator.
    """
    rng = np.random.default_rng(42)
    ratios = []
    for _ in range(3):
        dim = int(rng.integers(2, 7))
        problem, targets = _random_linear_instance(rng, dim)
        defects = {}
        for steps in (200, 400):
            numerics = _linear_numerics(time_step=0.45 / steps)
            result = run(problem, targets, numerics, with_oracle=True)
            defects[steps] = np.asarray(result.oracle.defects)
        ratios.extend((defects[200] / defects[400]).tolist())
    c.check(min(ratios) >= 3.0,
            f"worst refinement ratio {min(ratios):.2f} >= 3.0")
    c.note("ratios " + ", ".join(f"{r:.2f}" for r in ratios))


_CONFIG_OK = """
[problem]
preset = transport-case1
n = 16

[numerics]
time_step = 2e-3
history_samples = 48

[outputs]
directory = {out}
"""

def criterion_cli_contract(c: Checks) -> None:
    """Exit statuses under fault injection; byte-identical reports; CSV
    round-trip."""
    import contextlib
    import io
    from unittest import mock

    from .cli import main as raw_main
    from .config import OUTDIR_ENV, load_config
    from .reports import path_sup_norm_from_csv, read_trajectory_csv

    def cli_main(argv):
        # each config names its own output directory, which the variable
        # would override; patch.dict restores the environment after the call
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            os.environ.pop(OUTDIR_ENV, None)
            return raw_main(argv)

    with tempfile.TemporaryDirectory() as tmp:
        def write_cfg(name, text):
            p = os.path.join(tmp, name)
            with open(p, "w") as fh:
                fh.write(text)
            return p

        out = os.path.join(tmp, "out")
        ok_cfg = write_cfg("ok.ini", _CONFIG_OK.format(out=out))
        code = cli_main(["solve", ok_cfg, "--no-timing"])
        c.check(code == 0, f"healthy solve exits 0 (got {code})")
        with open(os.path.join(out, "report.json"), "rb") as fh:
            first = fh.read()
        code = cli_main(["solve", ok_cfg, "--no-timing"])
        with open(os.path.join(out, "report.json"), "rb") as fh:
            second = fh.read()
        c.check(first == second, "identical configs give byte-identical reports")

        data = read_trajectory_csv(os.path.join(out, "trajectory.csv"))
        h = np.pi / 16
        cfg = load_config(ok_cfg)
        res = run(cfg.problem, cfg.targets, cfg.numerics)
        pc_file = path_sup_norm_from_csv(data, weight=h)
        pc_mem = path_sup_norm(res.solve.trajectory)
        c.close(abs(pc_file - pc_mem), 1e-12, "CSV round-trip sup norm")

        bad_beta = write_cfg("bad_beta.ini", _CONFIG_OK.format(out=out).replace(
            "preset = transport-case1", "preset = transport-case1\nbeta = -1"))
        code = cli_main(["solve", bad_beta])
        c.check(code == 2, f"beta <= 0 exits 2 (got {code})")

        singular = write_cfg("singular.ini", f"""
[problem]
kind = linear
generator = 0 0; 0 0
control = 0 0; 0 0
phi0 = 0 0

[mesh]
breakpoints = 0 0.4 0.6 1.0

[numerics]
time_step = 5e-3

[outputs]
directory = {out}
""")
        code = cli_main(["solve", singular])
        c.check(code == 3, f"zero control operator exits 3 (got {code})")

        stuck = write_cfg("stuck.ini", _CONFIG_OK.format(out=out).replace(
            "[numerics]", "[numerics]\nmax_iter = 1"))
        code = cli_main(["solve", stuck])
        c.check(code == 4, f"max_iter = 1 on the nonlinear preset exits 4 "
                           f"(got {code})")
    c.note("exit codes 0/2/3/4 and determinism verified")


CRITERIA = (
    ("criterion-01-semigroup-laws", criterion_semigroup_laws, 5.0),
    ("criterion-02-gramian", criterion_gramian_correctness, 10.0),
    ("criterion-03-linear-steering", criterion_linear_steering, 30.0),
    ("criterion-04-case1-solve", criterion_case1_solve, 60.0),
    ("criterion-04-case1-certificate", criterion_case1_certificate, 60.0),
    ("criterion-05-integro", criterion_integro, 60.0),
    ("criterion-06-delay-estimate", criterion_delay_estimate, 5.0),
    ("criterion-07-boundedness", criterion_boundedness, None),
    ("criterion-08-impulse-exactness", criterion_impulse_exactness, None),
    ("criterion-09-grid-convergence", criterion_grid_convergence, None),
    ("criterion-10-cli-contract", criterion_cli_contract, None),
)


def run_one(name: str) -> CriterionResult:
    for cname, fn, limit in CRITERIA:
        if cname == name:
            checks = Checks()
            t0 = time.perf_counter()
            fn(checks)
            elapsed = time.perf_counter() - t0
            if limit is not None:
                checks.check(elapsed < limit,
                             f"runtime {elapsed:.1f}s < {limit:.0f}s")
            return CriterionResult(name=name, ok=checks.ok,
                                   detail=checks.detail(), elapsed=elapsed)
    raise KeyError(f"unknown criterion {name!r}")


def run_all(only=None) -> list:
    """Run every criterion whose name contains ``only`` (all without it);
    an empty list when no name does."""
    return [run_one(n) for n, _, _ in CRITERIA if not only or only in n]
