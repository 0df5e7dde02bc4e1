"""Emission of run artifacts: trajectory/control CSV files and the JSON
report.  All numbers are written at full precision (%.17g) so re-ingesting a
file reproduces the run's norms exactly and identical runs emit identical
bytes.  A CSV file is written in blocks of rows holding at most
``CHUNK_VALUES`` values, so emission memory stays bounded when the grid is
refined.  A block is one matrix of little-endian words: per row its time,
its literal fields and its state and control values, each value a 32-byte
slot of NUL-padded text that ``_format17`` renders for a whole block at
once.  Deleting the NULs leaves the bytes ``csv.writer`` would write with one
``'%.17g' %`` per value (no field ever needs quoting; rows end in CRLF)."""

from __future__ import annotations

import csv
import functools
import json
import os
from typing import Optional

import numpy as np

from .core import PiecewiseTrajectory

CHUNK_VALUES = 1 << 14

# Decimal exponents X = floor(log10 |x|) that _format17 renders itself: the
# halves of |x| and of 10^(16 - X), and the remainder of 10^(16 - X), stay
# finite normal doubles there.
_XMIN, _XMAX = -290, 290
_SPLIT = 2.0 ** 27 + 1      # Veltkamp's splitter into 26-bit halves
# Values whose scaled fraction lies this close to 1/2 are rounded by the
# fallback: the fast path's error is below 1e-14, and exact ties round to
# even there.
_TIE = 1e-6
_PASS_VALUES = 1 << 12


def _word(text: bytes, at: int) -> int:
    """``text`` as the bytes of a little-endian word, from byte ``at`` on."""
    return int.from_bytes(text, "little") << 8 * at


@functools.cache
def _tables() -> tuple:
    """The formatter's tables, built on the first emission (not at import):

    * ``powers``: per X in [_XMIN, _XMAX], 10^(16 - X) as ``hi + lo``, both
      correctly rounded from exact integer arithmetic, and ``hi``'s halves
      for Dekker's product;
    * ``groups``: the four ASCII digits of 0..9999 as words, and ``zeros``
      their trailing zero counts (4 for 0000);
    * ``forms``: per form (X clipped to [-5, 17], significant digit count
      1..17), the head word (separator and ``0.00`` prefix) and, per body
      word, the masks of the digits kept in place, of the digits moved one
      byte right past the point, and the point itself;
    * ``exponents``: per X, the ``e+XX`` suffix in the body's last word.
    """
    hi, lo = [], []
    for X in range(_XMIN, _XMAX + 1):
        k = 16 - X
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    mant, exp = np.frexp(hi)    # split the mantissa: hi * _SPLIT may overflow
    big = mant * _SPLIT
    hh = np.ldexp(big - (big - mant), exp)
    powers = (hi, np.array(lo), hh, hi - hh)

    groups = np.array([_word(b"%04d" % g, 0) for g in range(10000)], dtype=np.uint64)
    zeros = np.array([4] + [len(s) - len(s.rstrip("0"))
                            for s in map(str, range(1, 10000))], dtype=np.uint8)

    forms = np.zeros((10, 23, 17), dtype=np.uint64)
    for X in range(-5, 18):
        for nd in range(1, 18):
            if -4 <= X < 0:         # 0.000ddd
                head, point, keep = b"0." + b"0" * (-X - 1), None, nd
            elif 0 <= X <= 16:      # ddd.ddd, or ddd0 without a point
                head, point, keep = b"", X + 1, max(nd, X + 1)
            else:                   # d.ddde+XX
                head, point, keep = b"", 1, nd
            if point is not None and nd > point:
                masks = (b"\xff" * point, bytes(point + 1) + b"\xff" * (nd - point),
                         bytes(point) + b".")
            else:
                masks = (b"\xff" * keep, b"", b"")
            body = np.frombuffer(b"".join(m.ljust(24, b"\0") for m in masks),
                                 dtype=np.uint64)
            forms[:, X + 5, nd - 1] = [_word(b"," + bytes(1) + head, 0), *body]
    exponents = np.array([0 if -4 <= X <= 16 else _word(b"e%+03d" % X, 3)
                          for X in range(_XMIN, _XMAX + 1)], dtype=np.uint64)
    return powers, groups, zeros, forms.reshape(10, -1), exponents


def _scaled(ax: np.ndarray, i: np.ndarray, powers) -> tuple:
    """|x| 10^(16 - X) as ``p + r``: ``p = fl(|x| hi)``, and ``r`` its exact
    rounding error (Dekker's two-product) plus ``|x| lo``, within 1e-14."""
    hi, lo, hh, hl = powers
    p = hi[i]
    p *= ax
    xh = ax * _SPLIT
    xh -= xh - ax
    xl = ax - xh
    y = hh[i]
    r = xh * y
    r -= p
    y *= xl
    r += y
    np.take(hl, i, out=y)
    xh *= y
    r += xh
    xl *= y
    r += xl
    np.take(lo, i, out=y)
    y *= ax
    r += y
    return p, r


def _fallback(values: list) -> np.ndarray:
    """Slots of ``'%.17g' %`` itself, for the values the fast path leaves."""
    text = b"".join((b",%.17g" % v).ljust(32, b"\0") for v in values)
    return np.frombuffer(text, dtype=np.uint64).reshape(-1, 4)


def _format17(x: np.ndarray) -> np.ndarray:
    """The ``'%.17g' %`` text of every value of the 1-D array ``x``, each
    after a ``,``, as slots of 4 little-endian words of NUL-padded text: a
    head word (separator, sign and the ``0.00`` prefix of 1e-4 <= |x| < 1)
    and three body words (digits, point and exponent).

    The 17 digits are ``D = round(|x| 10^(16 - X))``, X = floor(log10 |x|)
    corrected by one where the scaled value leaves [1e16, 1e17) (T. J.
    Dekker, Numer. Math. 18, 1971).  Zeros are written here; ties and
    near-ties, non-finite values and exponents outside [_XMIN, _XMAX] go to
    ``_fallback``.  The work runs in passes of at most ``_PASS_VALUES``
    values, so its temporaries (about 90 bytes a value) stay a fraction of
    the block's text."""
    out = np.empty((x.size, 4), dtype=np.uint64)
    for lo in range(0, x.size, _PASS_VALUES):
        _format_pass(x[lo:lo + _PASS_VALUES], out[lo:lo + _PASS_VALUES])
    return out


def _format_pass(x: np.ndarray, out: np.ndarray) -> None:
    """``_format17`` on one pass of values, into their slots ``out``."""
    powers, groups, zeros, forms, exponents = _tables()
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        X = np.floor(np.log10(ax))
    zero = ax == 0.0
    # false for zeros, inf and nan; strict, so that X corrected by one
    # stays in the tables
    fast = (X > _XMIN) & (X < _XMAX)
    ax[~fast] = 1.0
    X[~fast] = 0.0
    i = X.astype(np.intp) - _XMIN
    del X
    p, r = _scaled(ax, i, powers)
    low = (p < 1e16) | ((p == 1e16) & (r < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (r >= 0.0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        i[fix] += high[fix].astype(np.intp) - low[fix].astype(np.intp)
        p[fix], r[fix] = _scaled(ax[fix], i[fix], powers)
    del ax, low, high
    rounded = np.rint(r)
    r -= rounded
    slow = np.abs(np.abs(r, out=r) - 0.5) <= _TIE
    slow |= ~(fast | zero)
    D = p.astype(np.int64)
    D += rounded.astype(np.int64)
    del p, r, rounded
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    i += carry

    # D's digits: d0, then four groups of four; its form is X and the
    # count of digits before D's trailing zeros
    high8, g34 = np.divmod(D, 10 ** 8)
    d0, g12 = np.divmod(high8, 10 ** 8)
    g1, g2 = np.divmod(g12, 10 ** 4)
    g3, g4 = np.divmod(g34, 10 ** 4)
    del D, high8, g12, g34
    trailing = zeros[g4]
    below = g4 == 0
    for g in (g3, g2, g1):
        trailing += below * zeros[g]
        below &= g == 0
    form = np.clip(i, -5 - _XMIN, 17 - _XMIN)
    form *= 17
    form += (5 + _XMIN) * 17 + 16
    form -= trailing
    del trailing, below

    out[:, 0] = forms[0][form] | np.signbit(x) * np.uint64(_word(b"-", 1))
    words = (groups[g1] << 8 | (d0 + ord("0")).view(np.uint64) | groups[g2] << 40,
             groups[g2] >> 24 | groups[g3] << 8 | groups[g4] << 40,
             groups[g4] >> 24)
    del d0, g1, g2, g3, g4
    spill = 0    # the digit a body word's shift moves into the next
    for j, w in enumerate(words):
        moved = w << 8 | spill
        spill = w >> 56
        w &= forms[1 + j][form]
        moved &= forms[4 + j][form]
        w |= moved
        w |= forms[7 + j][form]
        out[:, 1 + j] = w
    out[:, 3] |= exponents[i]
    out[zero, 1] = ord("0")
    slow = np.flatnonzero(slow)
    if slow.size:
        out[slow] = _fallback(x[slow].tolist())


def _blocks(lengths: list, rows: int):
    """The rows of pieces of the given lengths, in blocks of at most
    ``rows`` rows, each a list of (piece, lo, hi); a block may span
    pieces."""
    block, room = [], rows
    for k, n in enumerate(lengths):
        lo = 0
        while lo < n:
            hi = min(n, lo + room)
            block.append((k, lo, hi))
            room -= hi - lo
            lo = hi
            if not room:
                yield block
                block, room = [], rows
    if block:
        yield block


def _write_csv(path: str, header, width: int, pieces: list) -> None:
    """Write ``header`` and the rows of ``pieces``, ``width`` values a row,
    in blocks of at most ``CHUNK_VALUES`` values.  A piece is (times, value
    blocks, literals): the blocks fill the row's columns after the time in
    order, the columns past them are zero, and the literal fields follow the
    time, one for the piece's first, inner and last row."""
    nlit = max(len(s) for *_, lits in pieces for s in lits) // 8 + 1
    pieces = [(times, blocks,
               np.frombuffer(b"".join(s.encode().ljust(8 * nlit, b"\0") for s in lits),
                             dtype=np.uint64).reshape(3, nlit))
              for times, blocks, lits in pieces]
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            for block in _blocks([len(p[0]) for p in pieces],
                                 max(1, CHUNK_VALUES // width)):
                fh.write(_block_text(pieces, block, width))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _block_text(pieces: list, block: list, width: int) -> bytearray:
    """The CSV text of one block of rows, (piece, lo, hi) ranges of
    ``_write_csv``'s pieces with their literals as words.  A block's arrays
    die on return, so no two blocks' text is held at once."""
    rows = sum(hi - lo for _, lo, hi in block)
    nlit = pieces[0][2].shape[1]
    values = np.zeros((rows, width))
    literal = np.empty((rows, nlit), dtype=np.uint64)
    r = 0
    for k, lo, hi in block:
        times, blocks, lits = pieces[k]
        end = r + hi - lo
        values[r:end, 0] = times[lo:hi]
        col = 1
        for B in blocks:
            values[r:end, col:col + B.shape[1]] = B[lo:hi]
            col += B.shape[1]
        literal[r:end] = lits[1]
        if lo == 0:
            literal[r] = lits[0]
        if hi == len(times):
            literal[end - 1] = lits[2]
        r = end
    slots = _format17(values.ravel()).reshape(rows, width, 4)
    del values
    text = bytearray(8 * rows * (4 * width + nlit + 1))
    words = np.frombuffer(text, dtype=np.uint64).reshape(rows, -1)
    words[:, :4] = slots[:, 0]
    words[:, 0] &= ~np.uint64(0xFF)     # no separator before the time
    words[:, 4:4 + nlit] = literal
    words[:, 4 + nlit:-1] = slots[:, 1:].reshape(rows, -1)
    words[:, -1] = _word(b"\r\n", 0)
    del slots, words
    return text.translate(None, b"\0")


def emit_trajectory(traj: PiecewiseTrajectory, control, path: str) -> None:
    """One row per stored sample: t, window kind, breakpoint side, state
    components, control components.  Breakpoints appear twice, flagged L/R;
    control columns are zero off the control windows."""
    d = traj.dim
    mu = control.samples[0].shape[1] if control is not None else 0
    header = (["t", "kind", "side"] + [f"x{i}" for i in range(d)]
              + [f"u{i}" for i in range(mu)])
    pieces = [(traj.history_times(), [traj.history],
               [",history,-", ",history,-", ",history,L"])]
    for k, (a, end, kind, j) in enumerate(traj.mesh.intervals()):
        blocks = [traj.seg_values[k]]
        if kind == "control" and control is not None:
            blocks.append(control.samples[j])
        pieces.append((traj.seg_times[k], blocks,
                       [f",{kind},{side}" for side in "R-L"]))
    _write_csv(path, header, 1 + d + mu, pieces)


def emit_control(control, path: str) -> None:
    """Control samples alone: t, window index, control components."""
    mu = control.samples[0].shape[1]
    header = ["t", "window"] + [f"u{i}" for i in range(mu)]
    _write_csv(path, header, 1 + mu,
               [(times, [U], [f",{j}"] * 3)
                for j, (times, U) in enumerate(zip(control.window_times,
                                                   control.samples))])


def read_trajectory_csv(path: str) -> dict:
    """Re-ingest an emitted trajectory CSV.

    Returns times, kinds, sides and the state/control arrays; path samples
    (kind != history) reproduce the emitted values bit-exactly.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = sum(1 for name in header if name.startswith("x"))
        times, kinds, sides, states, controls = [], [], [], [], []
        for row in reader:
            times.append(float(row[0]))
            kinds.append(row[1])
            sides.append(row[2])
            states.append([float(v) for v in row[3:3 + d]])
            controls.append([float(v) for v in row[3 + d:]])
    return {"times": np.array(times), "kinds": kinds, "sides": sides,
            "states": np.array(states), "controls": np.array(controls)}


def path_sup_norm_from_csv(data: dict, weight: float = 1.0) -> float:
    """Sup state norm over all non-history rows of a re-ingested CSV."""
    mask = np.array([k != "history" for k in data["kinds"]])
    norms = np.linalg.norm(data["states"][mask], axis=1)
    return float(np.sqrt(weight) * norms.max())


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def build_report(command: str, echo: dict, numerics, certificate=None,
                 blocks=None, solve=None, verdict=None, oracle_cmp=None,
                 timings: Optional[dict] = None) -> dict:
    """Assemble the JSON report with a stable field order."""
    out = {
        "schema": "evosteer-report/1",
        "command": command,
        "seed": numerics.seed,
        "config": echo,
    }
    if certificate is not None:
        out["certificate"] = certificate.as_dict()
    if blocks is not None:
        out["gramians"] = {
            "min_eig": [b.min_eig for b in blocks],
            "ridge": [b.ridge for b in blocks],
            "floor_used": [b.floor_used for b in blocks],
        }
    if solve is not None:
        out["solve"] = {
            "converged": solve.converged,
            "iterations": solve.iterations,
            "final_update": solve.final_update,
            "measured_ratio": solve.measured_ratio,
            "per_window_defect": list(solve.per_window_defect),
            "control_sup": solve.control_sup_norms(),
            "frozen_forcing_rows": solve.frozen_forcing_rows,
            "window_solves": solve.window_solves,
        }
    if verdict is not None:
        out["targets"] = {
            "tol": verdict.tol_hit,
            "defects": list(verdict.defects),
            "hits": list(verdict.hits),
            "totally_controllable": verdict.totally_controllable,
            "exactly_controllable": verdict.exactly_controllable,
        }
    if oracle_cmp is not None:
        out["oracle"] = oracle_cmp
    if timings is not None:
        out["timings"] = timings
    return out


def ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
