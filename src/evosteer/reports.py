"""Emission of run artifacts: trajectory/control CSV files and the JSON
report.  All numbers are written at full precision (%.17g) so re-ingesting a
file reproduces the run's norms exactly and identical runs emit identical
bytes.  Each CSV file is written by its own call from its own data:
``trajectory.csv`` holds the time, the window kind, the breakpoint side and
the state, ``control.csv`` the time, the window index and the control.  A
file is written piece by piece (for the trajectory the history, then each
mesh interval; for the control each control window), in blocks of rows
that run on across the pieces, each holding at most ``CHUNK_VALUES`` = 2^16
values, so emission memory stays bounded when the grid is refined.

A block's rows are gathered in one value matrix and rendered in one matrix
of little-endian words, both allocated once per file: per row the time's
slot, the literal fields, the values' slots and CRLF, each slot 32 bytes
of NUL-padded text that ``_format17`` renders in place for the whole
block.  Keeping the word matrix's non-NUL bytes, a pass of rows at a time,
leaves the bytes ``csv.writer`` would write with one ``'%.17g' %`` per
value (no field ever needs quoting; rows end in CRLF).  The bytes are kept
by a boolean mask, which releases the GIL, where ``bytearray.translate``
holds it.  The formatter works in passes of 2^15 values, two a block: each
of its numpy calls then runs long enough that another thread writing a
file beside this one (``cli``'s emission worker) gains from the GIL it
releases, while a pass's temporaries come to about 40 bytes per value of a
full block, and emission as a whole holds about 83 bytes per block
value."""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import os
from typing import Optional

import numpy as np

from .core import PiecewiseTrajectory

CHUNK_VALUES = 1 << 16

# Decimal exponents X = floor(log10 |x|) that _format17 renders itself: the
# halves of |x| and of 10^(16 - X), and the remainder of 10^(16 - X), stay
# finite normal doubles there.  The range is centred on X = 8 so that the
# powers 10^(16 - X) include every 10^(X + 1) a binade's exponent steps at.
_XMIN, _XMAX = -282, 298
_SPLIT = 2.0 ** 27 + 1      # Veltkamp's splitter into 26-bit halves
# Values whose scaled fraction lies this close to 1/2 are rounded by the
# fallback where 10^(16 - X) is not a double: the fast path's error is
# below 1e-14 there, and exact ties round to even in the fallback.
_TIE = 1e-6
_PASS_VALUES = 1 << 15


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
    * ``exponents``: per X, the ``e+XX`` suffix in the body's last word;
    * ``binades``: per biased binary exponent, the index of the binade's
      first X and the least double from which on X is one more.
    """
    # 10^(16 - X) from exact integers, p = 10^|16 - X| stepped along X;
    # float(int) and int / int round correctly
    hi, lo = [], []
    p = 10 ** (17 - _XMIN)
    for X in range(_XMIN, _XMAX + 1):
        p = p // 10 if X <= 16 else p * 10
        if X <= 16:
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:
            hi.append(1 / p)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * p) / (den * p))
    hi = np.array(hi)
    mant, exp = np.frexp(hi)    # split the mantissa: hi * _SPLIT may overflow
    big = mant * _SPLIT
    hh = np.ldexp(big - (big - mant), exp)
    powers = (hi, np.array(lo), hh, hi - hh)

    # digit k of g (thousands first) goes to byte k; each of 10, 100, 1000
    # and 10000 that divides g adds a trailing zero (all four for 0000)
    g = np.arange(10000, dtype=np.uint64)
    groups = sum((ord("0") + g // 10 ** (3 - k) % 10) << np.uint64(8 * k)
                 for k in range(4))
    zeros = sum((g % 10 ** k == 0).astype(np.uint8) for k in range(1, 5))

    # forms by byte: 0.000ddd (-4 <= X < 0) after a head of ``0.`` and
    # -X - 1 zeros; ddd.ddd or ddd0 (0 <= X <= 16) with the point after
    # digit X + 1; d.ddde+XX otherwise, the point after digit 1
    Xf = np.arange(-5, 18)[:, None, None]
    nd = np.arange(1, 18)[None, :, None]
    byte = np.arange(24)
    lead, fixed = (Xf >= -4) & (Xf < 0), (Xf >= 0) & (Xf <= 16)
    point = np.where(fixed, Xf + 1, 1)
    split = ~lead & (nd > point)
    kept = np.where(split | fixed, point, nd)     # digits kept in place
    body = np.stack(np.broadcast_arrays(
        (byte < kept) * 0xFF,
        (split & (byte > point) & (byte <= nd)) * 0xFF,
        (split & (byte == point)) * ord(".")), axis=2).astype(np.uint8)
    byte = byte[:8]
    head = np.where(byte == 0, ord(","),
                    (lead & (byte >= 2) & (byte < 3 - Xf))
                    * np.where(byte == 3, ord("."), ord("0")))
    head = np.broadcast_to(head.astype(np.uint8), (23, 17, 8))
    forms = np.concatenate([head.view(np.uint64),
                            body.view(np.uint64).reshape(23, 17, 9)], axis=2)
    forms = forms.transpose(2, 0, 1)

    # per X, bytes 3 on: ``e``, the sign and |X| in three digits, or in two
    # below 100
    X = np.arange(_XMIN, _XMAX + 1)
    suffix = np.zeros((X.size, 8), dtype=np.uint8)
    suffix[:, 3] = ord("e")
    suffix[:, 4] = np.where(X < 0, ord("-"), ord("+"))
    suffix[:, 5:] = np.abs(X)[:, None] // [100, 10, 1] % 10 + ord("0")
    two = np.abs(X) < 100
    suffix[two, 5:7] = suffix[two, 6:]
    suffix[two, 7] = 0
    suffix[(X >= -4) & (X <= 16)] = 0
    exponents = suffix.view(np.uint64)[:, 0]

    # per binade 2^k <= |x| < 2^(k + 1), by the biased exponent k + 1023 in
    # |x|'s bits: the index of X = floor(k log10 2), exact in floating point
    # (k log10 2 stays 4.5e-4 or more from an integer for 0 < |k| <= 1024),
    # and the least double >= 10^(X + 1), from which on |x| has X + 1; X is
    # clipped so that exponents outside (_XMIN, _XMAX) stay outside, and
    # inf and nan take _XMAX.  10^(X + 1) is the powers' 10^(16 - X') at
    # X' = 15 - X, which they hold since _XMIN + _XMAX = 16, and ``lo``'s
    # sign says on which side of it ``hi`` lies.
    X = np.clip(np.floor(np.arange(-1023, 1025) * np.log10(2.0)).astype(np.intp),
                _XMIN, _XMAX - 1)
    hi, lo = powers[:2]
    least = np.where(lo > 0.0, np.nextafter(hi, np.inf), hi)
    binades = (X - _XMIN, least[15 - X - _XMIN])
    binades[0][-1] = _XMAX - _XMIN
    return powers, groups, zeros, forms.reshape(10, -1), exponents, binades


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
    np.take(hl, i, out=y, mode="clip")    # unbuffered: i is in range
    xh *= y
    r += xh
    xl *= y
    r += xl
    np.take(lo, i, out=y, mode="clip")
    y *= ax
    r += y
    return p, r


def _fallback(values: list) -> np.ndarray:
    """Slots of ``'%.17g' %`` itself, for the values the fast path leaves."""
    text = b"".join((b",%.17g" % v).ljust(32, b"\0") for v in values)
    return np.frombuffer(text, dtype=np.uint64).reshape(-1, 4)


def _format17(x: np.ndarray, out: np.ndarray) -> None:
    """The ``'%.17g' %`` text of every value of ``x`` (a 1-D array, or a
    2-D one of rows), each after a ``,``, into ``out`` (x's shape and 4
    words, any strides): per value a slot of 4 little-endian words of
    NUL-padded text, a head word (separator, sign and the ``0.00`` prefix of
    1e-4 <= |x| < 1) and three body words (digits, point and exponent).

    The 17 digits are ``D = round(|x| 10^(16 - X))`` (T. J. Dekker, Numer.
    Math. 18, 1971), with X = floor(log10 |x|) exact from a per-binade
    table: a binade 2^k <= |x| < 2^(k + 1) has exponent floor(k log10 2),
    or one more from the least double >= the next power of ten on.  Zeros
    and, where 10^(16 - X) is exact, ties are written here; other ties and
    near-ties, non-finite values, subnormals and exponents outside (_XMIN,
    _XMAX) go to ``_fallback``.  The work runs in passes of whole rows of
    at most ``_PASS_VALUES`` values (one row if a row is longer), so its
    temporaries (about 80 bytes a value) stay bounded whatever the size of
    ``x``."""
    step = max(1, _PASS_VALUES // max(1, int(np.prod(x.shape[1:]))))
    for lo in range(0, len(x), step):
        _format_pass(x[lo:lo + step], out[lo:lo + step])


def _divmod(a: np.ndarray, c: int) -> tuple:
    """``np.divmod(a, c)`` for nonnegative ``a`` by one floor division,
    which numpy strength-reduces for a scalar divisor (a divmod it does
    not)."""
    q = a // c
    return q, a - q * c


def _format_pass(x: np.ndarray, out: np.ndarray) -> None:
    """``_format17`` on one pass of values, into their slots ``out``."""
    powers, groups, zeros, forms, exponents, (first, least) = _tables()
    ax = np.abs(x)
    # i = X - _XMIN from |x|'s binade: its first exponent, plus one from
    # the binade's power of ten on
    binade = ax.view(np.int64) >> 52
    i = first[binade]
    i += ax >= least[binade]
    del binade
    zero = ax == 0.0
    # false for zeros, subnormals, inf and nan; strict, so that a carry's
    # X + 1 stays in the tables
    fast = (i > 0) & (i < _XMAX - _XMIN)
    ax[~fast] = 1.0
    i[~fast] = -_XMIN
    p, r = _scaled(ax, i, powers)
    del ax
    rounded = np.rint(r)
    r -= rounded
    # Where 10^(16 - X) is a double (lo == 0, X >= -6) the two-product
    # makes r exact and p is even, so rint already rounds a tie half to
    # even; elsewhere a near-tie goes to the fallback.
    slow = np.abs(np.abs(r, out=r) - 0.5) <= _TIE
    slow &= powers[1][i] != 0.0
    slow |= ~(fast | zero)
    D = p.astype(np.int64)
    D += rounded.astype(np.int64)
    del p, r, rounded
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    i += carry

    # D's digits: d0, then four groups of four; its form is X and the
    # count of digits before D's trailing zeros
    high8, g34 = _divmod(D, 10 ** 8)
    del D
    d0, g12 = _divmod(high8, 10 ** 8)
    del high8
    g1, g2 = _divmod(g12, 10 ** 4)
    del g12
    g3, g4 = _divmod(g34, 10 ** 4)
    del g34
    trailing = zeros[g4]
    below = g4 == 0
    for g in (g3, g2, g1):
        trailing += below * zeros[g]
        below &= g == 0
    form = np.maximum(i, -5 - _XMIN)
    np.minimum(form, 17 - _XMIN, out=form)
    form *= 17
    form += (5 + _XMIN) * 17 + 16
    form -= trailing
    del trailing, below

    out[..., 0] = forms[0][form] | np.signbit(x) * np.uint64(_word(b"-", 1))
    # the body words, each freeing the digits it has taken
    g2, g4 = groups[g2], groups[g4]
    w0 = groups[g1] << 8
    w0 |= (d0 + ord("0")).view(np.uint64)
    w0 |= g2 << 40
    del d0, g1
    w1 = groups[g3] << 8
    w1 |= g2 >> 24
    w1 |= g4 << 40
    del g2, g3
    words = (w0, w1, g4 >> 24)
    del w0, w1, g4
    spill = 0    # the digit a body word's shift moves into the next
    for j, w in enumerate(words):
        moved = w << 8 | spill
        spill = w >> 56
        w &= forms[1 + j][form]
        moved &= forms[4 + j][form]
        w |= moved
        w |= forms[7 + j][form]
        out[..., 1 + j] = w
    out[..., 3] |= exponents[i]
    out[..., 1][zero] = ord("0")
    slow = np.nonzero(slow)
    if slow[0].size:
        out[slow] = _fallback(x[slow].tolist())


def _literal_words(lits: list) -> list:
    """Per piece its literal triple as a (3, n) word array."""
    nlit = max(len(s) for t in lits for s in t) // 8 + 1
    return [np.frombuffer(b"".join(s.encode().ljust(8 * nlit, b"\0") for s in t),
                          dtype=np.uint64).reshape(3, nlit)
            for t in lits]


def _write_csv(path: str, header: list, pieces: list, lits: list) -> None:
    """Write ``header`` and the rows of ``pieces`` to ``path`` in blocks of
    at most ``CHUNK_VALUES`` values, a block running on across the pieces.
    A piece is (times, values), one row per time, the values a 2-D array
    filling the row's columns after the time.  Per piece ``lits`` holds a
    triple of literal fields, one for the piece's first, inner and last
    row.  A block's rows are gathered in one value matrix, their literals
    in one word matrix, and rendered in one text word matrix, each
    allocated once for the file."""
    cols = 1 + pieces[0][1].shape[1]
    rows = min(max(1, CHUNK_VALUES // cols), sum(len(times) for times, _ in pieces))
    lits = _literal_words(lits)
    nlit = lits[0].shape[1]
    block = np.empty((rows, cols))
    row_lits = np.empty((rows, nlit), dtype=np.uint64)
    words = np.empty((rows, 4 * cols + nlit + 1), dtype=np.uint64)
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            n = 0    # rows gathered in the block
            for (times, values), lit in zip(pieces, lits):
                at = 0
                while at < len(times):
                    m = min(rows - n, len(times) - at)
                    block[n:n + m, 0] = times[at:at + m]
                    block[n:n + m, 1:] = values[at:at + m]
                    row_lits[n:n + m] = lit[1]
                    if at == 0:
                        row_lits[n] = lit[0]
                    at += m
                    n += m
                    if at == len(times):
                        row_lits[n - 1] = lit[2]
                    if n == rows:
                        _write_block(fh, words, block, row_lits)
                        n = 0
            if n:
                _write_block(fh, words[:n], block[:n], row_lits[:n])
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_block(fh, words: np.ndarray, block: np.ndarray, lits: np.ndarray) -> None:
    """Write the CSV text of a block of rows, ``block`` their times and
    values and ``lits`` their literal words, rendered in the word matrix
    ``words``: per row the time's slot, the literal words, the values'
    slots and CRLF.  The text is compacted and written a pass of rows at a
    time, which keeps the NUL mask and the compacted copy to half a
    block."""
    nlit = lits.shape[1]
    # every slot of a row in one strided view: the time's slot lands where
    # the literals go, and moves in front of them
    _format17(block, words[:, nlit:-1].reshape(block.shape + (4,)))
    words[:, :4] = words[:, nlit:nlit + 4].copy()
    words[:, 0] &= ~np.uint64(0xFF)     # no separator before the time
    words[:, 4:4 + nlit] = lits
    words[:, -1] = _word(b"\r\n", 0)
    step = max(1, _PASS_VALUES // block.shape[1])
    for lo in range(0, len(words), step):
        text = words[lo:lo + step].view(np.uint8).ravel()
        fh.write(text[text != 0])


def emit_trajectory(traj: PiecewiseTrajectory, path: str) -> None:
    """One row per stored sample: t, window kind, breakpoint side, state
    components.  Breakpoints appear twice, flagged L/R."""
    pieces = [(traj.history_times(), traj.history)]
    lits = [[",history,-", ",history,-", ",history,L"]]
    for k, (_, _, kind, _) in enumerate(traj.mesh.intervals()):
        pieces.append((traj.seg_times[k], traj.seg_values[k]))
        lits.append([f",{kind},{side}" for side in "R-L"])
    _write_csv(path, ["t", "kind", "side"] + [f"x{i}" for i in range(traj.dim)],
               pieces, lits)


def emit_control(control, path: str) -> None:
    """Control samples alone: t, window index, control components."""
    mu = control.samples[0].shape[1]
    _write_csv(path, ["t", "window"] + [f"u{i}" for i in range(mu)],
               list(zip(control.window_times, control.samples)),
               [[f",{j}"] * 3 for j in range(len(control.samples))])


def read_trajectory_csv(path: str) -> dict:
    """Re-ingest an emitted trajectory CSV.

    Returns times, kinds, sides and the state array; path samples (kind !=
    history) reproduce the emitted values bit-exactly.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)    # the header
        times, kinds, sides, states = [], [], [], []
        for row in reader:
            times.append(float(row[0]))
            kinds.append(row[1])
            sides.append(row[2])
            states.append([float(v) for v in row[3:]])
    return {"times": np.array(times), "kinds": kinds, "sides": sides,
            "states": np.array(states)}


def path_sup_norm_from_csv(data: dict, weight: float = 1.0) -> float:
    """Sup state norm over all non-history rows of a re-ingested CSV."""
    mask = np.array([k != "history" for k in data["kinds"]])
    norms = np.linalg.norm(data["states"][mask], axis=1)
    return float(np.sqrt(weight) * norms.max())


def write_report(path: str, report: dict) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"    # NaN: ValueError
    with open(path, "w") as fh:
        fh.write(text)


def build_report(command: str, echo: dict, numerics, certificate=None,
                 solve=None, verdict=None, oracle_cmp=None,
                 timings: Optional[dict] = None) -> dict:
    """Assemble the JSON report with a stable field order.  A solve comes
    with its certificate: ``solve.within_ball`` says whether the solved path
    stayed inside the ball the certificate's sup constants assume."""
    out = {
        "schema": "evosteer-report/3",
        "command": command,
        "seed": numerics.seed,
        "config": echo,
    }
    if certificate is not None:
        out["certificate"] = {**dataclasses.asdict(certificate),
                              "contracts": certificate.contracts}
    if solve is not None:
        out["solve"] = {
            "converged": solve.converged,
            "iterations": solve.iterations,
            "final_update": solve.final_update,
            "path_sup": solve.path_sup,
            "within_ball": solve.path_sup <= certificate.ball_radius,
            "updates": list(solve.updates),
            "measured_ratio": solve.measured_ratio,
            "per_window_defect": list(solve.per_window_defect),
            "control_sup": solve.control.sup_norms(),
            "frozen_forcing_rows": solve.frozen_forcing_rows,
            "window_solves": solve.window_solves,
            "window_solves_per_sweep": list(solve.window_solves_per_sweep),
        }
    if verdict is not None:
        out["targets"] = {
            "tol": verdict.tol_hit,
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
