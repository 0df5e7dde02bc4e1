"""The CSV writer's vectorised %.17g formatter against Python's own
``'%.17g' %``, value by value."""

import csv
import decimal
import fractions
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evosteer import reports


def rendered(x) -> list:
    """The formatter's text of every value of ``x``."""
    x = np.asarray(x, dtype=float)
    slots = np.empty((x.size, 4), dtype=np.uint64)
    reports._format17(x, slots)
    return slots.tobytes().translate(None, b"\0").split(b",")[1:]


def expected(x) -> list:
    return [b"%.17g" % v for v in np.asarray(x, dtype=float).tolist()]


@pytest.fixture
def fallback(monkeypatch):
    """The values the fast path hands to the per-value fallback."""
    seen = []
    original = reports._fallback

    def recording(values):
        seen.extend(values)
        return original(values)

    monkeypatch.setattr(reports, "_fallback", recording)
    return seen


def exact_ties(rng, per_exponent: int) -> tuple:
    """Doubles exactly halfway between two 17-digit decimals: v 10^j =
    D + 1/2 with 10^16 <= D < 10^17, i.e. v = q 2^-(j+1) with q odd and
    q 5^j in [2e16, 2e17); with the j of each."""
    out, js = [], []
    for j in range(1, 25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** j), min(2 * 10 ** 17 // 5 ** j, 2 ** 53)
        q = rng.integers(lo, hi, size=per_exponent) | 1
        q = q[(q * 5 ** j >= 2 * 10 ** 16) & (q * 5 ** j < 2 * 10 ** 17)]
        out.append(np.ldexp(q.astype(float), -(j + 1)))
        js.append(np.full(q.size, j))
    ties, js = np.concatenate(out), np.concatenate(js)
    return np.concatenate([ties, -ties]), np.concatenate([js, js])


def near_tie(v: float) -> bool:
    """Whether |v| 10^(16 - X), X the decimal exponent of v, lies within
    the formatter's margin of a half-integer, in exact decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=1000)):
        d = abs(decimal.Decimal(v))
        scaled = d.scaleb(16 - d.adjusted())
        return abs(scaled % 1 - decimal.Decimal("0.5")) <= decimal.Decimal(reports._TIE)


def test_random_magnitudes(fallback):
    rng = np.random.default_rng(1)
    x = rng.normal(size=100_000) * 10.0 ** rng.uniform(-30, 30, 100_000)
    assert rendered(x) == expected(x)
    # the fast path formats all but the near-ties, which are common only
    # where a double has few fraction bits left (here between 1e10 and 1e16)
    assert len(fallback) < 0.01 * x.size
    assert all(near_tie(v) for v in fallback)


def test_random_bit_patterns():
    # every finite double is fair: subnormals, huge and tiny exponents
    bits = np.random.default_rng(2).integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    assert rendered(x) == expected(x)


def test_zeros_and_non_finite_values(fallback):
    x = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 1.0, -1.0]
    assert rendered(x) == expected(x)
    assert rendered([0.0, -0.0]) == [b"0", b"-0"]
    assert not [v for v in fallback if v == 0.0]


def test_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    x = np.concatenate([x, -x])
    assert rendered(x) == expected(x)


def test_integers_near_1e16_and_1e17():
    rng = np.random.default_rng(3)
    x = np.concatenate([1e16 + 2.0 * np.arange(-2000, 2000),
                        1e17 + 16.0 * np.arange(-2000, 2000),
                        rng.integers(0, 10 ** 17, size=20_000).astype(float)])
    assert rendered(x) == expected(x)


def test_exact_ties_round_half_to_even(fallback):
    ties, j = exact_ties(np.random.default_rng(4), 1000)
    assert ties.size == 48_000
    assert rendered(ties) == expected(ties)
    # X = 16 - j: 10^j is a double for j <= 22, so there the fast path's
    # remainder is exact and rint rounds the tie half to even itself; only
    # the ties with j = 23, 24 reach the fallback
    assert fallback == ties[j >= 23].tolist()
    assert {23, 24} <= set(j.tolist())
    assert rendered([177084250429.890625]) == [b"177084250429.89062"]


def test_digit_group_tables_match_the_per_entry_builder():
    _, groups, zeros, _, _, _ = reports._tables()
    want_groups = np.array([reports._word(b"%04d" % g, 0) for g in range(10000)],
                           dtype=np.uint64)
    want_zeros = np.array([4] + [len(s) - len(s.rstrip("0"))
                                 for s in map(str, range(1, 10000))], dtype=np.uint8)
    assert groups.dtype == want_groups.dtype and zeros.dtype == want_zeros.dtype
    assert groups.tobytes() == want_groups.tobytes()
    assert zeros.tobytes() == want_zeros.tobytes()


def per_entry_tables() -> tuple:
    """``powers``, ``forms`` and ``exponents`` as the formatter built them
    entry by entry, from Python ints and byte strings."""
    word = reports._word
    hi, lo = [], []
    for X in range(reports._XMIN, reports._XMAX + 1):
        k = 16 - X
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    mant, exp = np.frexp(hi)
    big = mant * reports._SPLIT
    hh = np.ldexp(big - (big - mant), exp)
    powers = (hi, np.array(lo), hh, hi - hh)

    forms = np.zeros((10, 23, 17), dtype=np.uint64)
    for X in range(-5, 18):
        for nd in range(1, 18):
            if -4 <= X < 0:
                head, point, keep = b"0." + b"0" * (-X - 1), None, nd
            elif 0 <= X <= 16:
                head, point, keep = b"", X + 1, max(nd, X + 1)
            else:
                head, point, keep = b"", 1, nd
            if point is not None and nd > point:
                masks = (b"\xff" * point, bytes(point + 1) + b"\xff" * (nd - point),
                         bytes(point) + b".")
            else:
                masks = (b"\xff" * keep, b"", b"")
            body = np.frombuffer(b"".join(m.ljust(24, b"\0") for m in masks),
                                 dtype=np.uint64)
            forms[:, X + 5, nd - 1] = [word(b"," + bytes(1) + head, 0), *body]
    exponents = np.array([0 if -4 <= X <= 16 else word(b"e%+03d" % X, 3)
                          for X in range(reports._XMIN, reports._XMAX + 1)],
                         dtype=np.uint64)
    return powers, forms.reshape(10, -1), exponents


def test_power_form_and_exponent_tables_match_the_per_entry_builder():
    powers, _, _, forms, exponents, _ = reports._tables()
    want_powers, want_forms, want_exponents = per_entry_tables()
    for got, want in [*zip(powers, want_powers), (forms, want_forms),
                      (exponents, want_exponents)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_binade_tables_match_the_per_entry_builder():
    # per biased exponent e of |x|'s bits, the binade 2^k <= |x| < 2^(k + 1)
    # with k = e - 1023: the index of X = floor(log10 2^k), clipped to
    # [_XMIN, _XMAX - 1] (inf and nan: _XMAX), and the least double >=
    # 10^(X + 1), both from exact integers and rationals
    first, least = reports._tables()[5]
    want_first, want_least = [], []
    for e in range(2048):
        k = e - 1023
        X = len(str(2 ** k)) - 1 if k >= 0 else len(str(5 ** -k)) - 1 + k
        X = min(max(X, reports._XMIN), reports._XMAX - 1)
        power = fractions.Fraction(10) ** (X + 1)
        v = float(power)    # correctly rounded
        want_least.append(v if fractions.Fraction(v) >= power
                          else np.nextafter(v, np.inf))
        want_first.append((reports._XMAX if e == 2047 else X) - reports._XMIN)
    assert first.dtype == np.intp and least.dtype == np.float64
    assert first.tolist() == want_first
    assert least.tolist() == want_least


def test_tables_are_built_on_first_emission_not_at_import():
    script = ("import evosteer.cli, evosteer.reports as r\n"
              "assert r._tables.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(reports.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def csv_reference(header, pieces, lits) -> bytes:
    """The file of ``_write_csv`` through ``csv.writer`` and one
    ``'%.17g' %`` per value: per row the time, the literal fields and the
    values."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for (times, values), lit in zip(pieces, lits):
        for i, (t, row) in enumerate(zip(times, values.tolist())):
            fields = lit[2] if i == len(times) - 1 else lit[1] if i else lit[0]
            writer.writerow(["%.17g" % t] + fields.split(",")[1:]
                            + ["%.17g" % v for v in row])
    return out.getvalue().encode()


def mixed_values(rng, shape):
    """Normal values over many magnitudes, with exact and negative zeros."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


def assert_file_matches_csv_writer(tmp_path, header, pieces, lits):
    path = tmp_path / "f.csv"
    reports._write_csv(str(path), header, pieces, lits)
    assert path.read_bytes() == csv_reference(header, pieces, lits)


def test_pieces_of_different_lengths_fill_their_rows(tmp_path, monkeypatch):
    # pieces shorter and longer than a block, with literals of different
    # lengths, each row holding the time, the piece's literals and all its
    # values
    rng = np.random.default_rng(5)
    d = 3
    lengths = [4, 7, 5, 9]
    pieces = [(np.sort(rng.random(n)), mixed_values(rng, (n, d))) for n in lengths]
    header = ["t", "kind", "side"] + [f"x{i}" for i in range(d)]
    lits = [[f",{kind},{side}" for side in "R-L"]
            for kind in ("history", "control", "impulse", "a")]
    for rows in (1, 3, 100):    # blocks of 1 row, of 3 rows, and one block
        monkeypatch.setattr(reports, "CHUNK_VALUES", rows * (1 + d))
        assert_file_matches_csv_writer(tmp_path, header, pieces, lits)


def test_block_spanning_three_pieces(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    width, lengths = 4, [5, 2, 1, 8]
    # blocks of 8 rows: the first three pieces are each shorter than a
    # block, and the last fills one exactly
    monkeypatch.setattr(reports, "CHUNK_VALUES", 8 * width)
    pieces = [(np.arange(n, dtype=float), mixed_values(rng, (n, width - 1)))
              for n in lengths]
    lits = [[",first", ",inner", ",last"] for _ in lengths]
    assert_file_matches_csv_writer(tmp_path, ["t", "f", "x0", "x1", "x2"],
                                   pieces, lits)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["P-1", "P", "P+1"])
def test_pass_boundaries(tmp_path, offset):
    # one block of P + offset values, P = _PASS_VALUES, runs as one pass, a
    # full pass, or a full pass and one value
    count = reports._PASS_VALUES + offset
    assert count < reports.CHUNK_VALUES
    times = mixed_values(np.random.default_rng(count), count)
    assert_file_matches_csv_writer(tmp_path, ["t", "f"],
                                   [(times, np.empty((count, 0)))],
                                   [[",a", ",b", ",c"]])
