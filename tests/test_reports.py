"""The CSV writer's vectorised %.17g formatter against Python's own
``'%.17g' %``, value by value."""

import decimal
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evosteer import reports


def rendered(x) -> list:
    """The formatter's text of every value of ``x``."""
    slots = reports._format17(np.asarray(x, dtype=float))
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
    _, groups, zeros, _, _ = reports._tables()
    want_groups = np.array([reports._word(b"%04d" % g, 0) for g in range(10000)],
                           dtype=np.uint64)
    want_zeros = np.array([4] + [len(s) - len(s.rstrip("0"))
                                 for s in map(str, range(1, 10000))], dtype=np.uint8)
    assert groups.dtype == want_groups.dtype and zeros.dtype == want_zeros.dtype
    assert groups.tobytes() == want_groups.tobytes()
    assert zeros.tobytes() == want_zeros.tobytes()


def test_tables_are_built_on_first_emission_not_at_import():
    script = ("import evosteer.cli, evosteer.reports as r\n"
              "assert r._tables.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(reports.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
