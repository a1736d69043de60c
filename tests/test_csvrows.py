import io
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lame_tta import csvrows
from oracles import reference_csv_rows


class Discard:
    """A binary sink that keeps nothing."""

    def write(self, data):
        return len(data)


def softmax_like(rng, shape, scale=3.0):
    logits = rng.normal(0.0, scale, shape)
    Z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return Z / Z.sum(axis=1, keepdims=True)


def formatted(Z, start=0):
    fh = io.BytesIO()
    csvrows.write_rows(fh, start, np.asarray(Z, dtype=np.float64))
    return fh.getvalue().decode()


def assert_rows_like_repr(Z, start=0):
    got = formatted(Z, start).splitlines(keepends=True)
    expected = reference_csv_rows(start, np.argmax(Z, axis=1), Z).splitlines(keepends=True)
    assert len(got) == len(expected)
    bad = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not bad, f"{len(bad)} rows differ, first: {bad[0]}"


def corpus(rng) -> np.ndarray:
    """Values where shortest-repr digits are easy to get wrong: every
    binade from subnormals to the largest float, powers of 2 and 10 and
    their neighbours, integers, rounded decimals, the 1e-4 and 1e16 layout
    switches and signed zeros."""
    binades = 2.0 ** rng.integers(-1074, 1024, 150_000) * (1 + rng.random(150_000))
    bits = rng.integers(0, 2**63, 50_000, dtype=np.uint64).view(np.float64)
    p2 = 2.0 ** np.arange(-1074, 1024)
    p10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near = np.concatenate([np.nextafter(p, 0) for p in (p2, p10)] +
                          [np.nextafter(p, np.inf) for p in (p2, p10)])
    ints = np.concatenate([np.arange(20_000.0), rng.integers(0, 2**53, 20_000).astype(float)])
    decimals = np.round(rng.random(30_000), 1) * 10.0 ** rng.integers(-20, 20, 30_000)
    decimals = np.concatenate([decimals] + [np.round(rng.random(2_000), d) for d in range(17)])
    edges = np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
                      1e-4, 9.999999999999999e-05, 1e-05, 1e16, 9999999999999998.0,
                      1e15, 0.1, 1.0, 123.0, 1.5])
    small = rng.random(20_000) * 10.0 ** rng.integers(-12, 1, 20_000)  # probabilities
    values = np.concatenate([binades, bits, p2, p10, near, ints, decimals, edges, small])
    values = np.concatenate([values, -values[::7]])
    return values[np.isfinite(values)]


def test_formatter_matches_repr_on_a_seeded_corpus():
    values = corpus(np.random.default_rng(20260419))
    assert len(values) >= 300_000
    K = 100
    values = np.concatenate([values, np.zeros(-len(values) % K)])
    assert_rows_like_repr(values.reshape(-1, K), start=10**6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=1,
                max_size=40))
def test_formatter_matches_repr_on_any_floats(values):
    assert_rows_like_repr(np.array([values]))
    assert_rows_like_repr(np.array(values)[:, None], start=7)


def test_rows_are_written_in_chunks_with_the_same_bytes():
    rng = np.random.default_rng(3)
    Z = rng.random((3 * csvrows.CHUNK_VALUES // 7 + 5, 7)) ** 40
    assert_rows_like_repr(Z, start=95)
    assert_rows_like_repr(rng.random((2, 3 * csvrows.CHUNK_VALUES)))
    assert formatted(np.empty((0, 4))) == ""


@pytest.mark.parametrize("K", [1, 1000, csvrows.CHUNK_VALUES + 3])
def test_rows_split_anywhere_give_the_same_bytes(K):
    # several chunks of many rows, of a few rows, and of one row each
    rng = np.random.default_rng(K)
    n = 2 * csvrows.CHUNK_VALUES // K + 3
    Z = softmax_like(rng, (n, K))
    whole = formatted(Z, start=41)
    assert whole == reference_csv_rows(41, np.argmax(Z, axis=1), Z)
    for _ in range(3):
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(4, n - 1), replace=False))
        parts = np.split(np.arange(n), cuts)
        assert "".join(formatted(Z[p], start=41 + p[0]) for p in parts) == whole


def test_benchmark_shaped_batch_matches_repr():
    assert_rows_like_repr(softmax_like(np.random.default_rng(64), (64, 1000)), start=192)


@pytest.mark.parametrize("shape", [(64, 1000), (512, 20)])
def test_formatter_scratch_stays_under_a_megabyte(shape):
    # the batch shapes of the two `lame correct` benchmark workloads
    Z = softmax_like(np.random.default_rng(5), shape)
    csvrows.write_rows(Discard(), 0, Z)
    tracemalloc.start()
    try:
        csvrows.write_rows(Discard(), 0, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_importing_the_cli_loads_neither_fractions_nor_decimal():
    code = ("import sys, lame_tta.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
