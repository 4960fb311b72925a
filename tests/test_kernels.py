"""Counter-based kernels: bit-level checks against the oracles in ``oracles``."""

import hashlib
import math

import numpy as np
import pytest

import oracles
from forwardperf import cli, kernels
from forwardperf.fields import conjugate_exponential, entropy_kernel
from forwardperf.kernels import (
    ANGLE_BITS,
    LEG_ERROR,
    TILE_BLOCKS,
    Workspace,
    gaussian_field,
    pairwise_sum,
    philox4x64,
    uniform_open,
)
from forwardperf.mc_verifier import collapse_pairs

U64_MAX = 2**64 - 1


# -- the Philox oracle ------------------------------------------------------


def test_philox_oracle_known_answer():
    # Random123's known-answer block for philox4x64_10 at zero counter and key
    got = oracles.philox4x64(0, 0, [0], [0])
    want = [0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]
    np.testing.assert_array_equal(got[0], np.array(want, dtype=np.uint64))


@pytest.mark.parametrize("key0,key1", [(0, 0), (12345, 0), (2**63 + 17, 99)])
@pytest.mark.parametrize("c0,c1", [(0, 0), (7, 3), (2**62, 2**61 + 5)])
def test_philox_matches_numpy(key0, key1, c0, c1):
    # numpy's random_raw returns the block for counter+1 (it pre-increments),
    # so ask the oracle for c0 + 1 at the same (c1, 0, 0) tail
    bg = np.random.Philox(
        counter=np.array([c0, c1, 0, 0], dtype=np.uint64),
        key=np.array([key0, key1], dtype=np.uint64),
    )
    want = bg.random_raw(4)
    got = oracles.philox4x64(key0, key1, [c0 + 1], [c1])
    assert got.shape == (1, 4)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got[0], want)


def test_philox_counter_wraps():
    # numpy's 256-bit pre-increment carries word 0 into word 1, so counter
    # [2**64-1, 5] advances to (0, 6); the oracle addresses words directly
    bg = np.random.Philox(
        counter=np.array([U64_MAX, 5, 0, 0], dtype=np.uint64),
        key=np.array([42, 0], dtype=np.uint64),
    )
    want = bg.random_raw(4)
    got = oracles.philox4x64(42, 0, [0], [6])
    np.testing.assert_array_equal(got[0], want)


# -- the generator against the oracle --------------------------------------


@pytest.mark.parametrize("seed", [0, 704, 2**31 - 1, U64_MAX])
@pytest.mark.parametrize("stream_offset", [0, 777, 6250])
@pytest.mark.parametrize("n_steps", [1, 4, 64])
def test_philox_blocks_match_oracle(seed, stream_offset, n_steps):
    # offset 0 covers stream 0, whose start counters carry from word 0 into
    # word 1, and at step 0 through all four words
    got = philox4x64(seed, 5, n_steps, stream_offset)
    want = oracles.philox_field_blocks(seed, 5, n_steps, stream_offset)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("stream_offset", [0, 1, 777])
@pytest.mark.parametrize("step_offset", [0, 1, 63])
def test_philox_blocks_at_step_offset(stream_offset, step_offset):
    got = philox4x64(12, 6, 3, stream_offset, step_offset)
    want = oracles.philox_field_blocks(12, 6, 3, stream_offset, step_offset)
    np.testing.assert_array_equal(got, want)


def test_philox_blocks_top_streams():
    # a range that ends at the last stream index a 64-bit counter word holds
    got = philox4x64(9, 3, 4, U64_MAX - 2)
    c0 = np.tile(np.array([U64_MAX - 2, U64_MAX - 1, U64_MAX], dtype=np.uint64), 4)
    c1 = np.repeat(np.arange(4, dtype=np.uint64), 3)
    np.testing.assert_array_equal(got, oracles.philox4x64(9, 0, c0, c1))


def by_stream(blocks, n_steps):
    """(n_streams, n_steps, 4) view of step-major blocks."""
    return blocks.reshape(n_steps, -1, 4).transpose(1, 0, 2)


@pytest.mark.parametrize("bounds", [[0, 37], [0, 1, 37], [0, 5, 6, 19, 37], [0, 18, 19, 36, 37]])
def test_philox_blocks_chunk_boundaries(bounds):
    # any chunking of the streams, even or not, gives the oracle's blocks
    n_steps = 6
    want = oracles.philox_field_blocks(31, bounds[-1], n_steps)
    parts = [philox4x64(31, hi - lo, n_steps, lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    np.testing.assert_array_equal(
        np.concatenate([by_stream(p, n_steps) for p in parts]), by_stream(want, n_steps)
    )


def test_philox_vectorized_consistent():
    block = by_stream(philox4x64(7, 8, 5, 3), 5)
    for i in range(8):
        np.testing.assert_array_equal(block[i], philox4x64(7, 1, 5, 3 + i))


def test_philox_fills_out():
    want = philox4x64(7, 3, 5, 2)
    out = np.zeros((15, 4), dtype=np.uint64)
    assert philox4x64(7, 3, 5, 2, out=out) is out
    np.testing.assert_array_equal(out, want)
    for bad in (np.zeros((14, 4), dtype=np.uint64), np.zeros((15, 4)),
                np.zeros((4, 15), dtype=np.uint64).T):
        with pytest.raises(ValueError, match="C-contiguous"):
            philox4x64(7, 3, 5, 2, out=bad)


# -- uniform mapping -----------------------------------------------------


def test_uniform_open_fills_out():
    blocks = philox4x64(3, 4, 6)
    out = np.empty((24, 4))
    assert uniform_open(blocks, out=out) is out
    np.testing.assert_array_equal(out, uniform_open(blocks))
    with pytest.raises(ValueError, match="shape"):
        uniform_open(blocks, out=np.empty((24, 3)))


def test_uniform_open_bounds_exact():
    lo = uniform_open(np.array([0], dtype=np.uint64))
    hi = uniform_open(np.array([U64_MAX], dtype=np.uint64))
    assert lo[0] == 2.0**-54
    # 2**53 - 0.5 rounds to 2**53 in float64, so the top word maps to 1.0:
    # the range is (0, 1], never 0, and log() stays finite
    assert hi[0] == 1.0
    assert lo[0] > 0.0


def test_uniform_open_never_zero():
    u = uniform_open(philox4x64(3, 64, 64))
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)


# -- pairwise reduction --------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 4097])
def test_pairwise_sum_accuracy(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    assert pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-14, abs=1e-12)
    # and bit for bit the canonical tree
    assert pairwise_sum(x) == oracles.pairwise_sum(x)


def test_pairwise_sum_empty():
    assert pairwise_sum(np.array([])) == 0.0


def _bits(x):
    return np.float64(x).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9, 33, 4097, 25000])
def test_pairwise_sum_bits_match_the_padded_tree(n):
    # the tree without its zero padding, on one scratch buffer: the padded
    # tree's bits, on random values and on all -0.0, where a padding zero
    # turns a lone -0.0 into +0.0 exactly as the padded tree does
    x = np.random.default_rng(n).normal(size=n) * 1e3
    given = x.copy()
    work = Workspace()
    for v in (x, -np.zeros(n)):
        want = _bits(oracles.pairwise_sum(v))
        assert _bits(pairwise_sum(v)) == want
        assert _bits(pairwise_sum(v, work=work)) == want
        assert _bits(oracles.pairwise_sum_padded(v)) == want
    assert x.tobytes() == given.tobytes()


def test_pairwise_sum_of_one_negative_zero_keeps_its_sign():
    assert _bits(pairwise_sum(np.array([-0.0]))) == _bits(-0.0)
    assert _bits(oracles.pairwise_sum([-0.0])) == _bits(-0.0)


def test_public_kernels_return_fresh_arrays():
    # without out=, two calls never hand back the same memory
    x = np.linspace(0.0, 2.0, 8)
    calls = [
        lambda: entropy_kernel(x),
        lambda: conjugate_exponential(1.5, 0.2, x),
        lambda: collapse_pairs(x, True),
        lambda: philox4x64(1, 4, 2),
        lambda: uniform_open(philox4x64(1, 4, 2)),
        lambda: gaussian_field(1, 4, 3)[0],
    ]
    for call in calls:
        a, b = call(), call()
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, b)


# -- gaussian field ------------------------------------------------------


def test_gaussian_field_deterministic():
    a1, a2 = gaussian_field(2024, 8, 16)
    b1, b2 = gaussian_field(2024, 8, 16)
    np.testing.assert_array_equal(a1, b1)
    np.testing.assert_array_equal(a2, b2)
    c1, _ = gaussian_field(2025, 8, 16)
    assert not np.array_equal(a1, c1)


@pytest.mark.parametrize(
    "n_streams, n_steps, stream_offset",
    [
        (7, 5, 11),
        # a tile spans every stream and TILE_BLOCKS // n_streams steps:
        # partial last tiles, and (with more steps than TILE_BLOCKS) tiles
        # of one step count shared across calls
        (20, TILE_BLOCKS // 8, 3),
        (3, TILE_BLOCKS, 0),
        (2, TILE_BLOCKS + 5, 9),
        # more streams than TILE_BLOCKS: tiles of one step over part of them
        (TILE_BLOCKS + 3, 2, 5),
        # a range that ends at the last stream index
        (4, 3, U64_MAX - 3),
    ],
)
def test_gaussian_field_matches_whole_array_oracle(n_streams, n_steps, stream_offset):
    want = oracles.gaussian_field_whole(41, n_streams, n_steps, stream_offset)
    got = gaussian_field(41, n_streams, n_steps, stream_offset)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    # a shared workspace, after a larger call, and row-strided outputs
    work = Workspace()
    gaussian_field(5, n_streams + 3, n_steps, work=work)
    pairs = (np.full((2 * n_streams, n_steps), 7.0), np.full((2 * n_streams, n_steps), 7.0))
    out = gaussian_field(
        41, n_streams, n_steps, stream_offset, out=(pairs[0][0::2], pairs[1][0::2]), work=work
    )
    for o, p, w in zip(out, pairs, want):
        assert np.shares_memory(o, p)
        np.testing.assert_array_equal(p[0::2], w)
        assert np.all(p[1::2] == 7.0)


def test_workspace_reuses_buffers():
    work = Workspace()
    a = work.take("x", (4, 5))
    assert a.shape == (4, 5) and a.flags.c_contiguous
    b = work.take("x", (3, 2))
    assert np.shares_memory(a, b) and b.flags.c_contiguous
    assert not np.shares_memory(a, work.take("y", (4, 5)))
    # more elements or another dtype replace the buffer
    assert not np.shares_memory(a, work.take("x", (5, 5)))
    c = work.take("x", (2,), np.uint64)
    assert c.dtype == np.uint64 and not np.shares_memory(a, c)


def test_gaussian_field_chunk_invariance():
    full1, full2 = gaussian_field(17, 10, 6)
    parts1 = np.vstack([gaussian_field(17, 4, 6, stream_offset=0)[0],
                        gaussian_field(17, 6, 6, stream_offset=4)[0]])
    parts2 = np.vstack([gaussian_field(17, 4, 6, stream_offset=0)[1],
                        gaussian_field(17, 6, 6, stream_offset=4)[1]])
    np.testing.assert_array_equal(full1, parts1)
    np.testing.assert_array_equal(full2, parts2)


def test_gaussian_field_runs_split_by_the_stream_budget():
    # a range longer than a run's cli.DRAW_BUDGET allows at 4 intervals,
    # drawn in the runs ito-verify splits it into, gives the whole-array
    # oracle's fields
    n_streams = 2 * (cli.DRAW_BUDGET // 4) + 5
    runs = cli._stream_runs([(3, 3 + n_streams)], 4)
    assert len(runs) == 3
    want = oracles.gaussian_field_whole(23, n_streams, 4, 3)
    work = Workspace()
    for lo, hi in runs:
        got = gaussian_field(23, hi - lo, 4, lo, work=work)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w[lo - 3 : hi - 3])


def test_gaussian_field_moments():
    z1, z2 = gaussian_field(5, 2000, 32)
    n = z1.size
    for z in (z1, z2):
        assert abs(z.mean()) < 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 6.0 / math.sqrt(n)
    # the two fields come from disjoint words of the same blocks
    corr = float(np.corrcoef(z1.ravel(), z2.ravel())[0, 1])
    assert abs(corr) < 4.0 / math.sqrt(n)


@pytest.mark.parametrize("k", [0, 1, 4, TILE_BLOCKS // 6])
def test_gaussian_field_shorter_grid_is_a_prefix(k):
    # 2k + 1 steps are the prefix of 2k + 2, and 2k (when positive) of 2k + 1
    n_streams = 6
    longer = gaussian_field(8, n_streams, 2 * k + 2, 3)
    for n_steps in (2 * k, 2 * k + 1):
        if n_steps == 0:
            continue
        for z, whole in zip(gaussian_field(8, n_streams, n_steps, 3), longer):
            np.testing.assert_array_equal(z, whole[:, :n_steps])


@pytest.mark.parametrize("n_steps", [1, 7])
def test_gaussian_field_odd_last_step_is_the_cos_legs(n_steps):
    # block (s, j) serves steps 2j and 2j + 1; an odd grid's last step reads
    # r cos theta of both fields from its block, words (0, 1) and (2, 3)
    blocks = oracles.philox_field_blocks(13, 5, 1, 2, step_offset=n_steps // 2)
    u = ((blocks >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    got = gaussian_field(13, 5, n_steps, 2)
    for z, w in zip(got, (0, 2)):
        cos_leg, _ = oracles.angle_legs(blocks[:, w + 1])
        want = np.sqrt(-2.0 * np.log(u[:, w])) * cos_leg
        np.testing.assert_array_equal(z[:, -1], want)


# glibc's cos or sin of fl(fl(2 pi) u), u the angle word's rounded uniform,
# is within 2 pi 2**-54 + 2.45e-16 + 2**-51 + 2**-53 < 1.2e-15 of the exact
# leg; the radius is below 9 and each normal rounds once more
GLIBC_LEG_ERROR = 1.2e-15
NORMALS_APART = {"rtol": 2**-52, "atol": 9 * (GLIBC_LEG_ERROR + LEG_ERROR)}


def test_gaussian_field_cos_legs_are_the_replaced_kernel():
    # the even steps read the words the two-normal kernel read at half the
    # step, whose glibc cos legs they equal within rounding
    new = gaussian_field(21, 9, 11, 4)
    old = oracles.gaussian_field_two_normals(21, 9, 6, 4)
    for z, z_old in zip(new, old):
        np.testing.assert_allclose(z[:, 0::2], z_old, **NORMALS_APART)


@pytest.mark.parametrize("n_streams, n_steps", [(9, 11), (TILE_BLOCKS + 3, 2)])
def test_gaussian_field_is_the_glibc_angle_kernel_within_rounding(n_streams, n_steps):
    new = gaussian_field(21, n_streams, n_steps, 4)
    old = oracles.gaussian_field_glibc_angles(21, n_streams, n_steps, 4)
    for z, z_old in zip(new, old):
        np.testing.assert_allclose(z, z_old, **NORMALS_APART)


def test_angle_table_matches_the_oracle_and_is_exact_at_quarter_turns():
    cos_table, sin_table = kernels._angle_table()
    for got, want in zip((cos_table, sin_table), oracles.angle_table(ANGLE_BITS)):
        assert got.tobytes() == want.tobytes()
    quarter = slice(None, None, 2**ANGLE_BITS // 4)
    assert cos_table[quarter].tobytes() == np.array([1.0, 0.0, -1.0, 0.0]).tobytes()
    assert sin_table[quarter].tobytes() == np.array([0.0, 1.0, 0.0, -1.0]).tobytes()


LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63
needs_long_double = pytest.mark.skipif(not LONG_DOUBLE, reason="long double has no 64-bit mantissa here")


def exact_legs(turns):
    """cos and sin of 2 pi t in long double, for the long double turns t."""
    theta = (8 * np.arctan(np.longdouble(1))) * turns
    return np.cos(theta), np.sin(theta)


@needs_long_double
def test_angle_table_entries_are_within_their_derived_error():
    # math.cos and math.sin at a rounded first-octant point: within
    # 1.98e-16 (``kernels._angle_legs``); the rest reflect it exactly
    n = 2**ANGLE_BITS
    turns = np.arange(n).astype(np.longdouble) / n
    for table, exact in zip(kernels._angle_table(), exact_legs(turns)):
        assert np.abs(table.astype(np.longdouble) - exact).max() < 1.98e-16


def angle_edge_words():
    """k = 0 and every other multiple of pi/4 with the smallest delta,
    the largest delta after each, and the all-ones word."""
    top = np.uint64(64 - ANGLE_BITS)
    points = np.arange(0, 2**ANGLE_BITS, 2**ANGLE_BITS // 8, dtype=np.uint64) << top
    below = np.uint64(2 ** (64 - ANGLE_BITS) - 1)
    return np.concatenate([points, points | below, [np.uint64(U64_MAX)]])


def kernel_angle_legs(words):
    a = (words >> np.uint64(11)).astype(np.float64)
    cos = np.empty_like(a)
    kernels._angle_legs(a, cos, np.empty((4, a.size)), a.size)
    return cos, a


@needs_long_double
def test_angle_legs_within_the_derived_bound():
    # against cos and sin of the exact angle 2 pi ((w >> 11) + 1/2) 2**-53,
    # in long double, where m + 1/2 and its scaling are exact: each leg is
    # within LEG_ERROR, and no less accurate than glibc's legs of 2 pi u
    words = np.concatenate([philox4x64(7, 25_000, 1).ravel(), angle_edge_words()])
    turns = ((words >> np.uint64(11)).astype(np.longdouble) + np.longdouble(0.5)) * np.longdouble(2.0**-53)
    u = uniform_open(words)
    glibc = np.cos(2.0 * np.pi * u), np.sin(2.0 * np.pi * u)
    for leg, old, exact in zip(kernel_angle_legs(words), glibc, exact_legs(turns)):
        err = np.abs(leg.astype(np.longdouble) - exact)
        old_err = np.abs(old.astype(np.longdouble) - exact)
        assert err.max() < LEG_ERROR
        assert err.max() <= old_err.max() and err.mean() <= old_err.mean()
    # the word 0, at the smallest angle pi 2**-53
    cos, sin = kernel_angle_legs(angle_edge_words()[:1])
    assert cos[0] == 1.0 and sin[0] == np.pi * 2.0**-53


# SHA-256 of the cos and then the sin legs of the 100k angle words of
# philox4x64(2024, 50_000, 1). No exp or log enters them, so one digest
# holds on every numpy dispatch
PINNED_ANGLE_LEGS_SHA256 = "6d49c110411299fd357d0878e2429679a534358aed58dc27f67295686674ddc2"


def test_angle_legs_bytes_pinned():
    cos, sin = kernel_angle_legs(philox4x64(2024, 50_000, 1)[:, 1::2].ravel())
    digest = hashlib.sha256(cos.tobytes() + sin.tobytes()).hexdigest()
    assert digest == PINNED_ANGLE_LEGS_SHA256


def test_gaussian_field_four_legs_uncorrelated():
    # the cos and sin legs of both fields: unit variance, pairwise uncorrelated
    z1, z2 = gaussian_field(5, 2000, 32)
    legs = np.stack([z1[:, 0::2].ravel(), z1[:, 1::2].ravel(),
                     z2[:, 0::2].ravel(), z2[:, 1::2].ravel()])
    n = legs.shape[1]
    assert np.all(np.abs(legs.mean(axis=1)) < 4.0 / math.sqrt(n))
    assert np.all(np.abs(legs.var(axis=1) - 1.0) < 6.0 / math.sqrt(n))
    corr = np.corrcoef(legs)
    assert np.all(np.abs(corr[np.triu_indices(4, 1)]) < 4.0 / math.sqrt(n))


@pytest.mark.parametrize("n_streams, n_steps", [(5, 1), (5, 8), (7, 9), (TILE_BLOCKS + 3, 3)])
def test_gaussian_field_draws_one_block_per_step_pair(monkeypatch, n_streams, n_steps):
    rows = []

    def counted(*args, **kwargs):
        out = philox4x64(*args, **kwargs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(kernels, "philox4x64", counted)
    gaussian_field(3, n_streams, n_steps)
    assert sum(rows) == n_streams * math.ceil(n_steps / 2)


def test_gaussian_field_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gaussian_field(0, -1, 4)
    with pytest.raises(ValueError):
        gaussian_field(0, 4, 0)


@pytest.mark.parametrize(
    "seed,n_streams,stream_offset",
    [(-1, 4, 0), (2**64, 4, 0), (0, 4, -1), (0, 2, U64_MAX)],
)
def test_gaussian_field_rejects_out_of_range_words(seed, n_streams, stream_offset):
    with pytest.raises(ValueError, match=r"2\*\*64 - 1"):
        gaussian_field(seed, n_streams, 4, stream_offset=stream_offset)
