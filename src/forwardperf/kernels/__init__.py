"""Counter-based random kernels.

Everything random in the package flows through ``gaussian_field``: the
increment at (stream, step) is a fixed function of (seed, stream, step)
alone, so results can never depend on execution order or on how work was
chunked across workers.

The blocks are Philox-4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11) at counter (stream, j, 0, 0) with key (seed, 0),
drawn from ``numpy.random.Philox``. Each block's four uniforms give four
normals by the full Box-Muller transform (Box and Muller, Ann. Math.
Stat. 29, 1958): steps 2j and 2j + 1 of both fields. numpy increments the
counter word 0 first, so the blocks of one j for a run of consecutive
streams are consecutive counters: one ``random_raw`` call per j draws
them all, and the cost is per step pair, not per stream. Means over
paths use the canonical pairwise reduction tree below, which is fixed by
the element indices alone.
"""

import math

import numpy as np

# provenance only: the benchmarks record it next to their timings
BACKEND = "numpy-philox"

# seeds and stream indices are single 64-bit words of the key and counter
U64_MAX = 2**64 - 1

# Philox blocks per tile of gaussian_field: a tile's blocks and uniforms
# (256 KB each) stay in L2 cache from their draw to their normals
TILE_BLOCKS = 8192


class Workspace:
    """Named scratch arrays that successive calls reuse instead of
    allocating afresh.

    ``take(name, shape, dtype)`` returns a C-contiguous array of that
    shape over the buffer kept under ``name``, which is replaced only when
    a call needs more elements than it holds. The next ``take`` of the
    same name hands out the same memory, so whatever was computed there
    is valid only until then.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype=np.float64):
        n = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < n:
            buf = self._buffers[name] = np.empty(n, dtype=dtype)
        return buf[:n].reshape(shape)


def _check_out(out, shape, dtype):
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {np.dtype(dtype)} array of shape {shape}")


def philox4x64(seed, n_streams, n_steps, stream_offset=0, step_offset=0, out=None):
    """Philox-4x64-10 blocks for streams ``stream_offset + i``, i < n_streams,
    at steps ``step_offset + k``, k < n_steps.

    Returns an (n_steps * n_streams, 4) uint64 array whose row
    ``k * n_streams + i`` is the block at counter
    (stream_offset + i, step_offset + k, 0, 0) under key (seed, 0): ``out``
    when given, which must be that array.

    numpy's Philox increments its 256-bit counter, word 0 first, before
    each block, so a step k starts one stream before (s, k, 0, 0): at
    (s-1, k, 0, 0), or for s = 0 at (2**64-1, k-1, 0, 0), or at all ones
    for s = k = 0, where the increment carries through every word. With
    the buffer emptied, one ``random_raw`` call then yields the step's
    blocks in stream order.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    state = bitgen.state
    state["buffer_pos"] = 4
    counter = state["state"]["counter"]
    shape = (n_steps * n_streams, 4)
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    _check_out(out, shape, np.uint64)
    rows = out.reshape(n_steps, 4 * n_streams)
    for j in range(n_steps):
        k = step_offset + j
        if stream_offset:
            counter[:] = (stream_offset - 1, k, 0, 0)
        else:
            counter[:] = (U64_MAX, k - 1, 0, 0) if k else U64_MAX
        bitgen.state = state
        rows[j] = bitgen.random_raw(4 * n_streams)
    return out


def pairwise_sum(x):
    """Sum of a float64 vector over the canonical power-of-two reduction tree.

    The tree is fixed by the element indices alone (zero-padded to the next
    power of two, then halved level by level), so the result is a pure
    function of the input vector, independent of any chunking upstream.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        return 0.0
    m = 1
    while m < n:
        m <<= 1
    buf = np.zeros(m, dtype=np.float64)
    buf[:n] = x
    while m > 1:
        m >>= 1
        buf = buf[0 : 2 * m : 2] + buf[1 : 2 * m : 2]
    return float(buf[0])


def uniform_open(blocks, out=None):
    """Map uint64 words to float64 in (0, 1]: ((w >> 11) + 0.5) * 2**-53.

    Never returns 0, so log() downstream is always finite. The shifted
    words are written straight into the one float64 result (exact, being
    below 2**53), ``out`` when given, which is then finished in place;
    ``blocks`` is unchanged.
    """
    u = np.empty(blocks.shape, dtype=np.float64) if out is None else out
    _check_out(u, blocks.shape, np.float64)
    np.right_shift(blocks, np.uint64(11), out=u, casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    return u


def gaussian_field(seed, n_streams, n_steps, stream_offset=0, out=None, work=None):
    """Two independent standard-normal fields, each (n_streams, n_steps).

    Entry (i, k) depends only on (seed, stream_offset + i, k), so the output
    is bit-identical regardless of chunking, and a field of n_steps is the
    prefix of one of n_steps + 1. ``seed`` and every stream index must fit
    in 64 bits.

    The block (s, j) at counter (s, j, 0, 0) under key (seed, 0) serves
    steps 2j and 2j + 1 of stream s: its four uniforms make one Box-Muller
    pair per field. Field 1 takes the radius r = sqrt(-2 log u) from word 0
    and the angle 2 pi u from word 1, and field 2 words 2 and 3; r cos is
    the normal at step 2j and r sin the one at step 2j + 1. With an odd
    n_steps, the last step reads only the cos legs of its block.

    The fields are written into ``out``, a pair of (n_streams, n_steps)
    float64 arrays (fresh arrays by default), and returned. They are drawn
    a tile of at most ``TILE_BLOCKS`` blocks at a time: up to that many
    consecutive streams, at as many step pairs as fit. Box-Muller runs in
    place in the tile's uniforms, and writes the normals into the fields
    through a transposed (step-major) view, whose rows are contiguous when
    the fields are time-major: sin lands in the odd-step rows and is scaled
    there, then r cos in the even-step rows. The tile's blocks and uniforms
    live in the ``Workspace`` ``work`` (a fresh one by default), so
    repeated calls on one workspace allocate nothing.
    """
    if n_streams < 0 or n_steps <= 0:
        raise ValueError("need n_streams >= 0 and n_steps >= 1")
    seed = int(seed)
    if not 0 <= seed <= U64_MAX:
        raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed}")
    if stream_offset < 0 or stream_offset + n_streams - 1 > U64_MAX:
        raise ValueError("stream indices must be in [0, 2**64 - 1]")
    if out is None:
        out = (np.empty((n_streams, n_steps)), np.empty((n_streams, n_steps)))
    if work is None:
        work = Workspace()
    n_pairs = (n_steps + 1) // 2
    width = max(1, min(n_streams, TILE_BLOCKS))
    depth = max(1, TILE_BLOCKS // width)
    for i0 in range(0, n_streams, width):
        i1 = min(i0 + width, n_streams)
        m = i1 - i0
        for j0 in range(0, n_pairs, depth):
            j1 = min(j0 + depth, n_pairs)
            nj = j1 - j0
            blocks = philox4x64(
                seed, m, nj, int(stream_offset) + i0, j0,
                out=work.take("blocks", (nj * m, 4), np.uint64),
            )
            # word w of every block in row w: contiguous inputs for Box-Muller
            u = uniform_open(blocks.T, out=work.take("uniforms", (4, nj * m)))
            u = u.reshape(4, nj, m)
            for z, (r, a) in zip(out, (u[:2], u[2:])):
                # r = sqrt(-2 log u_r) and 2 pi u_a, in place of the uniforms
                np.log(r, out=r)
                r *= -2.0
                np.sqrt(r, out=r)
                a *= 2.0 * np.pi
                steps = z[i0:i1, 2 * j0 : min(2 * j1, n_steps)].T
                odd = steps[1::2]
                np.sin(a[: len(odd)], out=odd)
                odd *= r[: len(odd)]
                np.cos(a, out=a)
                np.multiply(r, a, out=steps[0::2])
    return out
