"""Counter-based random kernels.

Everything random in the package flows through ``gaussian_field``: the
increment at (stream, step) is a fixed function of (seed, stream, step)
alone, so results can never depend on execution order or on how work was
chunked across workers.

The blocks are Philox-4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11) at counter (step, stream, 0, 0) with key
(seed, 0), drawn from ``numpy.random.Philox``. Means over paths use the
canonical pairwise reduction tree below, which is fixed by the element
indices alone.
"""

import numpy as np

# provenance only: the benchmarks record it next to their timings
BACKEND = "numpy-philox"

# seeds and stream indices are single 64-bit words of the key and counter
U64_MAX = 2**64 - 1


def philox4x64(seed, n_streams, n_steps, stream_offset=0):
    """Philox-4x64-10 blocks for streams ``stream_offset + i``, i < n_streams.

    Returns an (n_streams * n_steps, 4) uint64 array whose row
    ``i * n_steps + k`` is the block at counter (k, stream_offset + i, 0, 0)
    under key (seed, 0).

    numpy's Philox increments its 256-bit counter before each block, so a
    stream s starts one step before (0, s, 0, 0): at (2**64-1, s-1, 0, 0),
    or at all ones for s = 0, where the increment carries through every
    word. With the buffer emptied, one ``random_raw`` call then yields the
    stream's blocks in step order.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    state = bitgen.state
    state["buffer_pos"] = 4
    counter = state["state"]["counter"]
    out = np.empty((n_streams * n_steps, 4), dtype=np.uint64)
    rows = out.reshape(n_streams, 4 * n_steps)
    for i in range(n_streams):
        s = stream_offset + i
        counter[:] = (U64_MAX, s - 1, 0, 0) if s else U64_MAX
        bitgen.state = state
        rows[i] = bitgen.random_raw(4 * n_steps)
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


def pairwise_mean(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("mean of empty vector")
    return pairwise_sum(x) / x.size


def uniform_open(blocks):
    """Map uint64 words to float64 in (0, 1]: ((w >> 11) + 0.5) * 2**-53.

    Never returns 0, so log() downstream is always finite. The shifted
    words are written straight into the one float64 result (exact, being
    below 2**53), which is then finished in place; ``blocks`` is unchanged.
    """
    u = np.empty(blocks.shape, dtype=np.float64)
    np.right_shift(blocks, np.uint64(11), out=u, casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    return u


def gaussian_field(seed, n_streams, n_steps, stream_offset=0):
    """Two independent standard-normal fields, each (n_streams, n_steps).

    Entry (i, k) depends only on (seed, stream_offset + i, k): one Philox
    block per (stream, step) yields four uniforms, turned into two normals
    by Box-Muller, so the output is bit-identical regardless of chunking.
    ``seed`` and every stream index must fit in 64 bits.
    """
    if n_streams < 0 or n_steps <= 0:
        raise ValueError("need n_streams >= 0 and n_steps >= 1")
    seed = int(seed)
    if not 0 <= seed <= U64_MAX:
        raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed}")
    if stream_offset < 0 or stream_offset + n_streams - 1 > U64_MAX:
        raise ValueError("stream indices must be in [0, 2**64 - 1]")
    u = uniform_open(philox4x64(seed, n_streams, n_steps, int(stream_offset)))
    r1 = np.sqrt(-2.0 * np.log(u[:, 0]))
    r2 = np.sqrt(-2.0 * np.log(u[:, 2]))
    a1 = (2.0 * np.pi) * u[:, 1]
    a2 = (2.0 * np.pi) * u[:, 3]
    z1 = (r1 * np.cos(a1)).reshape(n_streams, n_steps)
    z2 = (r2 * np.cos(a2)).reshape(n_streams, n_steps)
    return z1, z2
