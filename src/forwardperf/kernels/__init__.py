"""Counter-based random kernels.

Everything random in the package flows through ``gaussian_field``: the
increment at (stream, step) is a fixed function of (seed, stream, step)
alone, so results can never depend on execution order or on how work was
chunked across workers.

The blocks are Philox-4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11) at counter (stream, j, 0, 0) with key (seed, 0),
drawn from ``numpy.random.Philox``. Each block's four words give four
normals by the full Box-Muller transform (Box and Muller, Ann. Math.
Stat. 29, 1958): steps 2j and 2j + 1 of both fields. The radius legs call
numpy's log and sqrt; the angle legs call no libm function, but read a
table of cos and sin at 2**ANGLE_BITS points of the circle and correct it
by short polynomials (``_angle_legs``). numpy increments the
counter word 0 first, so the blocks of one j for a run of consecutive
streams are consecutive counters: one ``random_raw`` call per j draws
them all, and the cost is per step pair, not per stream. Means over
paths use the canonical pairwise reduction tree below, which is fixed by
the element indices alone.
"""

import functools
import math

import numpy as np

# provenance only: the benchmarks record it next to their timings
BACKEND = "numpy-philox"

# seeds and stream indices are single 64-bit words of the key and counter
U64_MAX = 2**64 - 1

# Philox blocks per tile of gaussian_field: a tile's blocks and uniforms
# (256 KB each) stay in L2 cache from their draw to their normals
TILE_BLOCKS = 8192

# the Box-Muller angle legs read cos and sin at 2**ANGLE_BITS points of the
# circle (16 KB in all), and stay within LEG_ERROR of the exact legs
# (``_angle_legs``)
ANGLE_BITS = 10
LEG_ERROR = 2.6e-16


@functools.cache
def _angle_table():
    """cos and sin of 2 pi k / N for k < N = 2**ANGLE_BITS: math.cos and
    math.sin at the first octant's points, the rest of the circle by exact
    symmetries, so the multiples of pi / 2 are exactly 0 and +-1. Built
    once, on first use, in Python floats: a process that draws nothing
    (a tree scenario) never builds it."""
    n = 1 << ANGLE_BITS
    e = n >> 3
    octant = [2.0 * math.pi * (k / n) for k in range(e + 1)]
    c = [math.cos(t) for t in octant]
    s = [math.sin(t) for t in octant]
    # the second octant: cos(pi/2 - t) = sin t
    c, s = c + s[e - 1 : 0 : -1], s + c[e - 1 : 0 : -1]
    # a quarter turn maps (cos, sin) to (-sin, cos), a half turn to their
    # negatives; 0.0 - x negates x exactly and keeps zeros positive
    c, s = c + [0.0 - x for x in s], s + c
    c, s = c + [0.0 - x for x in c], s + [0.0 - x for x in s]
    tables = np.array(c), np.array(s)
    for table in tables:
        table.setflags(write=False)
    return tables


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


def pairwise_sum(x, work=None):
    """Sum of a float64 vector over the canonical power-of-two reduction tree.

    The tree is fixed by the element indices alone (zero-padded to the next
    power of two, then halved level by level), so the result is a pure
    function of the input vector, independent of any chunking upstream.

    The padding is never built. A level of L entries adds entry 2i + 1 to
    entry 2i, and when L is odd its last entry meets a padding zero, so
    it is added to +0.0: the padded tree's bits, -0.0 + 0.0 = +0.0
    included. A single entry is the sum as it stands, -0.0 too. The levels
    alternate between the two parts of one scratch buffer, ceil(n/2) and
    ceil(n/4) entries, so every level reads and writes contiguous memory
    that does not overlap. The buffer is the ``Workspace`` ``work``'s
    "pairwise" (a fresh array by default); ``x`` is only read.
    """
    x = np.ravel(np.asarray(x, dtype=np.float64))
    n = x.size
    if n <= 1:
        return float(x[0]) if n else 0.0
    h1 = (n + 1) // 2
    h2 = (h1 + 1) // 2
    buf = np.empty(h1 + h2) if work is None else work.take("pairwise", (h1 + h2,))
    parts = (buf[h2:], buf[:h2])
    src, size, level = x, n, 0
    while size > 1:
        half = size // 2
        dst = parts[level % 2]
        np.add(src[0 : 2 * half : 2], src[1 : 2 * half : 2], out=dst[:half])
        if size % 2:
            dst[half] = src[size - 1] + 0.0
        src, size, level = dst, half + size % 2, level + 1
    return float(src[0])


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


def _angle_legs(a, cos_out, scratch, n_sin):
    """cos and sin of the Box-Muller angle theta = 2 pi (m + 1/2) 2**-53 of
    each 53-bit integer m (a word's top 53 bits) held in the float64 array
    ``a``: cos into ``cos_out``, sin in place in the first ``n_sin`` rows
    of ``a``. ``scratch`` holds four float64 arrays of a's shape, which
    are overwritten; nothing is allocated. The legs use only numpy's
    +, -, *, floor, casts and ``take``, which round alike on every CPU.

    With b = ANGLE_BITS and N = 2**b, m 2**(b - 53) = k + f splits
    exactly: k is m's top b bits and f < 1 the rest. So
    theta = 2 pi k / N + delta, delta = (f + 2**(b - 54)) 2 pi / N in
    (0, 2 pi / N), where f + 2**(b - 54) is exact too and delta's product
    by fl(2 pi) / N is its one rounding. k reads C and S, cos and sin of
    2 pi k / N, from the table; with z = delta**2, fixed polynomials give
    sd = delta + delta z (-1/6 + z / 120) for sin delta and
    cm = z (-1/2 + z (1/24 - z / 720)) for cos delta - 1; and by angle
    addition cos theta = C + (C cm - S sd), sin theta = S + (S cm + C sd),
    the small terms summed before C or S is added.

    Error against the exact legs, at b = 10 (|delta| < 2 pi / 1024 < 0.0062):
    - truncation: the series alternate with falling terms, so the first
      left out bounds each: delta**7 / 7! < 6.6e-20 for sin delta and
      delta**8 / 8! < 5.1e-23 for cos delta - 1, both below 2**-60
      (8.7e-19). b = 9 would need degree 7 for sin delta
      (delta**7 / 7! < 8.4e-18);
    - delta: fl(2 pi) lies 2.45e-16 below 2 pi, so delta is off by at most
      2.45e-16 / N + 2**-61 < 6.8e-19;
    - the table: a first-octant point 2 pi k / N is taken as
      fl(fl(2 pi) (k / N)), off by at most 2.45e-16 / 8 + 2**-54 < 8.7e-17,
      and math.cos and math.sin are within an ulp, 2**-53 below 1; the
      other octants are exact reflections, so every entry is within
      1.98e-16 of its value;
    - the sums: the small terms are below 0.0062, so each of the five
      roundings among them is within 2**-61 (4.4e-19), and the last
      addition is within 2**-54 (5.6e-17).
    Each leg is so within 1.98e-16 (1 + 0.0062) + 2**-54 + 3.0e-18 < 2.6e-16
    (``LEG_ERROR``) of the leg of the exact angle.
    """
    k, c, s, sd = scratch
    b = ANGLE_BITS
    # k + f, then the exact fraction f + 2**(b - 54), then delta
    a *= 2.0 ** (b - 53)
    np.floor(a, out=k)
    a -= k
    a += 2.0 ** (b - 54)
    a *= 2.0 * np.pi / (1 << b)
    # the table indices, in the rows sd takes later
    index = sd.view(np.int64)
    np.copyto(index, k, casting="unsafe")
    cos_table, sin_table = _angle_table()
    np.take(cos_table, index, out=c, mode="clip")
    np.take(sin_table, index, out=s, mode="clip")
    # z = delta**2 and sd in scratch, then cm in place of delta
    z = k
    np.multiply(a, a, out=z)
    np.multiply(z, 1.0 / 120.0, out=sd)
    sd -= 1.0 / 6.0
    sd *= z
    sd *= a
    sd += a
    cm = a
    np.multiply(z, -1.0 / 720.0, out=cm)
    cm += 1.0 / 24.0
    cm *= z
    cm -= 0.5
    cm *= z
    # cos theta into cos_out, then sin theta in place of cm
    np.multiply(s, sd, out=z)
    np.multiply(c, cm, out=cos_out)
    cos_out -= z
    cos_out += c
    cm, c, s, sd = cm[:n_sin], c[:n_sin], s[:n_sin], sd[:n_sin]
    cm *= s
    sd *= c
    cm += sd
    cm += s


def gaussian_field(seed, n_streams, n_steps, stream_offset=0, out=None, work=None):
    """Two independent standard-normal fields, each (n_streams, n_steps).

    Entry (i, k) depends only on (seed, stream_offset + i, k), so the output
    is bit-identical regardless of chunking, and a field of n_steps is the
    prefix of one of n_steps + 1. ``seed`` and every stream index must fit
    in 64 bits.

    The block (s, j) at counter (s, j, 0, 0) under key (seed, 0) serves
    steps 2j and 2j + 1 of stream s: its four words make one Box-Muller
    pair per field. Field 1 takes the radius r = sqrt(-2 log u) from word
    0, u its ``uniform_open`` uniform, and the angle from word 1, and
    field 2 words 2 and 3; r cos is the normal at step 2j and r sin the
    one at step 2j + 1. The angle of a word with top 53 bits m is
    theta = 2 pi (m + 1/2) 2**-53, whose cos and sin ``_angle_legs``
    builds from a table and short polynomials, within ``LEG_ERROR`` of
    the exact legs. With an odd n_steps, the last step reads only the cos
    legs of its block.

    The fields are written into ``out``, a pair of (n_streams, n_steps)
    float64 arrays (fresh arrays by default), and returned. They are drawn
    a tile of at most ``TILE_BLOCKS`` blocks at a time: up to that many
    consecutive streams, at as many step pairs as fit. The radius
    uniforms and the angle words' top bits fill one float64 row per word,
    after which the tile's blocks are spent and their buffer is the angle
    legs' scratch. Box-Muller runs in place in those rows and writes the
    normals into the fields through a transposed (step-major) view, whose
    rows are contiguous when the fields are time-major: cos lands in the
    even-step rows and is scaled there by r, then r sin in the odd-step
    rows. The tile's blocks and rows live in the ``Workspace`` ``work``
    (a fresh one by default), so repeated calls on one workspace allocate
    nothing.
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
            # rows 0 and 1: the radius words' uniforms; rows 2 and 3: the
            # angle words' top 53 bits, exact in float64
            words = blocks.T
            rows = work.take("uniforms", (4, nj * m))
            uniform_open(words[0::2], out=rows[:2])
            np.right_shift(words[1::2], np.uint64(11), out=rows[2:], casting="unsafe")
            scratch = blocks.reshape(-1).view(np.float64).reshape(4, nj, m)
            rows = rows.reshape(4, nj, m)
            for z, r, a in zip(out, rows[:2], rows[2:]):
                # r = sqrt(-2 log u), in place of the uniforms
                np.log(r, out=r)
                r *= -2.0
                np.sqrt(r, out=r)
                steps = z[i0:i1, 2 * j0 : min(2 * j1, n_steps)].T
                even, odd = steps[0::2], steps[1::2]
                _angle_legs(a, even, scratch, len(odd))
                even *= r
                np.multiply(a[: len(odd)], r[: len(odd)], out=odd)
    return out
