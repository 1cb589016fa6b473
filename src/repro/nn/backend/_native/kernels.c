/* kernels.c — C kernels behind the "native" compute backend.
 *
 * Direct convolution over NCHW float32 tensors, with no im2col column
 * matrix: the input is copied once into zero-padded planes and the
 * convolution runs as register-blocked loops over that copy.
 *
 * The flattened-plane formulation.  A stride-1 convolution over a
 * zero-padded plane stored at row pitch Wp is a 1-D correlation of the
 * *flattened* plane:
 *
 *     out_flat[q] = sum_{c,kh,kw} w[o,c,kh,kw] * xp_flat[c][q + kh*Wp + kw]
 *
 * so the kernels never look at rows.  The scratch copy is laid out
 * channel-major, (C, N*Hp*Wp): one flat row per channel holding all N
 * padded planes back to back, and the microkernels tile *consecutive q*
 * — across row boundaries and across sample boundaries.  Positions whose
 * column is >= OW or whose row is >= OH (the K-1 "garbage" columns/rows
 * of each padded plane) are computed and dropped at the store, so vector
 * occupancy is H*W / (Hp*Wp) for every plane width — 79 % at 16x16,
 * 64 % at 8x8, 44 % at 4x4, 25 % at 2x2 with K=3 — instead of "vector
 * at W >= 16, scalar below".  (Routing narrow planes to the inherited
 * im2col + BLAS path instead reaches the same speed but pins a column
 * buffer per layer: +51 % peak RSS on the VGG13 bench workload.  The
 * direct kernels pin only the input.)
 *
 * The same reformulation serves all three kernels:
 *   - forward: `conv_flat` over the padded input;
 *   - input gradient: `conv_flat` again, over the dilated-padded output
 *     gradient with the channel-transposed, spatially-flipped weights;
 *   - weight gradient: the output gradient is laid out at the *same*
 *     pitch with zeros in the garbage slots, and gw[o,c,kh,kw] is one
 *     long dot product of two flat rows (`wgrad_flat`).
 *
 * Slack.  A tile may read up to one tile plus (K-1)*(Wp+1) floats
 * past the last plane; every channel row of a flattened buffer
 * therefore ends in that much zeroed slack (`flat_pitch`), *inside* the
 * allocation — each flattened buffer is a malloc of its own, so under
 * ASan the slack is all that separates an over-read from a redzone —
 * and inputs are always copied (also for pad == 0): the caller's
 * arrays are never read past their end.
 *
 * Max pooling is a pair of its own: forward finds each window's maximum
 * and its uint8 position in one pass over the input (no columns), and
 * backward scatter-adds in the order col2im sums, so out, the index and
 * the input gradient are bitwise equal to the NumPy reference.  The
 * pooling unfold/fold (average pooling) round out the set (there is no
 * GEMM here: linear layers stay on BLAS).  Everything is exported with
 * C linkage and called through ctypes (see native_build.py for the
 * build recipe, native.py for dispatch).
 *
 * Numerical contract: float32 storage everywhere, float32 arithmetic in
 * the fma loops, float64 outer accumulators for the long reductions
 * (weight/bias gradients: a float32 lane sums at most WCHUNK/TILE
 * products before it is widened) so per-op equivalence with the NumPy
 * reference holds at atol <= 1e-5 without -ffast-math (which is
 * deliberately NOT used: linking crtfastmath.o from a shared library
 * would flip the process-wide FTZ/DAZ flags under NumPy's feet).
 *
 * Threading: every entry point parallelizes its outermost independent
 * loop with OpenMP when compiled with -fopenmp.  Each output position
 * (conv_flat: a chunk of consecutive q; max_pool2d: a chunk of cells),
 * each input-gradient plane (max_pool2d_backward) and each (o, c)
 * weight-gradient cell (wgrad_flat: a WB x WB block) is owned by exactly
 * one thread and is summed in an order that does not depend on the
 * partition, so there are no atomics and results are bitwise equal for
 * any thread count.
 *
 * Strided forward/weight-gradient, pad > K-1 input gradients,
 * allocation failure and compilers without GNU vector extensions fall
 * back to the naive bounds-checked loops at the bottom of this file, so
 * the exported entry points are total over all valid inputs.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(_MSC_VER)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

typedef int64_t i64;

/* One vector register of floats, through the GNU vector extensions
 * (GCC lowers a vector type wider than the target's registers piecewise
 * and slowly, so the width follows the target), and the register
 * blocking sized to that register file: conv_flat accumulates 4 output
 * channels x QV vectors of consecutive positions, wgrad_flat a WB x WB
 * block of dot products — 12 resp. 16 accumulators plus operands in
 * AVX-512's 32 registers, 8 resp. 9 in the 16 of AVX2/SSE.
 *
 * Accumulator blocks are small arrays of vf indexed only by
 * constant-bound loops: those unroll fully and stay in registers across
 * the hot loop, whereas equivalent float[4][TILE] locals verifiably
 * round-trip through the stack on every iteration, which makes the
 * kernels load/store bound instead of fma bound. */
#if defined(__GNUC__) && !defined(_MSC_VER)
#define HAVE_VEC 1
#if defined(__AVX512F__)
#define TILE 16 /* floats per vector */
#define QV 3
#define WB 4
#elif defined(__AVX__)
#define TILE 8
#define QV 2
#define WB 3
#else
#define TILE 4
#define QV 2
#define WB 3
#endif
#define QT (QV * TILE) /* positions per conv_flat tile */
typedef float vf __attribute__((vector_size(TILE * sizeof(float))));
static inline vf vf_load(const float *p) {
    vf v;
    memcpy(&v, p, sizeof(v));
    return v;
}
static inline void vf_store(float *p, vf v) { memcpy(p, &v, sizeof(v)); }
static inline vf vf_set1(float s) {
    /* A brace initializer, which compiles to one broadcast; a lane loop
     * compiles to TILE inserts. */
#if TILE == 16
    return (vf){s, s, s, s, s, s, s, s, s, s, s, s, s, s, s, s};
#elif TILE == 8
    return (vf){s, s, s, s, s, s, s, s};
#else
    return (vf){s, s, s, s};
#endif
}
static inline float vf_sum(vf v) {
    /* Explicit halving tree over 4-float quarters: a sequential
     * s += v[i] loop cannot be reordered without -fassociative-math and
     * serializes on add latency. */
    typedef float quad __attribute__((vector_size(16)));
    quad part[TILE / 4];
    memcpy(part, &v, sizeof(v));
    for (int half = TILE / 8; half > 0; half /= 2)
        for (int i = 0; i < half; i++)
            part[i] += part[i + half];
    return (part[0][0] + part[0][1]) + (part[0][2] + part[0][3]);
}
#endif

static void conv2d_forward_naive(const float *x, const float *w,
                                 const float *bias, float *out, i64 N, i64 C,
                                 i64 H, i64 W, i64 O, i64 K, i64 stride,
                                 i64 pad, i64 OH, i64 OW);
static void conv2d_backward_input_naive(const float *g, const float *w,
                                        float *gx, i64 N, i64 C, i64 H, i64 W,
                                        i64 O, i64 K, i64 stride, i64 pad,
                                        i64 OH, i64 OW);
static void conv2d_backward_weight_naive(const float *x, const float *g,
                                         float *gw, float *gb, i64 N, i64 C,
                                         i64 H, i64 W, i64 O, i64 K,
                                         i64 stride, i64 pad, i64 OH, i64 OW);

/* Valid output range [*lo, *hi) along one spatial axis such that the
 * input index iw = ow*stride - pad + k stays inside [0, W). */
static void ow_range(i64 W, i64 OW, i64 stride, i64 pad, i64 k, i64 *lo,
                     i64 *hi) {
    i64 shift = k - pad; /* iw = ow*stride + shift */
    i64 lo_ = 0, hi_ = OW;
    if (shift < 0)
        lo_ = (-shift + stride - 1) / stride;
    i64 max_iw = W - 1 - shift;
    if (max_iw < 0)
        hi_ = 0;
    else {
        i64 last = max_iw / stride;
        if (last + 1 < hi_)
            hi_ = last + 1;
    }
    if (hi_ < lo_)
        hi_ = lo_;
    *lo = lo_;
    *hi = hi_;
}

#if defined(HAVE_VEC)

static inline i64 min_i64(i64 a, i64 b) { return a < b ? a : b; }
static inline i64 round_up(i64 a, i64 m) { return (a + m - 1) / m * m; }

/* Floats per channel row of a flattened scratch buffer: L positions,
 * rounded up to whole tiles, plus the farthest tap offset — the slack a
 * tile at the last position may read. */
static i64 flat_pitch(i64 L, i64 K, i64 Wp) {
    return round_up(L, QT) + (K - 1) * (Wp + 1);
}

/* Copy src:(N, C, H, W) into the channel-major flattened layout
 * dst:(rows, pitch): row c holds the N planes of channel c, each
 * (Hp, Wp), back to back; source element (h, w) lands at
 * (border + h*dil, border + w*dil).  Everything else — padding,
 * dilation holes, the slack after the last plane, rows [C, rows) — is
 * zero. */
static void flatten_planes(const float *restrict src, float *restrict dst,
                           i64 N, i64 C, i64 rows, i64 H, i64 W, i64 Hp,
                           i64 Wp, i64 border, i64 dil, i64 pitch) {
    memset(dst, 0, (size_t)(rows * pitch) * sizeof(float));
    i64 pl;
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (pl = 0; pl < N * C; pl++) {
        const i64 n = pl / C, c = pl % C;
        const float *sp = src + pl * H * W;
        float *dp = dst + c * pitch + (n * Hp + border) * Wp + border;
        for (i64 h = 0; h < H; h++) {
            float *row = dp + h * dil * Wp;
            for (i64 i = 0; i < W; i++)
                row[i * dil] = sp[h * W + i];
        }
    }
}

/* Pack weights for conv_flat: blocks of 4 output channels, each block
 * C*KK taps of 4 floats (one per channel of the block, zero past O)
 * followed by the block's 4 biases.  Source element (o, c, k) is read
 * at w[o*so + c*sc + k], or at the spatially flipped tap when `flip`
 * (the input gradient's transposed kernel). */
static void pack_weights(const float *restrict w, const float *restrict bias,
                         float *restrict wp, i64 O, i64 C, i64 KK, i64 so,
                         i64 sc, int flip) {
    for (i64 ob = 0; ob < O; ob += 4) {
        for (i64 c = 0; c < C; c++)
            for (i64 k = 0; k < KK; k++)
                for (i64 j = 0; j < 4; j++)
                    *wp++ = (ob + j < O) ? w[(ob + j) * so + c * sc +
                                             (flip ? KK - 1 - k : k)]
                                         : 0.0f;
        for (i64 j = 0; j < 4; j++)
            *wp++ = (bias && ob + j < O) ? bias[ob + j] : 0.0f;
    }
}

/* ------------------------------------------------------------------ */
/* Microkernel: 4 output channels x QT consecutive flat positions.     */
/*                                                                     */
/* xq points at position q of channel 0; tap k of the C*K*K reads the  */
/* vectors at xq + toff[k].  One input load feeds 4 fused              */
/* multiply-adds.  Results (bias added) go to t:(4, QT).               */
/* ------------------------------------------------------------------ */
static inline void conv_block(const float *restrict xq,
                              const i64 *restrict toff,
                              const float *restrict wb, i64 CKK,
                              float *restrict t) {
    vf a[4][QV];
    for (int j = 0; j < 4; j++)
        for (int v = 0; v < QV; v++)
            a[j][v] = vf_set1(0.0f);
    for (i64 k = 0; k < CKK; k++, wb += 4) {
        vf x[QV];
        for (int v = 0; v < QV; v++)
            x[v] = vf_load(xq + toff[k] + v * TILE);
        for (int j = 0; j < 4; j++) {
            const vf w = vf_set1(wb[j]);
            for (int v = 0; v < QV; v++)
                a[j][v] += w * x[v];
        }
    }
    for (int j = 0; j < 4; j++)
        for (int v = 0; v < QV; v++)
            vf_store(t + j * QT + v * TILE, a[j][v] + vf_set1(wb[j]));
}

/* Tiles per parallel work item of conv_flat: one division to locate
 * the chunk's first position, then the (sample, row, column) of every
 * tile follows incrementally. */
#define QCHUNK (16 * QT)

/* ------------------------------------------------------------------ */
/* Stride-1 valid convolution over flattened padded planes.            */
/*                                                                     */
/* src:(N, C, Hs, Ws) is flattened into (Hp, Wp) planes (element       */
/* (h, w) at (border + h*dil, border + w*dil), see flatten_planes) and */
/* convolved with w as addressed by (so, sc, flip) (see pack_weights)  */
/* into out:(N, O, Hp-K+1, Wp-K+1), dense.  Every tile of QT           */
/* consecutive positions is computed in full; only the runs that are   */
/* real output columns of real output rows are stored.  Returns 0,     */
/* with out untouched, when the scratch cannot be allocated.           */
/* ------------------------------------------------------------------ */
static int conv_flat(const float *restrict src, const float *restrict w,
                     const float *restrict bias, float *restrict out, i64 N,
                     i64 C, i64 Hs, i64 Ws, i64 Hp, i64 Wp, i64 border,
                     i64 dil, i64 O, i64 K, i64 so, i64 sc, int flip) {
    const i64 OH = Hp - K + 1, OW = Wp - K + 1;
    const i64 L = N * Hp * Wp, CKK = C * K * K;
    const i64 pitch = flat_pitch(L, K, Wp);
    const i64 wblock = CKK * 4 + 4; /* packed floats per 4 channels */
    /* The planes get an allocation of their own: the slack they end in
     * is the only thing between a tile's over-read and the heap. */
    float *xp = malloc((size_t)(C * pitch) * sizeof(float));
    i64 *toff = malloc((size_t)CKK * sizeof(i64) +
                       (size_t)((O + 3) / 4 * wblock) * sizeof(float));
    if (!xp || !toff) {
        free(xp);
        free(toff);
        return 0;
    }
    float *wp = (float *)(toff + CKK);
    flatten_planes(src, xp, N, C, C, Hs, Ws, Hp, Wp, border, dil, pitch);
    pack_weights(w, bias, wp, O, C, K * K, so, sc, flip);
    for (i64 c = 0; c < C; c++)
        for (i64 kh = 0; kh < K; kh++)
            for (i64 kw = 0; kw < K; kw++)
                toff[(c * K + kh) * K + kw] = c * pitch + kh * Wp + kw;
    i64 chunk;
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (chunk = 0; chunk < (L + QCHUNK - 1) / QCHUNK; chunk++) {
        i64 q = chunk * QCHUNK;
        const i64 qend = min_i64(q + QCHUNK, L);
        i64 col = q % Wp, oh = (q / Wp) % Hp, n = q / (Wp * Hp);
        for (; q < qend; q += QT) {
            /* Valid runs of this tile: lanes [lane, lane+len) are
             * output elements off.. of channel 0 of their sample. */
            i64 lane[QT], len[QT], off[QT];
            i64 runs = 0;
            for (i64 i = 0; i < QT && n < N;) {
                const i64 seg = min_i64(Wp - col, QT - i);
                if (oh < OH && col < OW) {
                    lane[runs] = i;
                    len[runs] = min_i64(OW - col, seg);
                    off[runs] = (n * O * OH + oh) * OW + col;
                    runs++;
                }
                i += seg;
                col += seg;
                if (col == Wp) {
                    col = 0;
                    if (++oh == Hp) {
                        oh = 0;
                        n++;
                    }
                }
            }
            if (!runs)
                continue;
            for (i64 ob = 0; ob < O; ob += 4) {
                float t[4 * QT];
                conv_block(xp + q, toff, wp + (ob / 4) * wblock, CKK, t);
                for (i64 j = 0; j < min_i64(4, O - ob); j++) {
                    float *op = out + (ob + j) * OH * OW;
                    for (i64 r = 0; r < runs; r++)
                        memcpy(op + off[r], t + j * QT + lane[r],
                               (size_t)len[r] * sizeof(float));
                }
            }
        }
    }
    free(xp);
    free(toff);
    return 1;
}

/* Positions per weight-gradient chunk: a float32 lane accumulates
 * WCHUNK/TILE products before it is widened to float64, and the 2*WB
 * operand rows of one chunk stay in L1 across the K*K taps. */
#define WCHUNK (64 * TILE)

/* ------------------------------------------------------------------ */
/* Microkernel: WB x WB block of dot products over `tiles` tiles.      */
/* s[j*WB+i] = sum_q g[j*pitch + q] * x[i*pitch + q].                  */
/* ------------------------------------------------------------------ */
static inline void dot_block(const float *restrict g,
                             const float *restrict x, i64 pitch, i64 tiles,
                             float *restrict s) {
    vf a[WB][WB];
    for (int j = 0; j < WB; j++)
        for (int i = 0; i < WB; i++)
            a[j][i] = vf_set1(0.0f);
    for (i64 t = 0; t < tiles; t++, g += TILE, x += TILE) {
        vf xv[WB];
        for (int i = 0; i < WB; i++)
            xv[i] = vf_load(x + i * pitch);
        for (int j = 0; j < WB; j++) {
            const vf gv = vf_load(g + j * pitch);
            for (int i = 0; i < WB; i++)
                a[j][i] += gv * xv[i];
        }
    }
    for (int j = 0; j < WB; j++)
        for (int i = 0; i < WB; i++)
            s[j * WB + i] = vf_sum(a[j][i]);
}

/* ------------------------------------------------------------------ */
/* Stride-1 weight/bias gradient over flattened planes.                */
/*                                                                     */
/* x is flattened into padded (Hp, Wp) planes and g into planes of the */
/* same pitch with zeros in the garbage slots, both rounded up to a    */
/* multiple of WB zero rows; gw[o,c,kh,kw] is then the dot product of  */
/* g row o with x row c shifted by kh*Wp + kw, and gb[o] the sum of g  */
/* row o.  Returns 0, with nothing written, when the scratch cannot    */
/* be allocated.                                                       */
/* ------------------------------------------------------------------ */
static int wgrad_flat(const float *restrict x, const float *restrict g,
                      float *restrict gw, float *restrict gb, i64 N, i64 C,
                      i64 H, i64 W, i64 O, i64 K, i64 pad) {
    const i64 Hp = H + 2 * pad, Wp = W + 2 * pad, L = N * Hp * Wp;
    const i64 KK = K * K, cblocks = (C + WB - 1) / WB;
    const i64 oblocks = (O + WB - 1) / WB;
    const i64 pitch = flat_pitch(L, K, Wp);
    /* Separate allocations, each ending in its own slack (see
     * conv_flat). */
    float *xp = malloc((size_t)(cblocks * WB * pitch) * sizeof(float));
    float *gp = malloc((size_t)(oblocks * WB * pitch) * sizeof(float));
    double *acc = malloc((size_t)(oblocks * cblocks * KK * WB * WB) *
                         sizeof(double));
    if (!xp || !gp || !acc) {
        free(xp);
        free(gp);
        free(acc);
        return 0;
    }
    flatten_planes(x, xp, N, C, cblocks * WB, H, W, Hp, Wp, pad, 1, pitch);
    flatten_planes(g, gp, N, O, oblocks * WB, Hp - K + 1, Wp - K + 1, Hp, Wp,
                   0, 1, pitch);
    i64 blk, o;
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (blk = 0; blk < oblocks * cblocks; blk++) {
        const i64 ob = blk / cblocks * WB, cb = blk % cblocks * WB;
        double *ab = acc + blk * KK * WB * WB;
        for (i64 i = 0; i < KK * WB * WB; i++)
            ab[i] = 0.0;
        for (i64 q = 0; q < L; q += WCHUNK) {
            const i64 tiles = (min_i64(WCHUNK, L - q) + TILE - 1) / TILE;
            for (i64 k = 0; k < KK; k++) {
                float s[WB * WB];
                dot_block(gp + ob * pitch + q,
                          xp + cb * pitch + q + (k / K) * Wp + k % K, pitch,
                          tiles, s);
                for (int i = 0; i < WB * WB; i++)
                    ab[k * WB * WB + i] += (double)s[i];
            }
        }
        for (i64 j = 0; j < min_i64(WB, O - ob); j++)
            for (i64 i = 0; i < min_i64(WB, C - cb); i++)
                for (i64 k = 0; k < KK; k++)
                    gw[((ob + j) * C + cb + i) * KK + k] =
                        (float)ab[(k * WB + j) * WB + i];
    }
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (o = 0; o < (gb ? O : 0); o++) {
        double bacc = 0.0;
        for (i64 q = 0; q < L; q += WCHUNK) {
            vf a = vf_set1(0.0f);
            for (i64 i = q; i < min_i64(q + WCHUNK, L); i += TILE)
                a += vf_load(gp + o * pitch + i);
            bacc += (double)vf_sum(a);
        }
        gb[o] = (float)bacc;
    }
    free(xp);
    free(gp);
    free(acc);
    return 1;
}

#endif /* HAVE_VEC */

/* ------------------------------------------------------------------ */
/* Convolution forward.                                                */
/* ------------------------------------------------------------------ */
EXPORT void conv2d_forward(const float *x, const float *w, const float *bias,
                           float *out, i64 N, i64 C, i64 H, i64 W, i64 O,
                           i64 K, i64 stride, i64 pad, i64 OH, i64 OW) {
#if defined(HAVE_VEC)
    if (stride == 1 &&
        conv_flat(x, w, bias, out, N, C, H, W, H + 2 * pad, W + 2 * pad, pad,
                  1, O, K, C * K * K, K * K, 0))
        return;
#endif
    conv2d_forward_naive(x, w, bias, out, N, C, H, W, O, K, stride, pad, OH,
                         OW);
}

/* ------------------------------------------------------------------ */
/* Convolution input gradient, as a convolution: gx is the stride-1    */
/* valid conv of the dilated-padded output gradient with the           */
/* channel-transposed, spatially-flipped weights                       */
/* wt[c][o][k] = w[o][c][K*K-1-k].                                     */
/* ------------------------------------------------------------------ */
EXPORT void conv2d_backward_input(const float *g, const float *w, float *gx,
                                  i64 N, i64 C, i64 H, i64 W, i64 O, i64 K,
                                  i64 stride, i64 pad, i64 OH, i64 OW) {
#if defined(HAVE_VEC)
    /* g is dilated by the stride and padded by q = K-1-pad; when
     * (H + 2p - K) is not divisible by the stride the last input
     * rows/cols are only reached by the smaller taps, and the extra
     * bottom/right padding that accounts for them makes the padded
     * plane exactly (H + K - 1, W + K - 1), i.e. the valid conv output
     * (H, W). */
    const i64 q = K - 1 - pad;
    if (q >= 0 && conv_flat(g, w, NULL, gx, N, O, OH, OW, H + K - 1,
                            W + K - 1, q, stride, C, K, K * K, C * K * K, 1))
        return;
#endif
    conv2d_backward_input_naive(g, w, gx, N, C, H, W, O, K, stride, pad, OH,
                                OW);
}

/* ------------------------------------------------------------------ */
/* Convolution weight/bias gradient.                                   */
/* gw[o,c,kh,kw] = sum_{n,oh,ow} g[n,o,oh,ow] * xpad[n,c,oh*s+kh,..]   */
/* ------------------------------------------------------------------ */
EXPORT void conv2d_backward_weight(const float *x, const float *g, float *gw,
                                   float *gb, i64 N, i64 C, i64 H, i64 W,
                                   i64 O, i64 K, i64 stride, i64 pad, i64 OH,
                                   i64 OW) {
#if defined(HAVE_VEC)
    if (stride == 1 && wgrad_flat(x, g, gw, gb, N, C, H, W, O, K, pad))
        return;
#endif
    conv2d_backward_weight_naive(x, g, gw, gb, N, C, H, W, O, K, stride, pad,
                                 OH, OW);
}

/* ------------------------------------------------------------------ */
/* unfold (im2col): cols:(N, C*K*K, OH*OW), padded slots get `fill`.   */
/* ------------------------------------------------------------------ */
EXPORT void unfold(const float *x, float *cols, i64 N, i64 C, i64 H, i64 W,
                   i64 K, i64 stride, i64 pad, i64 OH, i64 OW, float fill) {
    i64 n, c;
#if defined(_OPENMP)
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (n = 0; n < N; n++) {
        for (c = 0; c < C; c++) {
            const float *xpl = x + ((n * C + c) * H) * W;
            for (i64 kh = 0; kh < K; kh++) {
                for (i64 kw = 0; kw < K; kw++) {
                    float *col =
                        cols +
                        (n * C * K * K + (c * K + kh) * K + kw) * OH * OW;
                    i64 lo, hi;
                    ow_range(W, OW, stride, pad, kw, &lo, &hi);
                    const i64 base = lo * stride - pad + kw;
                    for (i64 oh = 0; oh < OH; oh++) {
                        float *dst = col + oh * OW;
                        const i64 ih = oh * stride - pad + kh;
                        if (ih < 0 || ih >= H) {
                            for (i64 i = 0; i < OW; i++)
                                dst[i] = fill;
                            continue;
                        }
                        for (i64 i = 0; i < lo; i++)
                            dst[i] = fill;
                        const float *xr = xpl + ih * W + base;
                        if (stride == 1) {
                            for (i64 i = 0; i < hi - lo; i++)
                                dst[lo + i] = xr[i];
                        } else {
                            for (i64 i = 0; i < hi - lo; i++)
                                dst[lo + i] = xr[i * stride];
                        }
                        for (i64 i = hi; i < OW; i++)
                            dst[i] = fill;
                    }
                }
            }
        }
    }
}

/* fold (col2im): adjoint scatter-add of unfold; gx is overwritten.    */
EXPORT void fold(const float *cols, float *gx, i64 N, i64 C, i64 H, i64 W,
                 i64 K, i64 stride, i64 pad, i64 OH, i64 OW) {
    i64 n, c;
#if defined(_OPENMP)
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (n = 0; n < N; n++) {
        for (c = 0; c < C; c++) {
            float *gxp = gx + ((n * C + c) * H) * W;
            memset(gxp, 0, (size_t)(H * W) * sizeof(float));
            for (i64 kh = 0; kh < K; kh++) {
                for (i64 kw = 0; kw < K; kw++) {
                    const float *col =
                        cols +
                        (n * C * K * K + (c * K + kh) * K + kw) * OH * OW;
                    i64 lo, hi;
                    ow_range(W, OW, stride, pad, kw, &lo, &hi);
                    if (hi <= lo)
                        continue;
                    const i64 len = hi - lo;
                    const i64 base = lo * stride - pad + kw;
                    for (i64 oh = 0; oh < OH; oh++) {
                        const i64 ih = oh * stride - pad + kh;
                        if (ih < 0 || ih >= H)
                            continue;
                        float *gxr = gxp + ih * W + base;
                        const float *cr = col + oh * OW + lo;
                        if (stride == 1) {
                            for (i64 i = 0; i < len; i++)
                                gxr[i] += cr[i];
                        } else {
                            for (i64 i = 0; i < len; i++)
                                gxr[i * stride] += cr[i];
                        }
                    }
                }
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Max pooling.  idx[n,c,oh,ow] is the window position kh*K + kw of   */
/* the winner under np.argmax's rule — the first maximum, or the first */
/* NaN — with padded slots reading -inf; out holds the winner's value. */
/* idx == NULL (no-grad) stores out only.  K <= 16, so a position fits */
/* a uint8.                                                            */
/*                                                                     */
/* A window is a handful of taps and VGG-style planes are a few cells  */
/* wide, so the vector lanes run across PT consecutive output cells —  */
/* across row and plane boundaries, like conv_flat's tiles — with one  */
/* gathered load per lane and tap.  The update is a masked select:     */
/* whichever tap wins is a coin toss on ReLU outputs, and the scalar   */
/* select GCC turns into a branch measured 3-4x slower.  Only tiles    */
/* that touch the padding ring pay for bounds checks.                  */
/* ------------------------------------------------------------------ */
#if defined(HAVE_VEC)
#define PT TILE /* output cells per pooling tile */
typedef int32_t vi __attribute__((vector_size(TILE * sizeof(int32_t))));
#define PCHUNK (16 * PT)

EXPORT void max_pool2d(const float *x, float *out, uint8_t *idx, i64 N, i64 C,
                       i64 H, i64 W, i64 K, i64 stride, i64 pad, i64 OH,
                       i64 OW) {
    const i64 cells = N * C * OH * OW;
    i64 chunk;
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (chunk = 0; chunk < (cells + PCHUNK - 1) / PCHUNK; chunk++) {
        i64 q = chunk * PCHUNK;
        const i64 qend = min_i64(q + PCHUNK, cells);
        i64 ow = q % OW, oh = q / OW % OH, pl = q / (OW * OH);
        for (; q < qend; q += PT) {
            /* Lanes past the last cell repeat it and are not stored. */
            const i64 n = min_i64(PT, qend - q);
            i64 base[PT], ih0[PT], iw0[PT];
            int border = 0;
            for (i64 l = 0; l < PT; l++) {
                ih0[l] = oh * stride - pad;
                iw0[l] = ow * stride - pad;
                base[l] = (pl * H + ih0[l]) * W + iw0[l];
                /* Unpadded windows always fit (OH, OW count only those). */
                if (pad)
                    border |= (ih0[l] < 0) | (iw0[l] < 0) | (ih0[l] + K > H) |
                              (iw0[l] + K > W);
                if (l < n - 1 && ++ow == OW) {
                    ow = 0;
                    if (++oh == OH) {
                        oh = 0;
                        pl++;
                    }
                }
            }
            if (++ow == OW) { /* step past the tile's last cell */
                ow = 0;
                if (++oh == OH) {
                    oh = 0;
                    pl++;
                }
            }
            /* A first tap of -inf keeps at = 0; a first NaN takes it. */
            vf best = vf_set1(-INFINITY);
            vi at = {0};
            for (i64 kh = 0; kh < K; kh++) {
                for (i64 kw = 0; kw < K; kw++) {
                    const i64 off = kh * W + kw;
                    vf v;
                    if (!border) {
                        for (i64 l = 0; l < PT; l++)
                            v[l] = x[base[l] + off];
                    } else {
                        for (i64 l = 0; l < PT; l++) {
                            const i64 ih = ih0[l] + kh, iw = iw0[l] + kw;
                            v[l] = (ih >= 0 && ih < H && iw >= 0 && iw < W)
                                       ? x[base[l] + off]
                                       : -INFINITY;
                        }
                    }
                    /* v != v is the NaN test (no -ffast-math here). */
                    const vi take = (v > best) | ((v != v) & (best == best));
                    best = (vf)(((vi)v & take) | ((vi)best & ~take));
                    const vi pos = (vi){0} + (int32_t)(kh * K + kw);
                    at = (pos & take) | (at & ~take);
                }
            }
            memcpy(out + q, &best, (size_t)n * sizeof(float));
            for (i64 l = 0; idx && l < n; l++)
                idx[q + l] = (uint8_t)at[l];
        }
    }
}
#else
/* Without vector extensions: the same rule, one cell at a time. */
EXPORT void max_pool2d(const float *x, float *out, uint8_t *idx, i64 N, i64 C,
                       i64 H, i64 W, i64 K, i64 stride, i64 pad, i64 OH,
                       i64 OW) {
    for (i64 cell = 0; cell < N * C * OH * OW; cell++) {
        const i64 ow = cell % OW, oh = cell / OW % OH, pl = cell / (OW * OH);
        float best = -INFINITY;
        int at = 0;
        for (i64 kh = 0; kh < K; kh++) {
            for (i64 kw = 0; kw < K; kw++) {
                const i64 ih = oh * stride - pad + kh;
                const i64 iw = ow * stride - pad + kw;
                const float v = (ih >= 0 && ih < H && iw >= 0 && iw < W)
                                    ? x[(pl * H + ih) * W + iw]
                                    : -INFINITY;
                if (v > best || (v != v && best == best)) {
                    best = v;
                    at = (int)(kh * K + kw);
                }
            }
        }
        out[cell] = best;
        if (idx)
            idx[cell] = (uint8_t)at;
    }
}
#endif

/* Max-pooling input gradient, one plane per work item; gx is          */
/* overwritten and index entries naming a padded slot route nowhere.   */
/* The cells go in reverse order: a later cell reaches a shared pixel  */
/* from an earlier window position, so every pixel's terms arrive in   */
/* ascending position — the order col2im sums them in — and the bits   */
/* equal the reference's also where windows overlap.                   */
EXPORT void max_pool2d_backward(const float *g, const uint8_t *idx, float *gx,
                                i64 N, i64 C, i64 H, i64 W, i64 K, i64 stride,
                                i64 pad, i64 OH, i64 OW) {
    /* Window row/column of every uint8 position: no division per cell. */
    i64 dh[256], dw[256], pl;
    for (i64 p = 0; p < 256; p++) {
        dh[p] = p / K;
        dw[p] = p % K;
    }
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (pl = 0; pl < N * C; pl++) {
        float *gxp = gx + pl * H * W;
        const float *gp = g + pl * OH * OW;
        const uint8_t *ip = idx + pl * OH * OW;
        memset(gxp, 0, (size_t)(H * W) * sizeof(float));
        for (i64 oh = OH - 1; oh >= 0; oh--) {
            for (i64 ow = OW - 1; ow >= 0; ow--) {
                const uint8_t p = ip[oh * OW + ow];
                const i64 ih = oh * stride - pad + dh[p];
                const i64 iw = ow * stride - pad + dw[p];
                if (ih >= 0 && ih < H && iw >= 0 && iw < W)
                    gxp[ih * W + iw] += gp[oh * OW + ow];
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Naive bounds-checked fallbacks (allocation failure, exotic pad).    */
/* ------------------------------------------------------------------ */
static void conv2d_forward_naive(const float *x, const float *w,
                                 const float *bias, float *out, i64 N, i64 C,
                                 i64 H, i64 W, i64 O, i64 K, i64 stride,
                                 i64 pad, i64 OH, i64 OW) {
    i64 n, o;
#if defined(_OPENMP)
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (n = 0; n < N; n++) {
        for (o = 0; o < O; o++) {
            float *op = out + ((n * O + o) * OH) * OW;
            const float b = bias ? bias[o] : 0.0f;
            for (i64 i = 0; i < OH * OW; i++)
                op[i] = b;
            for (i64 c = 0; c < C; c++) {
                const float *xpl = x + ((n * C + c) * H) * W;
                const float *wp = w + ((o * C + c) * K) * K;
                for (i64 kh = 0; kh < K; kh++) {
                    for (i64 kw = 0; kw < K; kw++) {
                        const float wv = wp[kh * K + kw];
                        i64 lo, hi;
                        ow_range(W, OW, stride, pad, kw, &lo, &hi);
                        if (hi <= lo)
                            continue;
                        const i64 len = hi - lo;
                        const i64 base = lo * stride - pad + kw;
                        for (i64 oh = 0; oh < OH; oh++) {
                            const i64 ih = oh * stride - pad + kh;
                            if (ih < 0 || ih >= H)
                                continue;
                            const float *xr = xpl + ih * W + base;
                            float *orow = op + oh * OW + lo;
                            for (i64 i = 0; i < len; i++)
                                orow[i] += wv * xr[i * stride];
                        }
                    }
                }
            }
        }
    }
}

static void conv2d_backward_input_naive(const float *g, const float *w,
                                        float *gx, i64 N, i64 C, i64 H, i64 W,
                                        i64 O, i64 K, i64 stride, i64 pad,
                                        i64 OH, i64 OW) {
    i64 n, c;
#if defined(_OPENMP)
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (n = 0; n < N; n++) {
        for (c = 0; c < C; c++) {
            float *gxp = gx + ((n * C + c) * H) * W;
            memset(gxp, 0, (size_t)(H * W) * sizeof(float));
            for (i64 o = 0; o < O; o++) {
                const float *gp = g + ((n * O + o) * OH) * OW;
                const float *wp = w + ((o * C + c) * K) * K;
                for (i64 kh = 0; kh < K; kh++) {
                    for (i64 kw = 0; kw < K; kw++) {
                        const float wv = wp[kh * K + kw];
                        i64 lo, hi;
                        ow_range(W, OW, stride, pad, kw, &lo, &hi);
                        if (hi <= lo)
                            continue;
                        const i64 len = hi - lo;
                        const i64 base = lo * stride - pad + kw;
                        for (i64 oh = 0; oh < OH; oh++) {
                            const i64 ih = oh * stride - pad + kh;
                            if (ih < 0 || ih >= H)
                                continue;
                            float *gxr = gxp + ih * W + base;
                            const float *gr = gp + oh * OW + lo;
                            for (i64 i = 0; i < len; i++)
                                gxr[i * stride] += wv * gr[i];
                        }
                    }
                }
            }
        }
    }
}

static void conv2d_backward_weight_naive(const float *x, const float *g,
                                         float *gw, float *gb, i64 N, i64 C,
                                         i64 H, i64 W, i64 O, i64 K,
                                         i64 stride, i64 pad, i64 OH,
                                         i64 OW) {
    i64 o;
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (o = 0; o < O; o++) {
        if (gb) {
            double bacc = 0.0;
            for (i64 n = 0; n < N; n++) {
                const float *gp = g + ((n * O + o) * OH) * OW;
                for (i64 i = 0; i < OH * OW; i++)
                    bacc += (double)gp[i];
            }
            gb[o] = (float)bacc;
        }
        for (i64 c = 0; c < C; c++) {
            for (i64 kh = 0; kh < K; kh++) {
                for (i64 kw = 0; kw < K; kw++) {
                    i64 lo, hi;
                    ow_range(W, OW, stride, pad, kw, &lo, &hi);
                    const i64 len = hi - lo;
                    const i64 base = lo * stride - pad + kw;
                    double acc = 0.0;
                    if (len > 0) {
                        for (i64 n = 0; n < N; n++) {
                            const float *gp = g + ((n * O + o) * OH) * OW;
                            const float *xpl = x + ((n * C + c) * H) * W;
                            for (i64 oh = 0; oh < OH; oh++) {
                                const i64 ih = oh * stride - pad + kh;
                                if (ih < 0 || ih >= H)
                                    continue;
                                const float *gr = gp + oh * OW + lo;
                                const float *xr = xpl + ih * W + base;
                                float dot = 0.0f;
                                for (i64 i = 0; i < len; i++)
                                    dot += gr[i] * xr[i * stride];
                                acc += (double)dot;
                            }
                        }
                    }
                    gw[((o * C + c) * K + kh) * K + kw] = (float)acc;
                }
            }
        }
    }
}
