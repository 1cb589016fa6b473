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
 *   - input gradient: `conv_flat` again, over the output gradient
 *     padded by K-1-pad, with the channel-transposed, spatially-flipped
 *     weights;
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
 * the input gradient are bitwise equal to the NumPy reference.  Batch
 * normalisation is the third pair (its own header below), and the
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
 * Threading: every entry point but the batch-norm pair parallelizes its
 * outermost independent loop with OpenMP when compiled with -fopenmp.  Each output position
 * (conv_flat: a chunk of consecutive q; max_pool2d: a chunk of cells),
 * each input-gradient plane (max_pool2d_backward) and each (o, c)
 * weight-gradient cell (wgrad_flat: a WB x WB block) is owned by exactly
 * one thread and is summed in an order that does not depend on the
 * partition, so there are no atomics and results are bitwise equal for
 * any thread count.
 *
 * Domain.  The conv entry points take stride 1 with pad <= K-1 and
 * nothing else: the caller (native.py) sends every other convolution to
 * the im2col + BLAS path, which is also faster there.  They return 1 on
 * success and 0, with nothing written, when their scratch cannot be
 * allocated; the caller raises.  The file needs the GNU vector
 * extensions (GCC, Clang); any other compiler stops at #error, and the
 * native backend then reports itself unavailable.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if !defined(__GNUC__)
#error "kernels.c needs the GNU vector extensions (GCC or Clang)"
#endif

#define EXPORT __attribute__((visibility("default")))

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
 * (border + h, border + w).  Everything else — padding, the slack
 * after the last plane, rows [C, rows) — is zero. */
static void flatten_planes(const float *restrict src, float *restrict dst,
                           i64 N, i64 C, i64 rows, i64 H, i64 W, i64 Hp,
                           i64 Wp, i64 border, i64 pitch) {
    memset(dst, 0, (size_t)(rows * pitch) * sizeof(float));
    i64 pl;
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (pl = 0; pl < N * C; pl++) {
        const i64 n = pl / C, c = pl % C;
        const float *sp = src + pl * H * W;
        float *dp = dst + c * pitch + (n * Hp + border) * Wp + border;
        for (i64 h = 0; h < H; h++)
            memcpy(dp + h * Wp, sp + h * W, (size_t)W * sizeof(float));
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
/* (h, w) at (border + h, border + w), see flatten_planes) and         */
/* convolved with w as addressed by (so, sc, flip) (see pack_weights)  */
/* into out:(N, O, Hp-K+1, Wp-K+1), dense.  Every tile of QT           */
/* consecutive positions is computed in full; only the runs that are   */
/* real output columns of real output rows are stored.  Returns 0,     */
/* with out untouched, when the scratch cannot be allocated.           */
/* ------------------------------------------------------------------ */
static int conv_flat(const float *restrict src, const float *restrict w,
                     const float *restrict bias, float *restrict out, i64 N,
                     i64 C, i64 Hs, i64 Ws, i64 Hp, i64 Wp, i64 border,
                     i64 O, i64 K, i64 so, i64 sc, int flip) {
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
    flatten_planes(src, xp, N, C, C, Hs, Ws, Hp, Wp, border, pitch);
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
    flatten_planes(x, xp, N, C, cblocks * WB, H, W, Hp, Wp, pad, pitch);
    flatten_planes(g, gp, N, O, oblocks * WB, Hp - K + 1, Wp - K + 1, Hp, Wp,
                   0, pitch);
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

/* ------------------------------------------------------------------ */
/* The three conv entry points share one argument list: stride 1,      */
/* 0 <= pad <= K-1, OH = H + 2*pad - K + 1 and OW likewise (the domain */
/* in the header).  Each returns 1, or 0 with nothing written when its */
/* scratch cannot be allocated.                                        */
/* ------------------------------------------------------------------ */
EXPORT int conv2d_forward(const float *x, const float *w, const float *bias,
                          float *out, i64 N, i64 C, i64 H, i64 W, i64 O, i64 K,
                          i64 pad, i64 OH, i64 OW) {
    return conv_flat(x, w, bias, out, N, C, H, W, H + 2 * pad, W + 2 * pad,
                     pad, O, K, C * K * K, K * K, 0);
}

/* Input gradient, as a convolution: gx is the valid conv of the output
 * gradient padded by K-1-pad — the plane is then exactly
 * (H + K - 1, W + K - 1) — with the channel-transposed, spatially-flipped
 * weights wt[c][o][k] = w[o][c][K*K-1-k]. */
EXPORT int conv2d_backward_input(const float *g, const float *w, float *gx,
                                 i64 N, i64 C, i64 H, i64 W, i64 O, i64 K,
                                 i64 pad, i64 OH, i64 OW) {
    return conv_flat(g, w, NULL, gx, N, O, OH, OW, H + K - 1, W + K - 1,
                     K - 1 - pad, C, K, K * K, C * K * K, 1);
}

/* Weight/bias gradient:
 * gw[o,c,kh,kw] = sum_{n,oh,ow} g[n,o,oh,ow] * xpad[n,c,oh+kh,ow+kw]. */
EXPORT int conv2d_backward_weight(const float *x, const float *g, float *gw,
                                  float *gb, i64 N, i64 C, i64 H, i64 W, i64 O,
                                  i64 K, i64 pad, i64 OH, i64 OW) {
    return wgrad_flat(x, g, gw, gb, N, C, H, W, O, K, pad);
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
/* Batch normalisation over axis 1 of an (N, C, S) tensor: S is the    */
/* product of the trailing axes (H*W for NCHW, 1 for 2-D input), so    */
/* channel c is N runs of S contiguous floats.  Forward takes three    */
/* passes: the mean, the variance of the *centred* values — never      */
/* E[x^2] - E[x]^2, which cancels every digit on a channel offset by a */
/* few hundred standard deviations — and one pass writing out (and     */
/* xc = x - mean, backward's context, when xc != NULL).  Backward      */
/* takes two: sum(g) and sum(g * xc), then grad_x.                     */
/*                                                                     */
/* The mean is x.mean's own float32 reduction, bit for bit (NumPy's    */
/* pairwise sum per run, runs added in sample order), so xc is the     */
/* reference's: on a channel offset by 100 standard deviations a       */
/* float32 mean is off by ~1e-5 of one, and a more exact one would     */
/* leave the reference by that much.  Every other reduction ends in a  */
/* double per channel.  Planes of at least BN_RUN floats go channel by */
/* channel, run by run, in float lanes widened to double every BCHUNK  */
/* floats.  Below that a run is too short to pay for a vector loop's   */
/* set-up, so the passes go sample by sample over the whole C*S row    */
/* instead: the reductions into one double per position (summed down   */
/* the batch, then over the S positions of each channel), the          */
/* elementwise passes against rows of per-position coefficients.       */
/*                                                                     */
/* No OpenMP: an op is a few hundred microseconds at most, and the     */
/* bits are thread-count-invariant by construction.  Both entry points */
/* return 0, with nothing written, when their scratch cannot be        */
/* allocated.                                                          */
/* ------------------------------------------------------------------ */
#define BN_RUN 32
#define BCHUNK (16 * TILE)

/* Adds sum(p[i] - m) and sum((p[i] - m) * q[i]) over one run to *sum  */
/* and *dot; q == NULL squares the centred value instead.              */
static inline void bn_run_sums(const float *restrict p,
                               const float *restrict q, i64 n, float m,
                               double *sum, double *dot) {
    const vf mv = vf_set1(m);
    for (i64 lo = 0; lo < n; lo += BCHUNK) {
        const i64 hi = min_i64(lo + BCHUNK, n);
        vf s = vf_set1(0.0f), d = vf_set1(0.0f);
        i64 i = lo;
        for (; i + TILE <= hi; i += TILE) {
            const vf v = vf_load(p + i) - mv;
            s += v;
            d += v * (q ? vf_load(q + i) : v);
        }
        float st = 0.0f, dt = 0.0f;
        for (; i < hi; i++) {
            const float v = p[i] - m;
            st += v;
            dt += v * (q ? q[i] : v);
        }
        *sum += (double)vf_sum(s) + st;
        *dot += (double)vf_sum(d) + dt;
    }
}

/* Per-channel coefficients -> per-position rows of a small plane.     */
static void bn_rows(const float *coef, i64 C, i64 S, float *row) {
    for (i64 c = 0; c < C; c++)
        for (i64 i = 0; i < S; i++)
            row[c * S + i] = coef[c];
}

/* NumPy's float32 pairwise sum, the reduction np.mean runs on a run:  */
/* eight accumulators over blocks of at most 128 floats, halves above. */
static float np_pairwise_sum(const float *a, i64 n) {
    if (n < 8) {
        float res = -0.0f;
        for (i64 i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        float r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        i64 i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        float res = ((r[0] + r[1]) + (r[2] + r[3])) +
                    ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return np_pairwise_sum(a, n2) + np_pairwise_sum(a + n2, n - n2);
}

/* The per-channel mean exactly as x.mean(axis) computes it: run sums  */
/* added in float32 in sample order, divided in double.  One channel   */
/* is one contiguous run, as NumPy coalesces it.                       */
static void bn_mean(const float *x, i64 N, i64 C, i64 S, float *mean) {
    if (C == 1) {
        S *= N;
        N = 1;
    }
    for (i64 c = 0; c < C; c++) {
        float acc = 0.0f;
        for (i64 n = 0; n < N; n++)
            acc += np_pairwise_sum(x + (n * C + c) * S, S);
        mean[c] = (float)((double)acc / (double)(N * S));
    }
}

/* Per-channel sum[c] of v = p - m[c] and dot[c] of v * q (v * v when  */
/* q == NULL); m == NULL centres at zero.  The two uses are the        */
/* variance (dot, m given) and backward's sums (m == NULL, q given);   */
/* small planes compute only what those read, with acc (2*C*S doubles) */
/* and mrow (C*S floats).                                              */
static void bn_sums(const float *p, const float *q, const float *m, i64 N,
                    i64 C, i64 S, double *sum, double *dot, double *acc,
                    float *mrow) {
    if (S >= BN_RUN) {
        for (i64 c = 0; c < C; c++) {
            sum[c] = dot[c] = 0.0;
            for (i64 n = 0; n < N; n++) {
                const i64 off = (n * C + c) * S;
                bn_run_sums(p + off, q ? q + off : NULL, S, m ? m[c] : 0.0f,
                            sum + c, dot + c);
            }
        }
        return;
    }
    const i64 L = C * S;
    double *restrict as = acc, *restrict ad = acc + L;
    for (i64 j = 0; j < L; j++)
        as[j] = ad[j] = 0.0;
    if (!q)
        bn_rows(m, C, S, mrow);
    for (i64 n = 0; n < N; n++) {
        const float *restrict pr = p + n * L;
        if (q) {
            const float *restrict qr = q + n * L;
            for (i64 j = 0; j < L; j++) {
                as[j] += pr[j];
                ad[j] += pr[j] * qr[j];
            }
        } else {
            for (i64 j = 0; j < L; j++) {
                const float v = pr[j] - mrow[j];
                ad[j] += v * v;
            }
        }
    }
    for (i64 c = 0; c < C; c++) {
        sum[c] = dot[c] = 0.0;
        for (i64 i = 0; i < S; i++) {
            sum[c] += as[c * S + i];
            dot[c] += ad[c * S + i];
        }
    }
}

/* Scratch of one op: per channel two double sums and three float     */
/* coefficients, and for small planes as many again per position of a */
/* C*S row (acc and row of bn_sums and the elementwise passes).        */
struct bn_scratch {
    double *sum, *dot, *acc;
    float *coef, *row;
};

static int bn_scratch(struct bn_scratch *sc, i64 C, i64 S) {
    const i64 L = S < BN_RUN ? C * S : 0;
    sc->sum = malloc((size_t)(2 * C + 2 * L) * sizeof(double) +
                     (size_t)(3 * C + 3 * L) * sizeof(float));
    if (!sc->sum)
        return 0;
    sc->dot = sc->sum + C;
    sc->acc = sc->dot + C;
    sc->coef = (float *)(sc->acc + 2 * L);
    sc->row = sc->coef + 3 * C;
    return 1;
}

/* out = (p - a) * k + b over n floats, clamped at zero when relu (a   */
/* NaN passes, as np.maximum's does), and xc = p - a when xc != NULL.  */
/* The coefficients advance with i at step 1 (rows of a small-plane    */
/* sample) and stay put at step 0 (one channel's run).                 */
static inline void bn_affine(const float *restrict p, const float *restrict a,
                             const float *restrict k, const float *restrict b,
                             i64 step, float *restrict out,
                             float *restrict xc, i64 n, i64 relu) {
    for (i64 i = 0; i < n; i++) {
        const float d = p[i] - a[i * step];
        const float v = d * k[i * step] + b[i * step];
        out[i] = relu && v < 0.0f ? 0.0f : v;
        if (xc)
            xc[i] = d;
    }
}

/* gx = (g - xc * k - gm) * scale over n floats, coefficients as in    */
/* bn_affine.                                                          */
static inline void bn_grad(const float *restrict g, const float *restrict xc,
                           const float *restrict k, const float *restrict gm,
                           const float *restrict scale, i64 step,
                           float *restrict gx, i64 n) {
    for (i64 i = 0; i < n; i++)
        gx[i] = (g[i] - xc[i] * k[i * step] - gm[i * step]) * scale[i * step];
}

/* mean/var are the batch statistics, written, when batch_stats; the   */
/* given (running) ones, only read, otherwise.  inv_std receives       */
/* 1/sqrt(var + eps); relu clamps out at zero.                         */
EXPORT int batchnorm_forward(const float *x, const float *gamma,
                             const float *beta, float *mean, float *var,
                             float *inv_std, float *out, float *xc, i64 N,
                             i64 C, i64 S, i64 batch_stats, i64 relu,
                             float eps) {
    struct bn_scratch sc;
    if (!bn_scratch(&sc, C, S))
        return 0;
    const i64 L = C * S;
    const double count = (double)(N * S);
    if (batch_stats) {
        bn_mean(x, N, C, S, mean);
        bn_sums(x, NULL, mean, N, C, S, sc.sum, sc.dot, sc.acc, sc.row);
        for (i64 c = 0; c < C; c++)
            var[c] = (float)(sc.dot[c] / count);
    }
    float *scale = sc.coef, *shift = sc.coef + C;
    for (i64 c = 0; c < C; c++) {
        inv_std[c] = 1.0f / sqrtf(var[c] + eps);
        scale[c] = gamma[c] * inv_std[c];
        shift[c] = beta[c];
    }
    if (S >= BN_RUN) {
        for (i64 n = 0; n < N; n++)
            for (i64 c = 0; c < C; c++) {
                const i64 off = (n * C + c) * S;
                bn_affine(x + off, mean + c, scale + c, shift + c, 0,
                          out + off, xc ? xc + off : NULL, S, relu);
            }
    } else {
        float *mrow = sc.row, *srow = mrow + L, *brow = srow + L;
        bn_rows(mean, C, S, mrow);
        bn_rows(scale, C, S, srow);
        bn_rows(shift, C, S, brow);
        for (i64 n = 0; n < N; n++)
            bn_affine(x + n * L, mrow, srow, brow, 1, out + n * L,
                      xc ? xc + n * L : NULL, L, relu);
    }
    free(sc.sum);
    return 1;
}

/* (grad_x, grad_gamma, grad_beta) from xc and inv_std; training says  */
/* the forward used batch statistics, which then carry gradient:       */
/* gx = gamma*inv_std * (g - xc*inv_std^2*sum(g*xc)/count - sum(g)/count) */
EXPORT int batchnorm_backward(const float *g, const float *xc,
                              const float *gamma, const float *inv_std,
                              float *gx, float *grad_gamma, float *grad_beta,
                              i64 N, i64 C, i64 S, i64 training) {
    struct bn_scratch sc;
    if (!bn_scratch(&sc, C, S))
        return 0;
    const i64 L = C * S;
    const double count = (double)(N * S);
    bn_sums(g, xc, NULL, N, C, S, sc.sum, sc.dot, sc.acc, sc.row);
    float *k = sc.coef, *gm = k + C, *scale = gm + C;
    for (i64 c = 0; c < C; c++) {
        const double is = inv_std[c], sg = sc.sum[c], sgx = sc.dot[c];
        grad_gamma[c] = (float)(sgx * is);
        grad_beta[c] = (float)sg;
        k[c] = training ? (float)(sgx * is * is / count) : 0.0f;
        gm[c] = training ? (float)(sg / count) : 0.0f;
        scale[c] = gamma[c] * inv_std[c];
    }
    if (S >= BN_RUN) {
        for (i64 n = 0; n < N; n++)
            for (i64 c = 0; c < C; c++) {
                const i64 off = (n * C + c) * S;
                bn_grad(g + off, xc + off, k + c, gm + c, scale + c, 0,
                        gx + off, S);
            }
    } else {
        float *krow = sc.row, *grow = krow + L, *srow = grow + L;
        bn_rows(k, C, S, krow);
        bn_rows(gm, C, S, grow);
        bn_rows(scale, C, S, srow);
        for (i64 n = 0; n < N; n++)
            bn_grad(g + n * L, xc + n * L, krow, grow, srow, 1, gx + n * L, L);
    }
    free(sc.sum);
    return 1;
}
