// AVX2 level: 2 × 4-lane double kernels and gathers (ymm k holds lanes
// {4k .. 4k+3}), and the fused resample kernel (4 replicate streams per
// ymm); the CRC pointer is inherited from the SSE4.2 level in dispatch.cpp.
// Same canonical 8-lane arithmetic as the scalar spec — see kernels.h.
#include "simd/kernels.h"

#if DRE_SIMD_X86

#include <immintrin.h>

#include <bit>

#include "simd/xoshiro.h"

#define DRE_TARGET_AVX2 __attribute__((target("avx2")))

namespace dre::simd::detail {
namespace {

// All-lanes-enabled gather. The masked form with an explicit zero source is
// semantically identical to the plain intrinsic but avoids GCC's
// maybe-uninitialized warning on _mm256_undefined_pd.
DRE_TARGET_AVX2
inline __m256d gather4(const double* values, const std::uint32_t* idx) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), values, vi, all, 8);
}

} // namespace

DRE_TARGET_AVX2
std::size_t l2sq_scan_avx2(const double* blocks, std::size_t num_blocks,
                           std::size_t dims, const double* query, double worst,
                           double* cand_d2, std::uint32_t* cand_idx) {
    const __m256d worst_v = _mm256_set1_pd(worst);
    std::size_t count = 0;
    std::size_t b = 0;
    // Paired blocks (see the scalar spec): 4 independent accumulator
    // chains instead of 2, which halves the vaddpd latency floor this
    // loop is bound by. Abandon predicate covers all 16 lanes of the pair.
    for (; b + 2 <= num_blocks; b += 2) {
        const double* blk0 = blocks + b * dims * 8;
        const double* blk1 = blk0 + dims * 8;
        __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
        __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
        bool aborted = false;
        for (std::size_t d = 0; d < dims; ++d) {
            const __m256d q = _mm256_set1_pd(query[d]);
            const double* c0 = blk0 + d * 8;
            const double* c1 = blk1 + d * 8;
            const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(c0), q);
            const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(c0 + 4), q);
            const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(c1), q);
            const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(c1 + 4), q);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
            acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
            acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
            if ((d & (kAbortStride - 1)) == kAbortStride - 1) {
                const int m = _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc0, worst_v, _CMP_GT_OQ)) &
                              _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc1, worst_v, _CMP_GT_OQ)) &
                              _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc2, worst_v, _CMP_GT_OQ)) &
                              _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc3, worst_v, _CMP_GT_OQ));
                if (m == 0xf) {
                    aborted = true;
                    break;
                }
            }
        }
        if (aborted) continue;
        const unsigned m0 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc0, worst_v, _CMP_LE_OQ)));
        const unsigned m1 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc1, worst_v, _CMP_LE_OQ)));
        const unsigned m2 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc2, worst_v, _CMP_LE_OQ)));
        const unsigned m3 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc3, worst_v, _CMP_LE_OQ)));
        unsigned mask = m0 | (m1 << 4) | (m2 << 8) | (m3 << 12);
        if (mask == 0) continue;
        double lanes[16];
        _mm256_storeu_pd(lanes + 0, acc0);
        _mm256_storeu_pd(lanes + 4, acc1);
        _mm256_storeu_pd(lanes + 8, acc2);
        _mm256_storeu_pd(lanes + 12, acc3);
        do {
            const int lane = std::countr_zero(mask);
            cand_d2[count] = lanes[lane];
            cand_idx[count] = static_cast<std::uint32_t>(b * 8 + lane);
            ++count;
            mask &= mask - 1;
        } while (mask != 0);
    }
    for (; b < num_blocks; ++b) {
        const double* block = blocks + b * dims * 8;
        __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
        bool aborted = false;
        for (std::size_t d = 0; d < dims; ++d) {
            const __m256d q = _mm256_set1_pd(query[d]);
            const double* col = block + d * 8;
            const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(col), q);
            const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(col + 4), q);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
            // Strided abandon, same predicate as the scalar spec.
            if ((d & (kAbortStride - 1)) == kAbortStride - 1) {
                const int m = _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc0, worst_v, _CMP_GT_OQ)) &
                              _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc1, worst_v, _CMP_GT_OQ));
                if (m == 0xf) {
                    aborted = true;
                    break;
                }
            }
        }
        if (aborted) continue;
        // Candidate mask: ordered LE per lane (NaN lanes never qualify),
        // ymm k holding lanes {4k .. 4k+3}.
        const unsigned m0 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc0, worst_v, _CMP_LE_OQ)));
        const unsigned m1 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc1, worst_v, _CMP_LE_OQ)));
        unsigned mask = m0 | (m1 << 4);
        if (mask == 0) continue;
        double lanes[8];
        _mm256_storeu_pd(lanes + 0, acc0);
        _mm256_storeu_pd(lanes + 4, acc1);
        do {
            const int lane = std::countr_zero(mask);
            cand_d2[count] = lanes[lane];
            cand_idx[count] = static_cast<std::uint32_t>(b * 8 + lane);
            ++count;
            mask &= mask - 1;
        } while (mask != 0);
    }
    return count;
}

DRE_TARGET_AVX2
double dot8_avx2(const double* a, const double* b, std::size_t n) {
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                                 _mm256_loadu_pd(b + i + 4)));
    }
    double lanes[8];
    _mm256_storeu_pd(lanes + 0, acc0);
    _mm256_storeu_pd(lanes + 4, acc1);
    dot8_tail(lanes, a, b, i, n);
    return reduce8(lanes);
}

DRE_TARGET_AVX2
double weighted_sum_skip_zero_avx2(const double* w, const double* x,
                                   std::size_t n, std::uint64_t* skips) {
    const __m256d zero = _mm256_setzero_pd();
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    std::uint64_t zeros = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256d w0 = _mm256_loadu_pd(w + i);
        const __m256d w1 = _mm256_loadu_pd(w + i + 4);
        // Mask-after-multiply; NEQ_UQ / EQ_OQ — same NaN and +0.0 semantics
        // as the SSE4.2 level (documented there and in simd.h).
        const __m256d nz0 = _mm256_cmp_pd(w0, zero, _CMP_NEQ_UQ);
        const __m256d nz1 = _mm256_cmp_pd(w1, zero, _CMP_NEQ_UQ);
        acc0 = _mm256_add_pd(
            acc0, _mm256_and_pd(nz0, _mm256_mul_pd(w0, _mm256_loadu_pd(x + i))));
        acc1 = _mm256_add_pd(
            acc1,
            _mm256_and_pd(nz1, _mm256_mul_pd(w1, _mm256_loadu_pd(x + i + 4))));
        const int eq =
            _mm256_movemask_pd(_mm256_cmp_pd(w0, zero, _CMP_EQ_OQ)) |
            _mm256_movemask_pd(_mm256_cmp_pd(w1, zero, _CMP_EQ_OQ)) << 4;
        zeros += static_cast<std::uint64_t>(
            std::popcount(static_cast<unsigned>(eq)));
    }
    double lanes[8];
    _mm256_storeu_pd(lanes + 0, acc0);
    _mm256_storeu_pd(lanes + 4, acc1);
    weighted_tail(lanes, w, x, i, n, zeros);
    if (skips != nullptr) *skips += zeros;
    return reduce8(lanes);
}

DRE_TARGET_AVX2
void gather_avx2(const double* values, const std::uint32_t* idx, std::size_t n,
                 double* out) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, gather4(values, idx + i));
    for (; i < n; ++i) out[i] = values[idx[i]];
}

namespace {

// --- resample_sum8: 4 replicate streams per ymm ------------------------------
// Lane l of s[k] holds word k of stream l's xoshiro256** state.

template <int k>
DRE_TARGET_AVX2 inline __m256i rotl64(__m256i x) {
    return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// Finishes the flagged lanes' draws with the scalar Lemire loop on each
// lane's extracted state. Rows of `w`: state words 0..3, the first draw x
// and the index; the state words and the index are rewritten.
__attribute__((noinline, cold)) void finish_lanes(int lanes,
                                                  std::uint64_t (*w)[4],
                                                  std::uint64_t m) {
    for (int l = 0; l < 4; ++l) {
        if ((lanes >> l & 1) == 0) continue;
        std::uint64_t state[4] = {w[0][l], w[1][l], w[2][l], w[3][l]};
        w[5][l] = lemire_finish(w[4][l], state, m);
        for (int k = 0; k < 4; ++k) w[k][l] = state[k];
    }
}

// One draw for all four streams, returning values[index] per stream:
// xoshiro256** with x5 and x9 as shift+add, then Lemire's multiply-high
// from 32-bit partial products. With x = xh*2^32 + xl and m < 2^32,
// A = xh*m and B = xl*m are exact, sum = A + (B >> 32) cannot overflow,
// and the index is sum >> 32. The low word (A << 32) + B has the low half
// of sum as its high half. Rejection needs low < m < 2^32, so a lane whose
// sum has a nonzero low half is accepted as is; any other lane
// (p ~ 2^-32) goes to finish_lanes.
DRE_TARGET_AVX2 __attribute__((always_inline)) inline __m256d draw_gather4(
    __m256i (&s)[4], __m256i mv, std::uint64_t m, const double* values) {
    const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(s[1], 2), s[1]);
    const __m256i r = rotl64<7>(x5);
    const __m256i x = _mm256_add_epi64(_mm256_slli_epi64(r, 3), r);
    const __m256i t = _mm256_slli_epi64(s[1], 17);
    s[2] = _mm256_xor_si256(s[2], s[0]);
    s[3] = _mm256_xor_si256(s[3], s[1]);
    s[1] = _mm256_xor_si256(s[1], s[2]);
    s[0] = _mm256_xor_si256(s[0], s[3]);
    s[2] = _mm256_xor_si256(s[2], t);
    s[3] = rotl64<45>(s[3]);
    const __m256i sum = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64(x, 32), mv),
        _mm256_srli_epi64(_mm256_mul_epu32(x, mv), 32));
    __m256i hi = _mm256_srli_epi64(sum, 32);
    const int risky = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_slli_epi64(sum, 32), _mm256_setzero_si256())));
    if (__builtin_expect(risky != 0, 0)) {
        alignas(32) std::uint64_t w[6][4];
        const __m256i rows[6] = {s[0], s[1], s[2], s[3], x, hi};
        for (int k = 0; k < 6; ++k)
            _mm256_store_si256(reinterpret_cast<__m256i*>(w[k]), rows[k]);
        finish_lanes(risky, w, m);
        for (int k = 0; k < 4; ++k)
            s[k] = _mm256_load_si256(reinterpret_cast<const __m256i*>(w[k]));
        hi = _mm256_load_si256(reinterpret_cast<const __m256i*>(w[5]));
    }
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), values, hi, all, 8);
}

// Streams st[0..3], m < 2^32 draws each, sums into out[0..3].
DRE_TARGET_AVX2
void resample4_avx2(std::uint64_t (*st)[4], const double* values,
                    std::size_t m, double* out) {
    alignas(32) std::uint64_t w[4][4]; // w[k][l]: word k of stream l
    __m256i s[4];
    for (int k = 0; k < 4; ++k) {
        for (int l = 0; l < 4; ++l) w[k][l] = st[l][k];
        s[k] = _mm256_load_si256(reinterpret_cast<const __m256i*>(w[k]));
    }
    const __m256i mv = _mm256_set1_epi64x(static_cast<long long>(m));
    // acc[lane] holds lane (i mod 8) of all four streams' 8-lane sums.
    __m256d acc[8];
    for (__m256d& a : acc) a = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= m; i += 8) {
#pragma GCC unroll 8
        for (int lane = 0; lane < 8; ++lane)
            acc[lane] =
                _mm256_add_pd(acc[lane], draw_gather4(s, mv, m, values));
    }
#pragma GCC unroll 8
    for (std::size_t lane = 0; lane < 8; ++lane)
        if (i + lane < m)
            acc[lane] =
                _mm256_add_pd(acc[lane], draw_gather4(s, mv, m, values));
    // The canonical reduce tree, all four streams at once.
    _mm256_storeu_pd(
        out, _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(acc[0], acc[1]),
                                         _mm256_add_pd(acc[2], acc[3])),
                           _mm256_add_pd(_mm256_add_pd(acc[4], acc[5]),
                                         _mm256_add_pd(acc[6], acc[7]))));
    for (int k = 0; k < 4; ++k) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(w[k]), s[k]);
        for (int l = 0; l < 4; ++l) st[l][k] = w[k][l];
    }
}

} // namespace

void resample_sum8_avx2(std::uint64_t (*states)[4], std::size_t streams,
                        const double* values, std::size_t m, double* out) {
    std::size_t s = 0;
    // The 32-bit product split needs m < 2^32; larger m, and the streams
    // past the last full group of four, take the scalar spec.
    if (m < (std::size_t{1} << 32))
        for (; s + 4 <= streams; s += 4)
            resample4_avx2(states + s, values, m, out + s);
    resample_sum8_scalar(states + s, streams - s, values, m, out + s);
}

} // namespace dre::simd::detail

#endif // DRE_SIMD_X86
