// The xoshiro256** step and Lemire's bounded draw, inline and
// dependency-free.
//
// This is the one implementation of the repo's random draws: stats::Rng's
// next_u64 / uniform_index wrap it, and the resample_sum8 kernels (scalar
// spec and the AVX2 lane fallback) call it directly. It lives in dre_simd
// because that library sits below dre_stats and must not depend on it.
#ifndef DRE_SIMD_XOSHIRO_H
#define DRE_SIMD_XOSHIRO_H

#include <cstdint>

namespace dre::simd {

inline std::uint64_t xoshiro_rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

// xoshiro256** (Blackman & Vigna): advances `s` and returns the output
// word of the state before the step.
inline std::uint64_t xoshiro_next(std::uint64_t s[4]) noexcept {
    const std::uint64_t result = xoshiro_rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = xoshiro_rotl(s[3], 45);
    return result;
}

// Lemire's unbiased bounded draw in [0, n), given its first word `x`
// (already drawn from `s`). Rejected words are replaced by further draws
// from `s`. Requires n > 0. A lane of a vector kernel that cannot decide
// acceptance on its own finishes here on its extracted state.
inline std::uint64_t lemire_finish(std::uint64_t x, std::uint64_t s[4],
                                   std::uint64_t n) noexcept {
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
        const std::uint64_t threshold = (0 - n) % n;
        while (lo < threshold) {
            x = xoshiro_next(s);
            m = static_cast<__uint128_t>(x) * n;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

// Uniform integer in [0, n) from `s`. Requires n > 0.
inline std::uint64_t lemire_draw(std::uint64_t s[4], std::uint64_t n) noexcept {
    return lemire_finish(xoshiro_next(s), s, n);
}

} // namespace dre::simd

#endif // DRE_SIMD_XOSHIRO_H
