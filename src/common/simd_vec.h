// The vector-register wrapper behind the SIMD kernels: one set of operations
// (load/broadcast/arithmetic/min/max/compare/blend/mask tests/gather and int index
// math over doubles) implemented for AVX2 (4 lanes) and NEON (2 lanes).
//
// This header is included ONLY from the kernel translation units
// (src/common/gaussian_simd.cc, src/core/decision_engine_simd.cc), which CMake
// compiles with the matching architecture flags — see the dispatch contract in
// src/common/simd.h.  It is intentionally empty in scalar builds so accidental
// inclusion elsewhere fails to compile rather than silently emitting vector code.
//
// Equivalence discipline: every operation maps to a single IEEE-754 double
// operation per lane, and the wrapper deliberately offers NO fused-multiply-add —
// kernels written against it perform the same rounding steps in the same order as
// the scalar reference arithmetic, which is what makes the scalar<->SIMD test plane
// able to demand near-bit-exact agreement.
#ifndef SRC_COMMON_SIMD_VEC_H_
#define SRC_COMMON_SIMD_VEC_H_

#include "src/common/simd.h"

#if defined(ALERT_SIMD_AVX2)

#include <immintrin.h>

namespace alert::simd {

inline constexpr int kLanes = 4;

struct VecD {
  __m256d v;
};
// Lane-parallel int32 indices (table gathers).
struct VecI {
  __m128i v;
};
// Comparison mask: all-ones lanes where the predicate held.
struct VecM {
  __m256d m;
};

inline VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline void Store(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
inline VecD Add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD Sub(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD Min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }
// Ordered compares: false in a NaN lane, like the scalar `<` / `<=` / `>=`.
inline VecM CmpLt(VecD a, VecD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)}; }
inline VecM CmpLe(VecD a, VecD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)}; }
inline VecM CmpGe(VecD a, VecD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)}; }
// mask ? a : b, per lane.
inline VecD Select(VecM mask, VecD a, VecD b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.m)};
}
inline VecM Or(VecM a, VecM b) { return {_mm256_or_pd(a.m, b.m)}; }
// Bit j set iff lane j of the mask is set.
inline int MoveMask(VecM a) { return _mm256_movemask_pd(a.m); }
// Lanes [0, n) set.
inline VecM FirstLanes(int n) {
  return {_mm256_cmp_pd(_mm256_set_pd(3.0, 2.0, 1.0, 0.0),
                        _mm256_set1_pd(static_cast<double>(n)), _CMP_LT_OQ)};
}
// Truncation toward zero, exactly like static_cast<int>(double).
inline VecI TruncToInt(VecD a) { return {_mm256_cvttpd_epi32(a.v)}; }
inline VecD IntToDouble(VecI a) { return {_mm256_cvtepi32_pd(a.v)}; }
inline VecI MinInt(VecI a, int b) {
  return {_mm_min_epi32(a.v, _mm_set1_epi32(b))};
}
inline VecI AddInt(VecI a, int b) {
  return {_mm_add_epi32(a.v, _mm_set1_epi32(b))};
}
inline VecD Gather(const double* table, VecI idx) {
  // The masked form with a zeroed source: same vgatherdpd, but avoids the
  // _mm256_undefined_pd() inside the plain intrinsic that trips gcc's
  // -Wmaybe-uninitialized.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), table, idx.v, all,
                                   /*scale=*/8)};
}

}  // namespace alert::simd

#elif defined(ALERT_SIMD_NEON)

#include <arm_neon.h>

namespace alert::simd {

inline constexpr int kLanes = 2;

struct VecD {
  float64x2_t v;
};
struct VecI {
  int32x2_t v;
};
struct VecM {
  uint64x2_t m;
};

inline VecD Load(const double* p) { return {vld1q_f64(p)}; }
inline VecD Broadcast(double x) { return {vdupq_n_f64(x)}; }
inline void Store(double* p, VecD a) { vst1q_f64(p, a.v); }
inline VecD Add(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
inline VecD Sub(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
inline VecD Min(VecD a, VecD b) { return {vminq_f64(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {vmaxq_f64(a.v, b.v)}; }
inline VecM CmpLt(VecD a, VecD b) { return {vcltq_f64(a.v, b.v)}; }
inline VecM CmpLe(VecD a, VecD b) { return {vcleq_f64(a.v, b.v)}; }
inline VecM CmpGe(VecD a, VecD b) { return {vcgeq_f64(a.v, b.v)}; }
inline VecD Select(VecM mask, VecD a, VecD b) {
  return {vbslq_f64(mask.m, a.v, b.v)};
}
inline VecM Or(VecM a, VecM b) { return {vorrq_u64(a.m, b.m)}; }
inline int MoveMask(VecM a) {
  return static_cast<int>((vgetq_lane_u64(a.m, 0) & 1) |
                          ((vgetq_lane_u64(a.m, 1) & 1) << 1));
}
inline VecM FirstLanes(int n) {
  const double lanes[2] = {0.0, 1.0};
  return {vcltq_f64(vld1q_f64(lanes), vdupq_n_f64(static_cast<double>(n)))};
}
inline VecI TruncToInt(VecD a) {
  // vcvtq_s64_f64 rounds toward zero, exactly like static_cast<int>(double).
  return {vmovn_s64(vcvtq_s64_f64(a.v))};
}
inline VecD IntToDouble(VecI a) {
  return {vcvtq_f64_s64(vmovl_s32(a.v))};
}
inline VecI MinInt(VecI a, int b) { return {vmin_s32(a.v, vdup_n_s32(b))}; }
inline VecI AddInt(VecI a, int b) { return {vadd_s32(a.v, vdup_n_s32(b))}; }
inline VecD Gather(const double* table, VecI idx) {
  // NEON has no gather; two scalar loads per vector.
  const double lanes[2] = {table[vget_lane_s32(idx.v, 0)],
                           table[vget_lane_s32(idx.v, 1)]};
  return {vld1q_f64(lanes)};
}

}  // namespace alert::simd

#else
#error "simd_vec.h must only be included from SIMD kernel TUs (see src/common/simd.h)"
#endif

#endif  // SRC_COMMON_SIMD_VEC_H_
