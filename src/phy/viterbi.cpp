#include "phy/viterbi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "phy/convolutional.h"
#include "phy/viterbi_kernels.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace silence {

namespace {

using viterbi_kernels::kIntFloor;

// A finite "minus infinity" for the double path: large enough to
// dominate, small enough that adding branch metrics never overflows.
constexpr double kFloor = -1e18;

// Unreachable states sit at kIntFloor and only accumulate branch metrics
// for at most 5 steps (after 6 transitions every state is reachable from
// state 0), so floored metrics stay below kIntFloor + 5*2*kQuantMax,
// which is well under the smallest reachable metric
// -kMaxFixedSteps*2*kQuantMax. Nothing saturates, nothing wraps.
static_assert(static_cast<std::int64_t>(ViterbiDecoder::kMaxFixedSteps) * 2 *
                      ViterbiDecoder::kQuantMax <
                  std::numeric_limits<std::int32_t>::max(),
              "reachable metrics must not overflow int32");
static_assert(kIntFloor + 5LL * 2 * ViterbiDecoder::kQuantMax <
                  -static_cast<std::int64_t>(ViterbiDecoder::kMaxFixedSteps) *
                      2 * ViterbiDecoder::kQuantMax,
              "floored metrics must stay below every reachable metric");

// The per-element quantization rule for a finite LLR at block scale
// `scale`: round half away from zero, then clamp.
inline std::int16_t quantize_finite(double v, double scale) {
  const double s = v * scale;
  const int q = static_cast<int>(s + (s >= 0.0 ? 0.5 : -0.5));
  return static_cast<std::int16_t>(
      std::clamp(q, -ViterbiDecoder::kQuantMax, ViterbiDecoder::kQuantMax));
}

}  // namespace

namespace viterbi_kernels {

const ButterflySigns& butterfly_signs() {
  static const ButterflySigns signs = [] {
    ButterflySigns s{};
    for (int j = 0; j < kNumStates / 2; ++j) {
      // Coded pair of the (even predecessor 2j, input 0) edge.
      const std::uint8_t x = conv_output(2 * j, 0);
      s.a[j] = (x & 1) ? -1 : 1;
      s.b[j] = (x & 2) ? -1 : 1;
    }
    return s;
  }();
  return signs;
}

namespace {

// Portable kernel: one butterfly at a time.
void acs_generic(const std::int16_t* q, std::size_t steps,
                 std::int32_t* metric, std::uint64_t* survivors) {
  const ButterflySigns& signs = butterfly_signs();
  std::int32_t buf[kNumStates];
  std::int32_t* cur = metric;
  std::int32_t* next = buf;
  for (std::size_t t = 0; t < steps; ++t) {
    const std::int32_t la = q[2 * t];
    const std::int32_t lb = q[2 * t + 1];
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    for (int j = 0; j < kNumStates / 2; ++j) {
      const std::int32_t g = signs.a[j] * la + signs.b[j] * lb;
      const std::int32_t me = cur[2 * j];
      const std::int32_t mo = cur[2 * j + 1];
      const std::int32_t a0 = me + g;
      const std::int32_t a1 = mo - g;
      const bool p = a1 > a0;
      next[j] = p ? a1 : a0;
      lo |= static_cast<std::uint32_t>(p) << j;
      const std::int32_t b0 = me - g;
      const std::int32_t b1 = mo + g;
      const bool r = b1 > b0;
      next[kNumStates / 2 + j] = r ? b1 : b0;
      hi |= static_cast<std::uint32_t>(r) << j;
    }
    survivors[t] = static_cast<std::uint64_t>(lo) |
                   (static_cast<std::uint64_t>(hi) << 32);
    std::swap(cur, next);
  }
  if (cur != metric) std::copy(cur, cur + kNumStates, metric);
}

#if defined(__SSE2__)
// Four butterflies per 128-bit register.
void acs_sse2(const std::int16_t* q, std::size_t steps, std::int32_t* metric,
              std::uint64_t* survivors) {
  const ButterflySigns& signs = butterfly_signs();
  alignas(16) std::int32_t buf_a[kNumStates];
  alignas(16) std::int32_t buf_b[kNumStates];
  alignas(16) std::int32_t g[kNumStates / 2];
  std::copy(metric, metric + kNumStates, buf_a);
  std::int32_t* cur = buf_a;
  std::int32_t* next = buf_b;
  for (std::size_t t = 0; t < steps; ++t) {
    const std::int32_t la = q[2 * t];
    const std::int32_t lb = q[2 * t + 1];
    for (int j = 0; j < kNumStates / 2; ++j) {
      g[j] = signs.a[j] * la + signs.b[j] * lb;
    }
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    for (int j = 0; j < kNumStates / 2; j += 4) {
      const __m128i v0 =
          _mm_load_si128(reinterpret_cast<const __m128i*>(cur + 2 * j));
      const __m128i v1 =
          _mm_load_si128(reinterpret_cast<const __m128i*>(cur + 2 * j + 4));
      const __m128i me = _mm_castps_si128(_mm_shuffle_ps(
          _mm_castsi128_ps(v0), _mm_castsi128_ps(v1), _MM_SHUFFLE(2, 0, 2, 0)));
      const __m128i mo = _mm_castps_si128(_mm_shuffle_ps(
          _mm_castsi128_ps(v0), _mm_castsi128_ps(v1), _MM_SHUFFLE(3, 1, 3, 1)));
      const __m128i g4 =
          _mm_load_si128(reinterpret_cast<const __m128i*>(g + j));

      const __m128i a0 = _mm_add_epi32(me, g4);
      const __m128i a1 = _mm_sub_epi32(mo, g4);
      const __m128i p = _mm_cmpgt_epi32(a1, a0);
      const __m128i max0 =
          _mm_or_si128(_mm_and_si128(p, a1), _mm_andnot_si128(p, a0));
      _mm_store_si128(reinterpret_cast<__m128i*>(next + j), max0);
      lo |= static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(p)))
            << j;

      const __m128i b0 = _mm_sub_epi32(me, g4);
      const __m128i b1 = _mm_add_epi32(mo, g4);
      const __m128i r = _mm_cmpgt_epi32(b1, b0);
      const __m128i max1 =
          _mm_or_si128(_mm_and_si128(r, b1), _mm_andnot_si128(r, b0));
      _mm_store_si128(reinterpret_cast<__m128i*>(next + kNumStates / 2 + j),
                      max1);
      hi |= static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(r)))
            << j;
    }
    survivors[t] = static_cast<std::uint64_t>(lo) |
                   (static_cast<std::uint64_t>(hi) << 32);
    std::swap(cur, next);
  }
  std::copy(cur, cur + kNumStates, metric);
}
#endif

#if defined(__x86_64__) || defined(__i386__)
// Eight butterflies per 256-bit register. Group k (butterflies 8k ..
// 8k+7) reads predecessors 16k .. 16k+15 from v0 (states 16k .. 16k+7)
// and v1 (the next eight): shuffle_ps picks the even (odd) states per
// 128-bit half, which leaves 64-bit chunks in the order [0, 2, 1, 3], and
// permute4x64 restores state order. g = sign(la, a) + sign(lb, b) equals
// a*la + b*lb for signs of +-1.
struct AcsGroup {
  __m256i next_lo;  // next states 8k .. 8k+7 (input 0)
  __m256i next_hi;  // next states 32+8k .. 32+8k+7 (input 1)
  std::uint32_t lo_bits;
  std::uint32_t hi_bits;
};

__attribute__((target("avx2"), always_inline)) inline AcsGroup acs_group(
    __m256i v0, __m256i v1, __m256i la, __m256i lb, __m256i sign_a,
    __m256i sign_b) {
  const __m256 f0 = _mm256_castsi256_ps(v0);
  const __m256 f1 = _mm256_castsi256_ps(v1);
  const __m256i me = _mm256_permute4x64_epi64(
      _mm256_castps_si256(_mm256_shuffle_ps(f0, f1, _MM_SHUFFLE(2, 0, 2, 0))),
      _MM_SHUFFLE(3, 1, 2, 0));
  const __m256i mo = _mm256_permute4x64_epi64(
      _mm256_castps_si256(_mm256_shuffle_ps(f0, f1, _MM_SHUFFLE(3, 1, 3, 1))),
      _MM_SHUFFLE(3, 1, 2, 0));
  const __m256i g = _mm256_add_epi32(_mm256_sign_epi32(la, sign_a),
                                     _mm256_sign_epi32(lb, sign_b));
  const __m256i a0 = _mm256_add_epi32(me, g);
  const __m256i a1 = _mm256_sub_epi32(mo, g);
  const __m256i b0 = _mm256_sub_epi32(me, g);
  const __m256i b1 = _mm256_add_epi32(mo, g);
  return {_mm256_max_epi32(a0, a1), _mm256_max_epi32(b0, b1),
          static_cast<std::uint32_t>(_mm256_movemask_ps(
              _mm256_castsi256_ps(_mm256_cmpgt_epi32(a1, a0)))),
          static_cast<std::uint32_t>(_mm256_movemask_ps(
              _mm256_castsi256_ps(_mm256_cmpgt_epi32(b1, b0))))};
}

__attribute__((target("avx2"), always_inline)) inline __m256i load8(
    const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"), always_inline)) inline void store8(
    std::int32_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// The 64 metrics stay in eight registers across all steps (named, not an
// array, so the compiler keeps them there).
__attribute__((target("avx2"))) void acs_avx2(const std::int16_t* q,
                                              std::size_t steps,
                                              std::int32_t* metric,
                                              std::uint64_t* survivors) {
  const ButterflySigns& signs = butterfly_signs();
  const __m256i sa0 = load8(signs.a), sa1 = load8(signs.a + 8),
                sa2 = load8(signs.a + 16), sa3 = load8(signs.a + 24);
  const __m256i sb0 = load8(signs.b), sb1 = load8(signs.b + 8),
                sb2 = load8(signs.b + 16), sb3 = load8(signs.b + 24);
  __m256i m0 = load8(metric), m1 = load8(metric + 8), m2 = load8(metric + 16),
          m3 = load8(metric + 24), m4 = load8(metric + 32),
          m5 = load8(metric + 40), m6 = load8(metric + 48),
          m7 = load8(metric + 56);
  for (std::size_t t = 0; t < steps; ++t) {
    const __m256i la = _mm256_set1_epi32(q[2 * t]);
    const __m256i lb = _mm256_set1_epi32(q[2 * t + 1]);
    const AcsGroup g0 = acs_group(m0, m1, la, lb, sa0, sb0);
    const AcsGroup g1 = acs_group(m2, m3, la, lb, sa1, sb1);
    const AcsGroup g2 = acs_group(m4, m5, la, lb, sa2, sb2);
    const AcsGroup g3 = acs_group(m6, m7, la, lb, sa3, sb3);
    m0 = g0.next_lo;
    m1 = g1.next_lo;
    m2 = g2.next_lo;
    m3 = g3.next_lo;
    m4 = g0.next_hi;
    m5 = g1.next_hi;
    m6 = g2.next_hi;
    m7 = g3.next_hi;
    const std::uint32_t lo = g0.lo_bits | (g1.lo_bits << 8) |
                             (g2.lo_bits << 16) | (g3.lo_bits << 24);
    const std::uint32_t hi = g0.hi_bits | (g1.hi_bits << 8) |
                             (g2.hi_bits << 16) | (g3.hi_bits << 24);
    survivors[t] = static_cast<std::uint64_t>(lo) |
                   (static_cast<std::uint64_t>(hi) << 32);
  }
  store8(metric, m0);
  store8(metric + 8, m1);
  store8(metric + 16, m2);
  store8(metric + 24, m3);
  store8(metric + 32, m4);
  store8(metric + 40, m5);
  store8(metric + 48, m6);
  store8(metric + 56, m7);
  _mm256_zeroupper();
}
#endif

struct KernelList {
  AcsKernel kernels[3];
  std::size_t count = 0;
};

const KernelList& kernel_list() {
  static const KernelList list = [] {
    KernelList l;
#if defined(__x86_64__) || defined(__i386__)
    // Idempotent; makes the check safe even from a static initializer.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      l.kernels[l.count++] = {"avx2", acs_avx2};
    }
#endif
#if defined(__SSE2__)
    l.kernels[l.count++] = {"sse2", acs_sse2};
#endif
    l.kernels[l.count++] = {"generic", acs_generic};
    return l;
  }();
  return list;
}

}  // namespace

std::span<const AcsKernel> acs_kernels() {
  const KernelList& list = kernel_list();
  return {list.kernels, list.count};
}

const AcsKernel& acs_kernel() { return kernel_list().kernels[0]; }

bool quantize_llrs_finite(std::span<const double> llrs,
                          std::span<std::int16_t> out) {
#if defined(__SSE2__)
  const std::size_t n = llrs.size();
  const double* v = llrs.data();
  // Block maximum of |v| and a finiteness check in one pass: |v| <= DBL_MAX
  // is false exactly for +-inf and NaN.
  const __m128d abs_mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m128d finite_max = _mm_set1_pd(std::numeric_limits<double>::max());
  __m128d max2 = _mm_setzero_pd();
  __m128d finite2 = _mm_castsi128_pd(_mm_set1_epi32(-1));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d a = _mm_and_pd(_mm_loadu_pd(v + i), abs_mask);
    finite2 = _mm_and_pd(finite2, _mm_cmple_pd(a, finite_max));
    max2 = _mm_max_pd(max2, a);
  }
  if (_mm_movemask_pd(finite2) != 3) return false;
  double max_abs = std::max(_mm_cvtsd_f64(max2),
                            _mm_cvtsd_f64(_mm_unpackhi_pd(max2, max2)));
  for (; i < n; ++i) {
    const double a = std::fabs(v[i]);
    if (!(a <= std::numeric_limits<double>::max())) return false;
    if (a > max_abs) max_abs = a;
  }
  const double scale =
      max_abs > 0.0 ? ViterbiDecoder::kQuantMax / max_abs : 0.0;
  // A subnormal or tiny maximum overflows the scale to inf (then 0 * inf
  // is NaN): the scalar loop's behaviour there is kept by falling back.
  if (!std::isfinite(scale)) return false;

  // s = v * scale; q = trunc(s + (s >= 0 ? 0.5 : -0.5)); clamp. Eight
  // values per step: cvttpd truncates like the scalar int conversion, and
  // |s| <= kQuantMax + 0.5 keeps every value inside int16 before the clamp.
  const __m128d scale2 = _mm_set1_pd(scale);
  const __m128d zero = _mm_setzero_pd();
  const __m128d plus_half = _mm_set1_pd(0.5);
  const __m128d minus_half = _mm_set1_pd(-0.5);
  const auto round2 = [&](const double* p) {
    const __m128d s = _mm_mul_pd(_mm_loadu_pd(p), scale2);
    const __m128d nonneg = _mm_cmpge_pd(s, zero);
    const __m128d half = _mm_or_pd(_mm_and_pd(nonneg, plus_half),
                                   _mm_andnot_pd(nonneg, minus_half));
    return _mm_cvttpd_epi32(_mm_add_pd(s, half));
  };
  const __m128i hi = _mm_set1_epi16(ViterbiDecoder::kQuantMax);
  const __m128i lo = _mm_set1_epi16(-ViterbiDecoder::kQuantMax);
  std::int16_t* dst = out.data();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i q0 = _mm_unpacklo_epi64(round2(v + i), round2(v + i + 2));
    const __m128i q1 =
        _mm_unpacklo_epi64(round2(v + i + 4), round2(v + i + 6));
    const __m128i q = _mm_min_epi16(_mm_max_epi16(_mm_packs_epi32(q0, q1), lo),
                                    hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), q);
  }
  for (; i < n; ++i) dst[i] = quantize_finite(v[i], scale);
  return true;
#else
  (void)llrs;
  (void)out;
  return false;
#endif
}

}  // namespace viterbi_kernels

ViterbiDecoder::ViterbiDecoder()
    : output_table_(static_cast<std::size_t>(kNumStates) * 2) {
  for (int state = 0; state < kNumStates; ++state) {
    for (int input = 0; input < 2; ++input) {
      output_table_[static_cast<std::size_t>(state) * 2 +
                    static_cast<std::size_t>(input)] =
          conv_output(state, input);
    }
  }
}

void ViterbiDecoder::traceback(const ViterbiWorkspace& ws, std::size_t steps,
                               int state, Bits& out) const {
  out.resize(steps);
  for (std::size_t t = steps; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(state >> 5);
    state = ((state & 31) << 1) |
            static_cast<int>((ws.survivors[t] >> state) & 1);
  }
}

Bits ViterbiDecoder::decode(std::span<const double> llrs,
                            bool terminated) const {
  ViterbiWorkspace ws;
  Bits out;
  decode(llrs, terminated, ws, out);
  return out;
}

void ViterbiDecoder::decode(std::span<const double> llrs, bool terminated,
                            ViterbiWorkspace& ws, Bits& out) const {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("viterbi: need an even number of LLRs");
  }
  const std::size_t steps = llrs.size() / 2;
  out.clear();
  if (steps == 0) return;
  ws.survivors.resize(steps);

  double buf_a[kNumStates];
  double buf_b[kNumStates];
  double* metric = buf_a;
  double* next_metric = buf_b;
  std::fill(metric, metric + kNumStates, kFloor);
  metric[0] = 0.0;  // encoder starts zeroed

  for (std::size_t t = 0; t < steps; ++t) {
    // Branch affinity for coded pair (a, b): +llr/2 for bit 0, -llr/2
    // for bit 1; an erased (zero) LLR is neutral, implementing EVD.
    const double half_a = 0.5 * llrs[2 * t];
    const double half_b = 0.5 * llrs[2 * t + 1];
    const double bm[4] = {half_a + half_b, -half_a + half_b,
                          half_a - half_b, -half_a - half_b};
    std::uint64_t word = 0;
    for (int next = 0; next < kNumStates; ++next) {
      const int input = next >> 5;
      const int base = (next & 31) * 2;
      const double m0 =
          metric[base] +
          bm[output_table_[static_cast<std::size_t>(base) * 2 +
                           static_cast<std::size_t>(input)]];
      const double m1 =
          metric[base + 1] +
          bm[output_table_[(static_cast<std::size_t>(base) + 1) * 2 +
                           static_cast<std::size_t>(input)]];
      const bool pick1 = m1 > m0;
      next_metric[next] = pick1 ? m1 : m0;
      word |= static_cast<std::uint64_t>(pick1) << next;
    }
    std::swap(metric, next_metric);
    ws.survivors[t] = word;
  }

  int state = 0;
  if (!terminated) {
    state = static_cast<int>(std::distance(
        metric, std::max_element(metric, metric + kNumStates)));
  }
  traceback(ws, steps, state, out);
}

void ViterbiDecoder::quantize_llrs(std::span<const double> llrs,
                                   std::span<std::int16_t> out) {
  if (out.size() != llrs.size()) {
    throw std::invalid_argument("quantize_llrs: output size mismatch");
  }
  if (viterbi_kernels::quantize_llrs_finite(llrs, out)) return;
  // Non-finite LLRs, or a scale that overflows: the reference loop.
  double max_abs = 0.0;
  for (const double v : llrs) {
    const double a = std::fabs(v);
    if (std::isfinite(a) && a > max_abs) max_abs = a;
  }
  const double scale = max_abs > 0.0 ? kQuantMax / max_abs : 0.0;
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    const double v = llrs[i];
    if (std::isnan(v)) {
      out[i] = 0;
    } else if (!std::isfinite(v)) {
      out[i] = static_cast<std::int16_t>(v > 0.0 ? kQuantMax : -kQuantMax);
    } else {
      out[i] = quantize_finite(v, scale);
    }
  }
}

Bits ViterbiDecoder::decode_fixed(std::span<const double> llrs,
                                  bool terminated) const {
  ViterbiWorkspace ws;
  Bits out;
  decode_fixed(llrs, terminated, ws, out);
  return out;
}

void ViterbiDecoder::decode_fixed(std::span<const double> llrs,
                                  bool terminated, ViterbiWorkspace& ws,
                                  Bits& out) const {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("viterbi: need an even number of LLRs");
  }
  const std::size_t steps = llrs.size() / 2;
  out.clear();
  if (steps == 0) return;
  if (steps > kMaxFixedSteps) {
    // Beyond the proven no-overflow bound (never hit by legal 802.11a
    // frames): take the exact double path instead.
    decode(llrs, terminated, ws, out);
    return;
  }

  ws.quantized.resize(llrs.size());
  quantize_llrs(llrs, ws.quantized);
  ws.survivors.resize(steps);

  // Metrics are kept scaled by 2 relative to the double path's llr/2
  // convention; a uniform scale changes no comparison.
  alignas(32) std::int32_t metric[kNumStates];
  std::fill(metric, metric + kNumStates, kIntFloor);
  metric[0] = 0;
  viterbi_kernels::acs_kernel().run(ws.quantized.data(), steps, metric,
                                    ws.survivors.data());

  int state = 0;
  if (!terminated) {
    std::int32_t best = metric[0];
    for (int s = 1; s < kNumStates; ++s) {
      if (metric[s] > best) {
        best = metric[s];
        state = s;
      }
    }
  }
  traceback(ws, steps, state, out);
}

}  // namespace silence
