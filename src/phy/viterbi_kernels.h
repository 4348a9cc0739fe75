// Internal to the PHY: the fixed-point Viterbi's compiled kernels, so the
// kernel tests can run each one against the exact double decoder. Nothing
// here is a configuration surface; decode_fixed() picks its kernel itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace silence::viterbi_kernels {

// Integer "minus infinity" for unreachable states (bounds in viterbi.cpp).
inline constexpr std::int32_t kIntFloor =
    std::numeric_limits<std::int32_t>::min() / 2;

// Branch-metric signs of the 32 trellis butterflies: butterfly j
// (predecessors 2j and 2j+1, successors j and j+32) has branch metric
// g_j = a[j]*la + b[j]*lb on its (even predecessor, input 0) edge; the
// three sibling edges use +-g_j by the code's symmetry (both generator
// polynomials have their lowest and highest taps set).
struct ButterflySigns {
  alignas(32) std::int32_t a[32];
  alignas(32) std::int32_t b[32];
};
const ButterflySigns& butterfly_signs();

// decode_fixed's add-compare-select over `steps` trellis steps. Step t
// reads the quantized pair q[2t], q[2t+1], updates the 64 int32 path
// metrics in `metric` in place and writes survivors[t] (bit n = the
// predecessor parity of next-state n):
//   next[j]    = max(m[2j] + g_j, m[2j+1] - g_j)   (input 0)
//   next[j+32] = max(m[2j] - g_j, m[2j+1] + g_j)   (input 1)
// with the odd predecessor chosen only when strictly greater.
using AcsFn = void (*)(const std::int16_t* q, std::size_t steps,
                       std::int32_t* metric, std::uint64_t* survivors);

struct AcsKernel {
  const char* name;  // "avx2", "sse2" or "generic"
  AcsFn run;
};

// Every ACS kernel compiled into this build that this CPU can run,
// fastest first. Integer arithmetic is exact, so all of them produce the
// same metrics and survivors bit for bit.
std::span<const AcsKernel> acs_kernels();

// The kernel decode_fixed() runs: the first of acs_kernels(), chosen once
// per process by CPU feature detection.
const AcsKernel& acs_kernel();

// quantize_llrs()'s fast path. When every LLR is finite and
// kQuantMax / max|LLR| is finite (or the block is all zeros), writes the
// quantized block, bit-identical to the scalar loop, and returns true.
// Otherwise writes nothing and returns false, and quantize_llrs() runs
// the scalar loop instead. Always false in builds without SSE2.
// `out.size()` must equal `llrs.size()` (quantize_llrs() checks it).
bool quantize_llrs_finite(std::span<const double> llrs,
                          std::span<std::int16_t> out);

}  // namespace silence::viterbi_kernels
