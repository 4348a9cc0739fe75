// Soft-decision Viterbi decoder for the 802.11a K=7 convolutional code.
//
// The decoder consumes one LLR per mother-code bit (positive = bit 0
// likely). Erasures — punctured positions and CoS silence symbols — carry
// LLR = 0 and therefore contribute nothing to any path metric, which is
// exactly the erasure Viterbi decoding (EVD) of the paper's Eq. (7): the
// trellis itself is the standard one, only the bit metrics change.
//
// Two kernels share one trellis/traceback structure:
//
//  - decode(): exact double-precision metrics, arithmetically identical
//    to the original straight-line implementation (it is the reference
//    the fixed-point path is property-tested against, and the exhaustive
//    maximum-likelihood property tests hold against it to 1e-9).
//  - decode_fixed(): the hot path. LLRs are block-normalized and rounded
//    to int16 (|q| <= kQuantMax; an AVX2 pass when the CPU has AVX2 and
//    the block is finite, the scalar loop otherwise), metrics are int32,
//    and the 32 trellis butterflies per step run branch-free in an
//    add-compare-select kernel picked once per process: AVX2 (8
//    butterflies per register, metrics held in registers) when the CPU
//    has it, else SSE2 (4 per register), else a portable loop; all three
//    are exact integer arithmetic and agree bit for bit
//    (phy/viterbi_kernels.h). For any
//    input of at most kMaxFixedSteps steps, decode_fixed(llrs) returns
//    *bit-identical* output to decode() run on the quantized LLRs: with
//    |q| <= 8191 and <= 49152 steps the int32 path metrics stay within
//    [-8.1e8, 0] while unreachable states sit at kIntFloor = INT32_MIN/2,
//    so no saturation or renormalization point is ever hit, and every
//    add/compare is exact in both integer and double arithmetic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"

namespace silence {

// Reusable decoder scratch. Buffers grow to the largest frame seen and
// are reused across packets, so steady-state decoding allocates nothing.
struct ViterbiWorkspace {
  // One 64-bit survivor word per trellis step (bit n = predecessor parity
  // of next-state n).
  std::vector<std::uint64_t> survivors;
  // Quantized LLR pairs for the fixed-point path.
  std::vector<std::int16_t> quantized;
};

class ViterbiDecoder {
 public:
  // Quantization ceiling: block maximum |LLR| maps to +-kQuantMax.
  static constexpr int kQuantMax = 8191;
  // Longest input the fixed-point kernel accepts without falling back to
  // the double path (every legal 802.11a frame is <= 32790 steps).
  static constexpr std::size_t kMaxFixedSteps = 49152;

  ViterbiDecoder();

  // Decodes `llrs` (2 values per information bit, mother-code order
  // [A0,B0,A1,B1,...]) into llrs.size()/2 information bits.
  //
  // With `terminated` set, the encoder is assumed to have been flushed to
  // the all-zero state by tail bits (802.11a always does this) and
  // traceback starts at state 0; otherwise it starts at the best state.
  Bits decode(std::span<const double> llrs, bool terminated = true) const;
  void decode(std::span<const double> llrs, bool terminated,
              ViterbiWorkspace& ws, Bits& out) const;

  // Fixed-point decode of the same stream (see file comment for the
  // exactness contract vs decode() on quantized inputs).
  Bits decode_fixed(std::span<const double> llrs,
                    bool terminated = true) const;
  void decode_fixed(std::span<const double> llrs, bool terminated,
                    ViterbiWorkspace& ws, Bits& out) const;

  // Block quantization used by decode_fixed: scales so the largest finite
  // |LLR| becomes kQuantMax, rounding half away from zero; zero stays
  // exactly zero (erasures remain erasures). `out.size()` must equal
  // `llrs.size()`. All-finite blocks with a finite scale take an AVX2
  // pass on CPUs that have it; NaN, +-inf, a scale that overflows (a
  // subnormal maximum) or a CPU without AVX2 take the scalar loop. Both
  // give the same values.
  static void quantize_llrs(std::span<const double> llrs,
                            std::span<std::int16_t> out);

 private:
  void traceback(const ViterbiWorkspace& ws, std::size_t steps, int state,
                 Bits& out) const;

  // out_[state][input] = 2 coded bits (A in bit 0, B in bit 1).
  std::vector<std::uint8_t> output_table_;
};

}  // namespace silence
