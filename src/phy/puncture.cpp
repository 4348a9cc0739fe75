#include "phy/puncture.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "phy/convolutional.h"
#include "phy/interleaver.h"

namespace silence {
namespace {

// Keep-masks over the mother stream [A1,B1,A2,B2,A3,B3] per 802.11a 17.3.5.6
// (rate 1/2 keeps every bit; puncture() passes it through unmasked).
constexpr std::array<std::uint8_t, 2> kPattern1of2 = {1, 1};
constexpr std::array<std::uint8_t, 4> kPattern2of3 = {1, 1, 1, 0};
constexpr std::array<std::uint8_t, 6> kPattern3of4 = {1, 1, 1, 0, 0, 1};

std::span<const std::uint8_t> pattern_for(CodeRate rate) {
  switch (rate) {
    case CodeRate::kRate1of2: return {};
    case CodeRate::kRate2of3: return kPattern2of3;
    case CodeRate::kRate3of4: return kPattern3of4;
  }
  return {};
}

// --- encode_punctured's tables ----------------------------------------------

// Coded bytes (0 or 1) of one table step; a step writes all 16 and
// advances by its kept count.
using CodedStep = std::array<std::uint8_t, 16>;

// One rate's step: kInfo information bits in, kKept coded bits out, from
// each state with zero input (from_state) and from state 0 for each input
// (from_input, first 1 << kInfo entries). The code and the puncturer are
// linear, so the step for (state, input) is their XOR.
struct StepTable {
  int info;
  int kept;
  std::array<CodedStep, kNumStates> from_state;
  std::array<CodedStep, 256> from_input;
};

// Runs the per-bit encoder for `info` steps from `state` on the input
// bits of `input` (bit 0 first), keeping the mother bits `keep` keeps.
constexpr CodedStep encode_step(unsigned state, unsigned input, int info,
                                std::span<const std::uint8_t> keep) {
  CodedStep out{};
  std::size_t kept = 0;
  std::size_t phase = 0;
  for (int i = 0; i < info; ++i) {
    const unsigned window = (((input >> i) & 1U) << 6) | state;
    const std::uint8_t ab = conv_window_output(window);
    for (unsigned j = 0; j < 2; ++j) {
      if (keep[phase] != 0) {
        out[kept++] = static_cast<std::uint8_t>((ab >> j) & 1U);
      }
      if (++phase == keep.size()) phase = 0;
    }
    state = window >> 1;
  }
  return out;
}

// `info` must cover whole periods of `keep`: eight information bits make
// four 2/3 periods (12 kept of 16) and six make two 3/4 periods (8 of
// 12), so a step never splits a period.
constexpr StepTable make_step_table(int info,
                                    std::span<const std::uint8_t> keep) {
  int kept_per_period = 0;
  for (const std::uint8_t k : keep) kept_per_period += k;
  StepTable t{info, 2 * info / static_cast<int>(keep.size()) * kept_per_period,
              {}, {}};
  for (unsigned s = 0; s < kNumStates; ++s) {
    t.from_state[s] = encode_step(s, 0, info, keep);
  }
  for (unsigned x = 0; x < (1U << info); ++x) {
    t.from_input[x] = encode_step(0, x, info, keep);
  }
  return t;
}

constexpr StepTable kStep1of2 = make_step_table(8, kPattern1of2);
constexpr StepTable kStep2of3 = make_step_table(8, kPattern2of3);
constexpr StepTable kStep3of4 = make_step_table(6, kPattern3of4);

// One table step: the coded bytes of `input` entered at `state`.
template <const StepTable& kTable>
inline void step_bytes(unsigned state, unsigned input, std::uint64_t out[2]) {
  std::uint64_t b[2];
  std::memcpy(out, kTable.from_state[state].data(), 16);
  std::memcpy(b, kTable.from_input[input].data(), 16);
  out[0] ^= b[0];
  out[1] ^= b[1];
}

template <const StepTable& kTable>
void encode_steps(std::span<const std::uint8_t> packed, std::size_t info_bits,
                  std::span<std::uint8_t> coded) {
  constexpr auto kInfo = static_cast<std::size_t>(kTable.info);
  constexpr auto kKept = static_cast<std::size_t>(kTable.kept);
  constexpr unsigned kInputMask = (1U << kInfo) - 1;
  const std::uint8_t* in = packed.data();
  const std::size_t octets = packed.size();
  // Stream bits [pos, pos + kInfo) in bits 0 .. kInfo - 1; an octet past
  // the end reads as zero (it only feeds bits past info_bits).
  const auto input_at = [&](std::size_t pos) {
    const std::size_t o = pos / 8;
    const unsigned hi = o + 1 < octets ? in[o + 1] : 0U;
    return (((hi << 8) | in[o]) >> (pos % 8)) & kInputMask;
  };
  std::uint8_t* out = coded.data();
  std::uint8_t* const end = out + coded.size();
  unsigned state = 0;
  std::uint64_t step[2];
  std::size_t pos = 0;
  // Whole 16-byte writes while they fit; each advances by kKept.
  for (; pos < info_bits && end - out >= 16; pos += kInfo) {
    const unsigned input = input_at(pos);
    step_bytes<kTable>(state, input, step);
    std::memcpy(out, step, 16);
    out += kKept;
    state = input >> (kInfo - 6);
  }
  // The last steps write what is left. A short final step keeps its
  // prefix: the encoder is causal and every step starts at pattern phase
  // 0.
  for (; pos < info_bits; pos += kInfo) {
    const unsigned input = input_at(pos);
    step_bytes<kTable>(state, input, step);
    std::uint8_t bytes[16];
    std::memcpy(bytes, step, 16);
    const auto n = std::min(kKept, static_cast<std::size_t>(end - out));
    std::copy(bytes, bytes + n, out);
    out += n;
    state = input >> (kInfo - 6);
  }
}

// One rate's depuncturing, a period at a time: mother slot j of a period
// takes the period's next kept coded bit where kKeep[j] is set, else an
// erasure.
template <std::size_t kPeriod, const std::array<std::uint8_t, kPeriod>& kKeep>
void gather_periods(std::span<const double> llrs, std::span<const int> perm,
                    double* mother) {
  // kSlots[j]: the kept-bit index of mother slot j, or -1.
  static constexpr std::array<int, kPeriod> kSlots = [] {
    std::array<int, kPeriod> slots{};
    int kept = 0;
    for (std::size_t j = 0; j < kPeriod; ++j) slots[j] = kKeep[j] ? kept++ : -1;
    return slots;
  }();
  constexpr auto kKept = static_cast<std::size_t>(
      std::count(kKeep.begin(), kKeep.end(), std::uint8_t{1}));
  const std::size_t n_cbps = perm.size();
  const std::size_t periods = n_cbps / kKept;
  for (const double* symbol = llrs.data();
       symbol != llrs.data() + llrs.size(); symbol += n_cbps) {
    const int* coded = perm.data();
    for (std::size_t q = 0; q < periods; ++q) {
#pragma GCC unroll 6
      for (std::size_t j = 0; j < kPeriod; ++j) {
        mother[j] = kSlots[j] < 0
                        ? 0.0
                        : symbol[coded[static_cast<std::size_t>(kSlots[j])]];
      }
      coded += kKept;
      mother += kPeriod;
    }
  }
}

}  // namespace

void deinterleave_depuncture_into(std::span<const double> llrs,
                                  const Mcs& mcs, Llrs& mother) {
  const auto n_cbps = static_cast<std::size_t>(mcs.n_cbps);
  if (llrs.size() % n_cbps != 0) {
    throw std::invalid_argument(
        "deinterleave_depuncture: not a whole number of symbols");
  }
  const std::span<const int> perm =
      interleaver_permutation_cached(mcs.n_cbps, mcs.n_bpsc);
  mother.resize(llrs.size() / n_cbps * 2 *
                static_cast<std::size_t>(mcs.n_dbps));
  switch (mcs.code_rate) {
    case CodeRate::kRate1of2:
      return gather_periods<2, kPattern1of2>(llrs, perm, mother.data());
    case CodeRate::kRate2of3:
      return gather_periods<4, kPattern2of3>(llrs, perm, mother.data());
    case CodeRate::kRate3of4:
      return gather_periods<6, kPattern3of4>(llrs, perm, mother.data());
  }
}

void encode_punctured(std::span<const std::uint8_t> packed,
                      std::size_t info_bits, CodeRate rate,
                      std::span<std::uint8_t> coded) {
  if (coded.size() != punctured_length(2 * info_bits, rate) ||
      packed.size() < (info_bits + 7) / 8) {
    throw std::invalid_argument("encode_punctured: size mismatch");
  }
  switch (rate) {
    case CodeRate::kRate1of2:
      return encode_steps<kStep1of2>(packed, info_bits, coded);
    case CodeRate::kRate2of3:
      return encode_steps<kStep2of3>(packed, info_bits, coded);
    case CodeRate::kRate3of4:
      return encode_steps<kStep3of4>(packed, info_bits, coded);
  }
}

Bits puncture(std::span<const std::uint8_t> coded, CodeRate rate) {
  Bits out;
  puncture_into(coded, rate, out);
  return out;
}

void puncture_into(std::span<const std::uint8_t> coded, CodeRate rate,
                   Bits& out) {
  const auto pattern = pattern_for(rate);
  if (pattern.empty()) {
    out.assign(coded.begin(), coded.end());
    return;
  }
  out.resize(punctured_length(coded.size(), rate));
  std::uint8_t* kept = out.data();
  std::size_t phase = 0;
  for (const std::uint8_t bit : coded) {
    if (pattern[phase]) *kept++ = bit;
    if (++phase == pattern.size()) phase = 0;
  }
}

void depuncture_llrs_into(std::span<const double> llrs, CodeRate rate,
                          std::size_t mother_bits, Llrs& out) {
  const auto pattern = pattern_for(rate);
  if (pattern.empty()) {
    if (llrs.size() != mother_bits) {
      throw std::invalid_argument("depuncture_llrs: length mismatch");
    }
    out.assign(llrs.begin(), llrs.end());
    return;
  }
  out.resize(mother_bits);
  std::size_t in = 0;
  for (std::size_t pos = 0; pos < mother_bits; ++pos) {
    if (pattern[pos % pattern.size()]) {
      if (in >= llrs.size()) {
        throw std::invalid_argument("depuncture_llrs: too few soft values");
      }
      out[pos] = llrs[in++];
    } else {
      out[pos] = 0.0;  // punctured position: total erasure
    }
  }
  if (in != llrs.size()) {
    throw std::invalid_argument("depuncture_llrs: too many soft values");
  }
}

Llrs depuncture_llrs(std::span<const double> llrs, CodeRate rate,
                     std::size_t mother_bits) {
  Llrs out;
  depuncture_llrs_into(llrs, rate, mother_bits, out);
  return out;
}

std::size_t punctured_length(std::size_t mother_bits, CodeRate rate) {
  const auto pattern = pattern_for(rate);
  if (pattern.empty()) return mother_bits;
  const std::size_t per_period = static_cast<std::size_t>(
      std::count(pattern.begin(), pattern.end(), std::uint8_t{1}));
  const std::size_t rest = mother_bits % pattern.size();
  return mother_bits / pattern.size() * per_period +
         static_cast<std::size_t>(std::count(
             pattern.begin(),
             pattern.begin() + static_cast<std::ptrdiff_t>(rest),
             std::uint8_t{1}));
}

}  // namespace silence
