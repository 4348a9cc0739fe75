#include "phy/puncture.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace silence {
namespace {

// Keep-masks over the mother stream [A1,B1,A2,B2,A3,B3] per 802.11a 17.3.5.6.
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

}  // namespace

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
