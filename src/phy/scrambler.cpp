#include "phy/scrambler.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace silence {

Scrambler::Scrambler(std::uint8_t seed) : state_(seed & 0x7FU) {
  if (state_ == 0) {
    throw std::invalid_argument("Scrambler: seed must be non-zero");
  }
}

std::uint8_t Scrambler::next() {
  // state_ bit k holds x^(k+1); feedback is x^7 XOR x^4.
  const std::uint8_t out =
      static_cast<std::uint8_t>(((state_ >> 6) ^ (state_ >> 3)) & 1U);
  state_ = static_cast<std::uint8_t>(((state_ << 1) | out) & 0x7FU);
  return out;
}

Bits Scrambler::apply(std::span<const std::uint8_t> bits) {
  Bits out(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((bits[i] ^ next()) & 1U);
  }
  return out;
}

Bits Scrambler::sequence(std::uint8_t seed, std::size_t length) {
  Scrambler s(seed);
  Bits out(length);
  for (auto& b : out) b = s.next();
  return out;
}

namespace {

constexpr std::size_t kPeriod = 127;
// Bytes XORed per block step: period tables carry this many bits past
// one period, so a block starting at any phase reads contiguous bits.
constexpr std::size_t kBlock = 8;

// One period plus kBlock - 1 wrapped bits for `seed`, served from a
// process-wide table built lazily per seed. One slot per 7-bit seed,
// built once under the mutex and published with release semantics (same
// pattern as fft_plan's cache).
const Bits& extended_period(std::uint8_t seed) {
  static std::array<std::atomic<const Bits*>, 128> slots{};
  static std::mutex build_mutex;
  const auto idx = static_cast<std::size_t>(seed & 0x7FU);
  if (idx == 0) {
    throw std::invalid_argument("Scrambler: seed must be non-zero");
  }
  const Bits* period = slots[idx].load(std::memory_order_acquire);
  if (period == nullptr) {
    const std::lock_guard<std::mutex> lock(build_mutex);
    period = slots[idx].load(std::memory_order_acquire);
    if (period == nullptr) {
      period = new Bits(Scrambler::sequence(seed, kPeriod + kBlock - 1));
      slots[idx].store(period, std::memory_order_release);
    }
  }
  return *period;
}

}  // namespace

std::span<const std::uint8_t> Scrambler::period_cached(std::uint8_t seed) {
  return std::span(extended_period(seed)).first(kPeriod);
}

void Scrambler::apply_with_seed_into(std::uint8_t seed,
                                     std::span<const std::uint8_t> bits,
                                     Bits& out) {
  const std::uint8_t* pn = extended_period(seed).data();
  out.resize(bits.size());
  const std::uint8_t* in = bits.data();
  std::uint8_t* dst = out.data();
  const std::size_t n = bits.size();
  // kBlock bits per step as one 64-bit XOR; the mask keeps each byte's
  // low bit, as the per-bit `(b ^ pn) & 1` does.
  constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
  std::size_t i = 0;
  std::size_t phase = 0;
  for (; i + kBlock <= n; i += kBlock) {
    std::uint64_t word;
    std::uint64_t key;
    std::memcpy(&word, in + i, kBlock);
    std::memcpy(&key, pn + phase, kBlock);
    word = (word ^ key) & kLowBits;
    std::memcpy(dst + i, &word, kBlock);
    phase += kBlock;
    if (phase >= kPeriod) phase -= kPeriod;
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>((in[i] ^ pn[phase]) & 1U);
    if (++phase == kPeriod) phase = 0;
  }
}

std::uint8_t Scrambler::recover_seed(std::span<const std::uint8_t> first7) {
  if (first7.size() < 7) {
    throw std::invalid_argument("recover_seed: need 7 bits");
  }
  for (std::uint8_t seed = 1; seed < 128; ++seed) {
    Scrambler s(seed);
    bool match = true;
    for (int i = 0; i < 7; ++i) {
      if (s.next() != (first7[static_cast<std::size_t>(i)] & 1U)) {
        match = false;
        break;
      }
    }
    if (match) return seed;
  }
  throw std::runtime_error("recover_seed: no state matches (corrupt input)");
}

}  // namespace silence
