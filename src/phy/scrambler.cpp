#include "phy/scrambler.h"

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

// Keystream octets per seed plus the seven wrapped ones.
constexpr std::size_t kKeystreamSize = Scrambler::kKeystreamPeriod + 7;

// One slot per 7-bit seed, built once under the mutex and published with
// release semantics (same pattern as fft_plan's cache).
const std::uint8_t* keystream_for(std::uint8_t seed) {
  static std::array<std::atomic<const std::uint8_t*>, 128> slots{};
  static std::mutex build_mutex;
  const auto idx = static_cast<std::size_t>(seed & 0x7FU);
  if (idx == 0) {
    throw std::invalid_argument("Scrambler: seed must be non-zero");
  }
  const std::uint8_t* octets = slots[idx].load(std::memory_order_acquire);
  if (octets == nullptr) {
    const std::lock_guard<std::mutex> lock(build_mutex);
    octets = slots[idx].load(std::memory_order_acquire);
    if (octets == nullptr) {
      const Bits bits = Scrambler::sequence(seed, 8 * kKeystreamSize);
      auto* table = new std::uint8_t[kKeystreamSize];
      for (std::size_t k = 0; k < kKeystreamSize; ++k) {
        table[k] = pack_octet(bits.data() + 8 * k);
      }
      octets = table;
      slots[idx].store(octets, std::memory_order_release);
    }
  }
  return octets;
}

}  // namespace

std::span<const std::uint8_t> Scrambler::keystream_cached(std::uint8_t seed) {
  return {keystream_for(seed), kKeystreamSize};
}

void Scrambler::xor_keystream(std::uint8_t seed, std::size_t first_octet,
                              std::span<std::uint8_t> octets) {
  const std::uint8_t* key = keystream_for(seed);
  std::uint8_t* dst = octets.data();
  const std::size_t n = octets.size();
  std::size_t phase = first_octet % kKeystreamPeriod;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::uint64_t k;
    std::memcpy(&word, dst + i, 8);
    std::memcpy(&k, key + phase, 8);
    word ^= k;
    std::memcpy(dst + i, &word, 8);
    phase += 8;
    if (phase >= kKeystreamPeriod) phase -= kKeystreamPeriod;
  }
  for (; i < n; ++i) {
    dst[i] ^= key[phase];
    if (++phase == kKeystreamPeriod) phase = 0;
  }
}

std::uint8_t Scrambler::recover_seed(std::span<const std::uint8_t> first7) {
  if (first7.size() < 7) {
    throw std::invalid_argument("recover_seed: need 7 bits");
  }
  // seed_for[v] = the state whose first seven outputs, first bit in bit
  // 6, read v. No two states share a prefix (the register ends up holding
  // the seven bits it emitted), so every non-zero v has exactly one seed.
  static const std::array<std::uint8_t, 128> seed_for = [] {
    std::array<std::uint8_t, 128> table{};
    for (int seed = 1; seed < 128; ++seed) {
      Scrambler s(static_cast<std::uint8_t>(seed));
      unsigned v = 0;
      for (int i = 0; i < 7; ++i) v = (v << 1) | s.next();
      table[v] = static_cast<std::uint8_t>(seed);
    }
    return table;
  }();
  unsigned v = 0;
  for (int i = 0; i < 7; ++i) {
    v = (v << 1) | (first7[static_cast<std::size_t>(i)] & 1U);
  }
  if (seed_for[v] == 0) {
    throw std::runtime_error("recover_seed: no state matches (corrupt input)");
  }
  return seed_for[v];
}

}  // namespace silence
