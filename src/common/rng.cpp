#include "common/rng.h"

namespace silence {

namespace {

using Word = Mt19937_64::result_type;

// The seeding recurrence: x[i] from x[i - 1].
Word seed_step(Word prev, std::size_t i) {
  return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
}

// One twisted word. (0 - (y & 1)) & A is libstdc++'s (y & 1) ? A : 0
// without the branch, which would mispredict on half the words.
Word mix(Word word, Word next, Word far) {
  constexpr Word kMatrixA = 0xb5026f5aa96619e9ULL;
  constexpr Word kUpper = ~Word{0} << 31;
  const Word y = (word & kUpper) | (next & ~kUpper);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(const Mt19937_64& other)
    : state_(other.state_ ? std::make_unique<State>(*other.state_) : nullptr),
      pos_(other.pos_),
      seed_(other.seed_),
      low_(other.low_),
      high_(other.high_) {}

Mt19937_64& Mt19937_64::operator=(const Mt19937_64& other) {
  if (this != &other) *this = Mt19937_64(other);
  return *this;
}

Mt19937_64::result_type Mt19937_64::stateless_word() {
  if (pos_ == kShift) {
    // Word 156 onwards reads the twisted first half: build the state.
    state_ = std::make_unique<State>();
    State& x = *state_;
    x[0] = seed_;
    for (std::size_t i = 1; i < kStateWords; ++i) {
      x[i] = seed_step(x[i - 1], i);
    }
    twist();
    pos_ = kShift;
    return x[pos_++];
  }
  if (pos_ == 0) {
    low_ = high_ = seed_;
    for (std::size_t i = 1; i <= kShift; ++i) high_ = seed_step(high_, i);
  }
  const result_type next = seed_step(low_, pos_ + 1);
  const result_type word = mix(low_, next, high_);
  low_ = next;
  high_ = seed_step(high_, pos_ + kShift + 1);
  ++pos_;
  return word;
}

void Mt19937_64::twist() {
  State& x = *state_;
  std::size_t k = 0;
  for (; k < kStateWords - kShift; ++k) {
    x[k] = mix(x[k], x[k + 1], x[k + kShift]);
  }
  for (; k < kStateWords - 1; ++k) {
    x[k] = mix(x[k], x[k + 1], x[k + kShift - kStateWords]);
  }
  x[k] = mix(x[k], x[0], x[kShift - 1]);
  pos_ = 0;
}

void Rng::add_complex_gaussian(std::span<std::complex<double>> samples,
                               double variance) {
  if (samples.empty()) return;
  const double sigma = std::sqrt(variance / 2.0);
  Mt19937_64& gen = engine();
  for (std::complex<double>& x : samples) {
    const double re = sigma * polar_gaussian(gen);
    const double im = sigma * polar_gaussian(gen);
    x += std::complex<double>{re, im};
  }
}

std::vector<std::uint8_t> Rng::bits(std::size_t count) {
  std::vector<std::uint8_t> out(count);
  for (auto& b : out) b = static_cast<std::uint8_t>(engine()() & 1U);
  return out;
}

std::vector<std::uint8_t> Rng::bytes(std::size_t count) {
  std::vector<std::uint8_t> out(count);
  for (auto& b : out) b = static_cast<std::uint8_t>(engine()() & 0xFFU);
  return out;
}

}  // namespace silence
