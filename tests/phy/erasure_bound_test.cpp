// The erasure Viterbi decoder against the union bound (paper §II-C and
// §III-E, Eq. 7-8): the code's spare redundancy absorbs erasures, and at
// rate 1/2 the measured bit error rate with a fraction eps of the coded
// bits erased must sit just under
//
//   P_b <= sum_d B_d sum_e C(d,e) eps^e (1-eps)^(d-e) Q(sqrt(2 (d-e) R Eb/N0)),
//
// a distance-d error event surviving its e erased positions on the
// remaining d - e. B_d, the information-weight spectrum of the (133,171)
// code, is enumerated here from the trellis and checked against the
// published values. Punctured rates and silence_plan's erasure placement
// are not covered.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "phy/convolutional.h"
#include "phy/viterbi.h"

namespace silence {
namespace {

constexpr int kMaxDistance = 20;
constexpr double kRate = 0.5;

// B_d for d <= kMaxDistance: the summed input weight of every first-event
// path that leaves state 0 and first returns to it with output weight d.
// Each partial path is tracked by (state, output weight) with its count
// and summed input weight; the code has no zero-weight loop away from
// state 0, so every path passes weight kMaxDistance within a few dozen
// steps.
std::array<double, kMaxDistance + 1> information_spectrum() {
  using Table = std::array<std::array<double, kMaxDistance + 1>, kNumStates>;
  Table paths{};
  Table input_weight{};
  std::array<double, kMaxDistance + 1> spectrum{};
  const auto weight = [](int state, int input) {
    const std::uint8_t ab = conv_output(state, input);
    return (ab & 1) + ((ab >> 1) & 1);
  };
  // The diverging step: input 1 from state 0.
  paths[conv_next_state(0, 1)][weight(0, 1)] = 1.0;
  input_weight[conv_next_state(0, 1)][weight(0, 1)] = 1.0;
  for (int step = 0; step < 200; ++step) {
    Table next_paths{};
    Table next_input{};
    bool alive = false;
    for (int s = 1; s < kNumStates; ++s) {
      for (int d = 0; d <= kMaxDistance; ++d) {
        if (paths[s][d] == 0.0) continue;
        for (int input = 0; input < 2; ++input) {
          const int nd = d + weight(s, input);
          if (nd > kMaxDistance) continue;
          const int ns = conv_next_state(s, input);
          const double iw = input_weight[s][d] + input * paths[s][d];
          if (ns == 0) {
            spectrum[static_cast<std::size_t>(nd)] += iw;
          } else {
            next_paths[ns][nd] += paths[s][d];
            next_input[ns][nd] += iw;
            alive = true;
          }
        }
      }
    }
    paths = next_paths;
    input_weight = next_input;
    if (!alive) break;
  }
  return spectrum;
}

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double union_bound(const std::array<double, kMaxDistance + 1>& spectrum,
                   double eps, double ebn0_db) {
  const double ebn0 = std::pow(10.0, ebn0_db / 10.0);
  double bound = 0.0;
  for (int d = 1; d <= kMaxDistance; ++d) {
    if (spectrum[static_cast<std::size_t>(d)] == 0.0) continue;
    double p_d = 0.0;
    double binomial = 1.0;  // C(d, e)
    for (int e = 0; e <= d; ++e) {
      p_d += binomial * std::pow(eps, e) * std::pow(1.0 - eps, d - e) *
             q_function(std::sqrt(2.0 * (d - e) * kRate * ebn0));
      binomial = binomial * (d - e) / (e + 1);
    }
    bound += spectrum[static_cast<std::size_t>(d)] * p_d;
  }
  return bound;
}

// The Eb/N0 in dB at which the bound reads `target` (it falls with
// Eb/N0), by bisection.
double ebn0_for_bound(const std::array<double, kMaxDistance + 1>& spectrum,
                      double eps, double target) {
  double lo = 0.0;
  double hi = 12.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (union_bound(spectrum, eps, mid) > target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(ErasureBound, EnumeratedSpectrumMatchesPublishedValues) {
  const auto spectrum = information_spectrum();
  const std::array<double, kMaxDistance + 1> published = {
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 36, 0, 211, 0, 1404, 0, 11633, 0, 77433,
      0, 502690};
  for (int d = 0; d <= kMaxDistance; ++d) {
    EXPECT_EQ(spectrum[static_cast<std::size_t>(d)],
              published[static_cast<std::size_t>(d)])
        << "d = " << d;
  }
}

TEST(ErasureBound, RateHalfErasureDecoderMeetsUnionBound) {
  // encode -> BPSK -> AWGN -> erase each coded bit with probability eps
  // (LLR 0) -> decode_fixed, in 2000-bit terminated frames, at the Eb/N0
  // where the bound reads 1e-4, until at least 400 bit errors.
  constexpr std::size_t kFrameBits = 2000;
  constexpr std::size_t kTail = 6;
  constexpr std::uint64_t kMinErrors = 400;
  constexpr std::size_t kMaxBits = 40'000'000;
  constexpr double kTargetBound = 1e-4;
  constexpr double kZ99 = 2.576;
  const auto spectrum = information_spectrum();
  const ViterbiDecoder decoder;
  ViterbiWorkspace ws;
  Bits decoded;
  std::vector<std::complex<double>> noise((kFrameBits + kTail));
  std::vector<double> llrs(2 * (kFrameBits + kTail));
  for (const double eps : {0.0, 0.1, 0.2}) {
    const double ebn0_db = ebn0_for_bound(spectrum, eps, kTargetBound);
    const double bound = union_bound(spectrum, eps, ebn0_db);
    // Per-dimension noise variance 1 / (2 R Eb/N0) on +-1 symbols.
    const double sigma2 = 1.0 / (2.0 * kRate * std::pow(10.0, ebn0_db / 10.0));
    const auto erase_below = static_cast<std::uint64_t>(
        eps * static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
    Rng rng(4242 + static_cast<std::uint64_t>(eps * 100));
    std::uint64_t errors = 0;
    std::size_t bits = 0;
    while (errors < kMinErrors && bits < kMaxBits) {
      Bits info = rng.bits(kFrameBits);
      info.resize(kFrameBits + kTail, 0);
      const Bits coded = convolutional_encode(info);
      std::fill(noise.begin(), noise.end(), std::complex<double>{});
      rng.add_complex_gaussian(noise, 2.0 * sigma2);
      for (std::size_t i = 0; i < coded.size(); ++i) {
        const std::complex<double> n = noise[i / 2];
        const double y = (coded[i] != 0 ? -1.0 : 1.0) +
                         (i % 2 == 0 ? n.real() : n.imag());
        llrs[i] = eps > 0.0 && rng.engine()() < erase_below ? 0.0 : y;
      }
      decoder.decode_fixed(llrs, /*terminated=*/true, ws, decoded);
      for (std::size_t i = 0; i < kFrameBits; ++i) {
        errors += decoded[i] != info[i];
      }
      bits += kFrameBits;
    }
    ASSERT_GE(errors, kMinErrors) << "eps " << eps;
    const double ber = static_cast<double>(errors) / static_cast<double>(bits);
    const double margin =
        kZ99 * std::sqrt((1.0 - bound) / (static_cast<double>(bits) * bound));
    EXPECT_LE(ber, bound * (1.0 + margin))
        << "eps " << eps << " at " << ebn0_db << " dB: " << errors
        << " errors in " << bits << " bits";
    EXPECT_GE(ber, bound / 3.0)
        << "eps " << eps << " at " << ebn0_db << " dB: " << errors
        << " errors in " << bits << " bits";
    RecordProperty("eps_" + std::to_string(static_cast<int>(eps * 10)),
                   std::to_string(ebn0_db) + " dB, BER " + std::to_string(ber) +
                       " vs bound " + std::to_string(bound));
  }
}

}  // namespace
}  // namespace silence
