#include "channel/interference.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "phy/params.h"

namespace silence {
namespace {

// The pulse fill draws exactly what the per-sample loop it replaced drew:
// one uniform per window, then a complex_gaussian per sample of a hit
// window, the last window partial.
TEST(Interference, BulkPulsesMatchPerSampleLoop) {
  const PulseInterferer interferer{.symbol_hit_probability = 0.4,
                                   .pulse_power = 2.5};
  for (const std::size_t size : {0u, 79u, 800u, 1000u}) {
    Rng rng(17), oracle(17);
    CxVec samples(size, Cx{0.5, -0.25});
    CxVec expected = samples;
    interferer.apply(samples, rng);
    for (std::size_t base = 0; base < expected.size(); base += kSymbolSamples) {
      if (oracle.uniform() >= interferer.symbol_hit_probability) continue;
      const std::size_t end =
          std::min(base + kSymbolSamples, expected.size());
      for (std::size_t n = base; n < end; ++n) {
        expected[n] += oracle.complex_gaussian(interferer.pulse_power);
      }
    }
    for (std::size_t n = 0; n < size; ++n) {
      ASSERT_EQ(samples[n], expected[n]) << "size " << size << " n " << n;
    }
    EXPECT_EQ(rng.gaussian(), oracle.gaussian());
  }
}

TEST(Interference, ZeroProbabilityLeavesSamplesUntouched) {
  Rng rng(1);
  CxVec samples(800, Cx{0.5, -0.25});
  PulseInterferer interferer{.symbol_hit_probability = 0.0,
                             .pulse_power = 10.0};
  interferer.apply(samples, rng);
  for (const Cx& x : samples) {
    EXPECT_EQ(x, (Cx{0.5, -0.25}));
  }
}

TEST(Interference, CertainHitTouchesEverySymbolWindow) {
  Rng rng(2);
  CxVec samples(800, Cx{0.0, 0.0});
  PulseInterferer interferer{.symbol_hit_probability = 1.0,
                             .pulse_power = 4.0};
  interferer.apply(samples, rng);
  for (std::size_t base = 0; base < samples.size();
       base += static_cast<std::size_t>(kSymbolSamples)) {
    double window_energy = 0.0;
    for (int n = 0; n < kSymbolSamples; ++n) {
      window_energy += std::norm(samples[base + static_cast<std::size_t>(n)]);
    }
    EXPECT_GT(window_energy, 0.0);
  }
}

TEST(Interference, PulsePowerCalibrated) {
  Rng rng(3);
  CxVec samples(80000, Cx{0.0, 0.0});
  const double power = 2.5;
  PulseInterferer interferer{.symbol_hit_probability = 1.0,
                             .pulse_power = power};
  interferer.apply(samples, rng);
  double total = 0.0;
  for (const Cx& x : samples) total += std::norm(x);
  EXPECT_NEAR(total / static_cast<double>(samples.size()), power,
              power * 0.05);
}

TEST(Interference, HitRateMatchesProbability) {
  Rng rng(4);
  const double p = 0.3;
  PulseInterferer interferer{.symbol_hit_probability = p, .pulse_power = 1.0};
  int hits = 0;
  const int windows = 5000;
  CxVec samples(static_cast<std::size_t>(windows) * kSymbolSamples,
                Cx{0.0, 0.0});
  interferer.apply(samples, rng);
  for (int w = 0; w < windows; ++w) {
    double e = 0.0;
    for (int n = 0; n < kSymbolSamples; ++n) {
      e += std::norm(samples[static_cast<std::size_t>(w) * kSymbolSamples +
                             static_cast<std::size_t>(n)]);
    }
    if (e > 0.0) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / windows, p, 0.03);
}

TEST(Interference, PartialTrailingWindowHandled) {
  Rng rng(5);
  CxVec samples(100, Cx{0.0, 0.0});  // 80 + 20 trailing samples
  PulseInterferer interferer{.symbol_hit_probability = 1.0,
                             .pulse_power = 1.0};
  interferer.apply(samples, rng);  // must not run past the end
  double tail_energy = 0.0;
  for (std::size_t n = 80; n < 100; ++n) tail_energy += std::norm(samples[n]);
  EXPECT_GT(tail_energy, 0.0);
}

}  // namespace
}  // namespace silence
