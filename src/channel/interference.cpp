#include "channel/interference.h"

#include <algorithm>

#include "phy/params.h"

namespace silence {

void PulseInterferer::apply(std::span<Cx> samples, Rng& rng) const {
  for (std::size_t base = 0; base < samples.size();
       base += static_cast<std::size_t>(kSymbolSamples)) {
    if (rng.uniform() >= symbol_hit_probability) continue;
    const std::size_t len = std::min(
        static_cast<std::size_t>(kSymbolSamples), samples.size() - base);
    rng.add_complex_gaussian(samples.subspan(base, len), pulse_power);
  }
}

}  // namespace silence
