#include "phy/modulation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace silence {
namespace {

// Gray-coded PAM levels per axis, indexed by the axis bit pattern read
// MSB-first (802.11a tables 81-84).
constexpr std::array<double, 2> kPam2 = {-1.0, 1.0};  // 0 -> -1, 1 -> +1
// index b0b1: 00,01,10,11
constexpr std::array<double, 4> kPam4 = {-3.0, -1.0, 3.0, 1.0};
// index b0b1b2: 000..111
constexpr std::array<double, 8> kPam8 = {-7.0, -5.0, -1.0, -3.0,
                                         7.0,  5.0,  1.0,  3.0};

double axis_value(std::span<const std::uint8_t> bits) {
  switch (bits.size()) {
    case 1: return kPam2[bits[0] & 1U];
    case 2: return kPam4[((bits[0] & 1U) << 1) | (bits[1] & 1U)];
    case 3:
      return kPam8[((bits[0] & 1U) << 2) | ((bits[1] & 1U) << 1) |
                   (bits[2] & 1U)];
    default: throw std::invalid_argument("axis_value: bad bit count");
  }
}

template <std::size_t N>
std::size_t nearest_level(double y, const std::array<double, N>& levels) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (std::size_t idx = 0; idx < N; ++idx) {
    const double d = y - levels[idx];
    if (d * d < best_dist) {
      best_dist = d * d;
      best = idx;
    }
  }
  return best;
}

struct ConstellationTables {
  CxVec bpsk, qpsk, qam16, qam64;
  ConstellationTables() {
    const auto build = [](Modulation mod) {
      const int n = bits_per_symbol(mod);
      CxVec points;
      points.reserve(std::size_t{1} << n);
      for (std::uint64_t v = 0; v < (std::uint64_t{1} << n); ++v) {
        const Bits bits = uint_to_bits(v, n);
        points.push_back(map_symbol(bits, mod));
      }
      return points;
    };
    bpsk = build(Modulation::kBpsk);
    qpsk = build(Modulation::kQpsk);
    qam16 = build(Modulation::kQam16);
    qam64 = build(Modulation::kQam64);
  }
};

const ConstellationTables& tables() {
  static const ConstellationTables t;
  return t;
}

}  // namespace

double modulation_scale(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64: return 1.0 / std::sqrt(42.0);
  }
  throw std::invalid_argument("modulation_scale: bad modulation");
}

Cx map_symbol(std::span<const std::uint8_t> bits, Modulation mod) {
  const int n = bits_per_symbol(mod);
  if (bits.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("map_symbol: wrong bit count");
  }
  const double scale = modulation_scale(mod);
  if (mod == Modulation::kBpsk) {
    return {axis_value(bits.first(1)) * scale, 0.0};
  }
  const auto half = static_cast<std::size_t>(n / 2);
  const double i_axis = axis_value(bits.first(half));
  const double q_axis = axis_value(bits.subspan(half));
  return {i_axis * scale, q_axis * scale};
}

namespace {

// Maps n = kBits bits per point through the constellation table, reading
// each point's index MSB-first exactly as map_symbol reads its bits.
template <int kBits>
void map_with_table(const std::uint8_t* bits, std::span<const Cx> table,
                    std::span<Cx> out) {
  for (Cx& point : out) {
    unsigned idx = 0;
#pragma GCC unroll 6
    for (int k = 0; k < kBits; ++k) idx = (idx << 1) | (bits[k] & 1U);
    point = table[idx];
    bits += kBits;
  }
}

// One point's two axes (I, Q) side by side. Every operation below is
// lane-wise IEEE arithmetic, so each lane computes exactly the scalar
// per-axis expression it replaces.
using AxisPair = double __attribute__((vector_size(16)));

// d < best ? d : best, per lane: the max-log search's running minimum.
// NaN distances never replace the running value, as in a scalar `<`.
inline AxisPair take_if_less(AxisPair d, AxisPair best) {
#if defined(__SSE2__)
  return _mm_min_pd(d, best);
#else
  return d < best ? d : best;
#endif
}

// Max-log LLRs of one row for a modulation whose axes carry the Gray PAM
// `levels` (kAxes = 1: BPSK, I axis only). Per axis, each level's squared
// distance is computed once; bit b's LLR is the minimum over the levels
// whose index has bit b set, minus the minimum over those with it clear
// (each minimum seeded with DBL_MAX), times the point's weight. Output
// order per point: the I axis's bits MSB-first, then the Q axis's.
template <std::size_t N, int kAxes>
std::size_t demod_row(std::span<const Cx> points,
                      const std::array<double, N>& levels, double scale,
                      std::span<const double> weights,
                      const std::uint8_t* erased, double* out) {
  constexpr int kBits = std::bit_width(N) - 1;
  constexpr int kPerPoint = kBits * kAxes;
  constexpr double kFar = std::numeric_limits<double>::max();
  const AxisPair scale2 = {scale, scale};
  std::size_t erased_points = 0;
  for (std::size_t i = 0; i < points.size(); ++i, out += kPerPoint) {
    if (erased != nullptr && erased[i] != 0) {
      // EVD: every constellation bit of a silence symbol is an erasure.
      std::fill(out, out + kPerPoint, 0.0);
      ++erased_points;
      continue;
    }
    const AxisPair y = AxisPair{points[i].real(), points[i].imag()} / scale2;
    AxisPair dist[N];
#pragma GCC unroll 8
    for (std::size_t idx = 0; idx < N; ++idx) {
      const AxisPair d = y - levels[idx];
      dist[idx] = d * d;
    }
    const double w = weights[i];
#pragma GCC unroll 3
    for (int b = 0; b < kBits; ++b) {
      AxisPair best0 = {kFar, kFar};
      AxisPair best1 = {kFar, kFar};
#pragma GCC unroll 8
      for (std::size_t idx = 0; idx < N; ++idx) {
        if (((idx >> (kBits - 1 - b)) & 1U) != 0) {
          best1 = take_if_less(dist[idx], best1);
        } else {
          best0 = take_if_less(dist[idx], best0);
        }
      }
      const AxisPair llr = (best1 - best0) * w;
      out[b] = llr[0];
      if constexpr (kAxes == 2) out[kBits + b] = llr[1];
    }
  }
  return erased_points;
}

}  // namespace

void map_bits_into(std::span<const std::uint8_t> bits, Modulation mod,
                   std::span<Cx> out) {
  const auto n = static_cast<std::size_t>(bits_per_symbol(mod));
  if (bits.size() % n != 0) {
    throw std::invalid_argument("map_bits: not a whole number of symbols");
  }
  if (out.size() != bits.size() / n) {
    throw std::invalid_argument("map_bits_into: output size mismatch");
  }
  const std::span<const Cx> table = constellation(mod);
  switch (mod) {
    case Modulation::kBpsk: map_with_table<1>(bits.data(), table, out); return;
    case Modulation::kQpsk: map_with_table<2>(bits.data(), table, out); return;
    case Modulation::kQam16: map_with_table<4>(bits.data(), table, out); return;
    case Modulation::kQam64: map_with_table<6>(bits.data(), table, out); return;
  }
}

CxVec map_bits(std::span<const std::uint8_t> bits, Modulation mod) {
  const auto n = static_cast<std::size_t>(bits_per_symbol(mod));
  if (bits.size() % n != 0) {
    throw std::invalid_argument("map_bits: not a whole number of symbols");
  }
  CxVec out(bits.size() / n);
  map_bits_into(bits, mod, out);
  return out;
}

double demod_llr_weight(Modulation mod, double noise_var) {
  // Distances are computed on the unscaled grid; fold the scale into the
  // noise normalization so LLR magnitudes stay proportional to true ones.
  const double scale = modulation_scale(mod);
  return scale * scale / std::max(noise_var, 1e-12);
}

std::size_t demod_row_llrs(std::span<const Cx> points, Modulation mod,
                           std::span<const double> weights,
                           const std::uint8_t* erased, std::span<double> out) {
  const auto n_bpsc = static_cast<std::size_t>(bits_per_symbol(mod));
  if (weights.size() != points.size() ||
      out.size() != points.size() * n_bpsc) {
    throw std::invalid_argument("demod_row_llrs: size mismatch");
  }
  const double scale = modulation_scale(mod);
  switch (mod) {
    case Modulation::kBpsk:
      return demod_row<2, 1>(points, kPam2, scale, weights, erased, out.data());
    case Modulation::kQpsk:
      return demod_row<2, 2>(points, kPam2, scale, weights, erased, out.data());
    case Modulation::kQam16:
      return demod_row<4, 2>(points, kPam4, scale, weights, erased, out.data());
    case Modulation::kQam64:
      return demod_row<8, 2>(points, kPam8, scale, weights, erased, out.data());
  }
  throw std::invalid_argument("demod_row_llrs: bad modulation");
}

void demod_llrs(Cx y, Modulation mod, double noise_var,
                std::vector<double>& out) {
  const double weight = demod_llr_weight(mod, noise_var);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(bits_per_symbol(mod)));
  demod_row_llrs(std::span(&y, 1), mod, std::span(&weight, 1), nullptr,
                 std::span(out).subspan(at));
}

Bits hard_decision_bits(Cx y, Modulation mod) {
  const double scale = modulation_scale(mod);
  const double yi = y.real() / scale;
  const double yq = y.imag() / scale;
  Bits bits;
  const auto push_axis = [&bits](std::size_t index, int nbits) {
    for (int b = nbits - 1; b >= 0; --b) {
      bits.push_back(static_cast<std::uint8_t>((index >> b) & 1U));
    }
  };
  switch (mod) {
    case Modulation::kBpsk:
      push_axis(nearest_level(yi, kPam2), 1);
      return bits;
    case Modulation::kQpsk:
      push_axis(nearest_level(yi, kPam2), 1);
      push_axis(nearest_level(yq, kPam2), 1);
      return bits;
    case Modulation::kQam16:
      push_axis(nearest_level(yi, kPam4), 2);
      push_axis(nearest_level(yq, kPam4), 2);
      return bits;
    case Modulation::kQam64:
      push_axis(nearest_level(yi, kPam8), 3);
      push_axis(nearest_level(yq, kPam8), 3);
      return bits;
  }
  throw std::invalid_argument("hard_decision_bits: bad modulation");
}

Cx hard_decision(Cx y, Modulation mod) {
  return map_symbol(hard_decision_bits(y, mod), mod);
}

std::span<const Cx> constellation(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return tables().bpsk;
    case Modulation::kQpsk: return tables().qpsk;
    case Modulation::kQam16: return tables().qam16;
    case Modulation::kQam64: return tables().qam64;
  }
  throw std::invalid_argument("constellation: bad modulation");
}

double min_constellation_distance(Modulation mod) {
  // Adjacent PAM levels differ by 2 on the unscaled grid.
  return 2.0 * modulation_scale(mod);
}

double min_symbol_energy(Modulation mod) {
  // Inner points sit at (+-1, +-1) on the unscaled grid (just +-1 for
  // BPSK's real axis).
  const double scale = modulation_scale(mod);
  const double per_axis = scale * scale;
  return mod == Modulation::kBpsk ? per_axis : 2.0 * per_axis;
}

}  // namespace silence
