// Allocation-count regression tests for the PHY fast path.
//
// This binary replaces the global operator new/delete with counting
// versions (test-only; nothing in src/ knows about them) and asserts the
// properties the workspace refactor and the bit path exist to provide,
// plus when the RNG allocates its engine state:
//
//  1. Per-symbol kernels (time<->bins transforms, equalization, the
//     fixed-point Viterbi with a warm workspace) allocate *nothing*.
//  2. Whole-packet RX with a warm PhyWorkspace performs a number of
//     allocations that does not depend on the number of OFDM symbols —
//     result buffers are single flat allocations, so doubling the packet
//     grows allocation *sizes* but not allocation *counts*.
//  3. The bit stages allocate only what their results own: a warm
//     build_frame makes exactly its coded stream and grid, a warm
//     decode_data_symbols exactly its equalized grid and PSDU, with no
//     per-stage bit buffer in between.
//
// The hooks live in this dedicated binary because replacing operator new
// is a process-wide decision that must not leak into other test targets.
#include <array>
#include <atomic>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/cos_link.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"
#include "phy/viterbi.h"
#include "phy/workspace.h"

namespace {

std::atomic<std::size_t> g_alloc_count{0};

}  // namespace

// Counting allocator: malloc-backed so the matching deletes below are the
// only other pieces needed. Sized/array/nothrow forms all funnel here.
void* operator new(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p != nullptr) g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace silence {
namespace {

// Sanitizer builds interpose their own allocator machinery; the absolute
// counts below are only meaningful against the plain runtime.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

template <typename Fn>
std::size_t allocations_during(const Fn& fn) {
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

Bytes test_psdu(std::uint64_t seed, std::size_t total) {
  Rng rng(seed);
  Bytes psdu = rng.bytes(total - 4);
  append_fcs(psdu);
  return psdu;
}

TEST(AllocCount, HookIsLive) {
  // The sink keeps the allocation observable so the compiler cannot elide
  // the new/delete pair outright.
  static const void* volatile sink;
  const std::size_t n = allocations_during([] {
    std::vector<int> v(16, 42);
    sink = v.data();
  });
  EXPECT_NE(sink, nullptr);
  EXPECT_GE(n, 1u);
}

// A stream's first 156 words come straight from its seed; the 2.5 KB
// engine state is allocated once, at word 156, and copied only when built.
TEST(AllocCount, RngStateOnlyPastHalfABlock) {
  if (kSanitized) GTEST_SKIP() << "allocation counts unreliable under sanitizers";
  Rng rng(11);
  EXPECT_EQ(allocations_during([&rng] {
              for (int i = 0; i < 156; ++i) rng.engine()();
            }),
            0u);
  const Rng unbuilt_copy = rng;
  EXPECT_EQ(allocations_during([&rng] { rng.engine()(); }), 1u);
  EXPECT_EQ(allocations_during([&rng] {
              for (int i = 0; i < 1000; ++i) rng.gaussian();
            }),
            0u);
  EXPECT_EQ(allocations_during([&rng] { const Rng copy = rng; }), 1u);
  EXPECT_EQ(allocations_during([&unbuilt_copy] {
              const Rng copy = unbuilt_copy;
            }),
            0u);
}

TEST(AllocCount, PerSymbolKernelsAllocateNothing) {
  if (kSanitized) GTEST_SKIP() << "allocation counts unreliable under sanitizers";
  // First touch builds the cached FFT plan and pilot/bin tables.
  std::array<Cx, kFftSize> bins{};
  std::array<Cx, kSymbolSamples> symbol{};
  std::array<Cx, kNumDataSubcarriers> data{};
  std::array<Cx, kFftSize> channel{};
  for (auto& h : channel) h = Cx{1.0, 0.0};
  data.fill(Cx{1.0, 0.0});
  assemble_frequency_bins_into(data, 1, bins);
  bins_to_time_into(bins, symbol);
  time_to_bins_into(symbol, bins);
  equalize_data_points_into(bins, channel, data);

  const std::size_t n = allocations_during([&] {
    for (int rep = 0; rep < 16; ++rep) {
      assemble_frequency_bins_into(data, rep, bins);
      bins_to_time_into(bins, symbol);
      time_to_bins_into(symbol, bins);
      equalize_data_points_into(bins, channel, data);
      extract_data_points_into(bins, data);
    }
  });
  EXPECT_EQ(n, 0u) << "per-symbol OFDM kernels must not allocate";
}

TEST(AllocCount, WarmViterbiFixedAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << "allocation counts unreliable under sanitizers";
  Rng rng(7);
  std::vector<double> llrs(2 * 4096);
  for (auto& v : llrs) v = rng.uniform() * 8.0 - 4.0;
  const ViterbiDecoder decoder;
  ViterbiWorkspace ws;
  Bits out;
  decoder.decode_fixed(llrs, false, ws, out);  // sizes every buffer

  const std::size_t n = allocations_during([&] {
    decoder.decode_fixed(llrs, false, ws, out);
    decoder.decode_fixed(llrs, true, ws, out);
  });
  EXPECT_EQ(n, 0u) << "warm fixed-point Viterbi must not allocate";
}

TEST(AllocCount, ReceiveAllocationsIndependentOfSymbolCount) {
  if (kSanitized) GTEST_SKIP() << "allocation counts unreliable under sanitizers";
  const Mcs& mcs = mcs_for_rate(24);
  const CxVec small = frame_to_samples(build_frame(test_psdu(1, 256), mcs));
  const CxVec large = frame_to_samples(build_frame(test_psdu(2, 1500), mcs));

  PhyWorkspace ws;
  // Warm the workspace (and every lazy table) with the *larger* frame so
  // neither measured run grows a scratch buffer.
  (void)receive_packet(large, ws);
  (void)receive_packet(small, ws);

  const std::size_t n_small =
      allocations_during([&] { (void)receive_packet(small, ws); });
  const std::size_t n_large =
      allocations_during([&] { (void)receive_packet(large, ws); });
  // ~6x the symbol count must not change the number of allocations: all
  // per-symbol processing runs out of the workspace, and result buffers
  // are reserved exactly once.
  EXPECT_EQ(n_small, n_large)
      << "RX allocation count must not scale with packet length";
  // Sanity: the count is small (result containers only, not per symbol).
  const std::size_t n_sym_large =
      (large.size() - static_cast<std::size_t>(kPreambleSamples)) /
      kSymbolSamples;
  EXPECT_LT(n_large, n_sym_large)
      << "allocation count should be far below one per symbol";
}

TEST(AllocCount, CosReceiveAllocationsIndependentOfSymbolCount) {
  if (kSanitized) GTEST_SKIP() << "allocation counts unreliable under sanitizers";
  Rng rng(9);
  CosTxConfig tx_config;
  tx_config.mcs = McsId::for_rate(24);
  tx_config.control_subcarriers = {10, 11, 12, 13, 14, 15, 16, 17};
  const Bits control = rng.bits(48);
  const CosTxPacket tx_small =
      cos_transmit(test_psdu(3, 256), control, tx_config);
  const CosTxPacket tx_large =
      cos_transmit(test_psdu(4, 1500), control, tx_config);
  CosRxConfig rx_config;
  rx_config.control_subcarriers = tx_config.control_subcarriers;

  PhyWorkspace ws;
  (void)cos_receive(tx_large.samples, rx_config, std::nullopt, ws);
  (void)cos_receive(tx_small.samples, rx_config, std::nullopt, ws);

  const std::size_t n_small = allocations_during(
      [&] { (void)cos_receive(tx_small.samples, rx_config, std::nullopt, ws); });
  const std::size_t n_large = allocations_during(
      [&] { (void)cos_receive(tx_large.samples, rx_config, std::nullopt, ws); });
  // The PHY side is allocation-flat; the only per-symbol containers left
  // are the detector's SilenceMask rows (control-plane output, two masks:
  // detected + ground-truth-shaped empty). Bound the growth to that.
  const auto n_sym = [](const CxVec& samples) {
    return (samples.size() - static_cast<std::size_t>(kPreambleSamples)) /
           kSymbolSamples;
  };
  ASSERT_GE(n_large, n_small);
  const std::size_t extra_symbols =
      n_sym(tx_large.samples) - n_sym(tx_small.samples);
  EXPECT_LE(n_large - n_small, 2 * extra_symbols)
      << "CoS RX must not allocate beyond the per-symbol detector mask";
}

TEST(AllocCount, WarmBuildFrameAllocatesOnlyItsResult) {
  if (kSanitized) GTEST_SKIP() << "allocation counts unreliable under sanitizers";
  // Two allocations: TxFrame::coded_bits and TxFrame::data_grid. No
  // unpacked, mother-code or interleaved stream, at any rate or length.
  for (const Mcs& mcs : all_mcs()) {
    for (const std::size_t octets : {5u, 120u, 1668u, 4095u}) {
      const Bytes psdu = test_psdu(octets, octets);
      (void)build_frame(psdu, mcs, 0x3C);  // first use builds the tables
      const std::size_t n =
          allocations_during([&] { (void)build_frame(psdu, mcs, 0x3C); });
      EXPECT_EQ(n, 2u) << mcs.data_rate_mbps << " Mb/s, " << octets
                       << " octets";
    }
  }
}

TEST(AllocCount, WarmDecodeAllocatesOnlyItsResult) {
  if (kSanitized) GTEST_SKIP() << "allocation counts unreliable under sanitizers";
  // Two allocations: DecodeResult::eq_data and DecodeResult::psdu. No
  // hard-decision, descrambled or re-encoded stream, with or without a
  // silence mask.
  for (const Mcs& mcs : all_mcs()) {
    const Bytes psdu = test_psdu(mcs.data_rate_mbps, 600);
    const CxVec samples = frame_to_samples(build_frame(psdu, mcs));
    PhyWorkspace ws;
    const FrontEndResult fe = receiver_front_end(samples, ws);
    ASSERT_TRUE(fe.signal.has_value());
    const SilenceMask mask(fe.data_bins.size(),
                           std::vector<std::uint8_t>(kNumDataSubcarriers, 0));
    for (const SilenceMask* silence : {static_cast<const SilenceMask*>(nullptr),
                                       &mask}) {
      (void)decode_data_symbols(fe, mcs, static_cast<int>(psdu.size()),
                                silence, ws);
      const std::size_t n = allocations_during([&] {
        const DecodeResult decode = decode_data_symbols(
            fe, mcs, static_cast<int>(psdu.size()), silence, ws);
        EXPECT_TRUE(decode.crc_ok);
      });
      EXPECT_EQ(n, 2u) << mcs.data_rate_mbps << " Mb/s";
    }
  }
}

}  // namespace
}  // namespace silence
