// Batched PHY engine: the packet-level facades that group receive lanes
// so the fixed-point Viterbi can decode up to ViterbiDecoder::kBatchLanes
// packets in lockstep (see ViterbiDecoder::decode_fixed_batch for the
// contract; on CPUs where decode_fixed runs the AVX2 add-compare-select,
// lanes decode one by one, which is faster there).
//
// The front end is the scalar chain's receiver_front_end_into() on the
// lane's workspace, so every OFDM symbol goes through the same 64-point
// FFT kernel (dsp/fft_kernels.h), and TX assembly is frame_to_samples().
// Decode replays decode_data_symbols()'s steps, split at the Viterbi
// call so lanes can meet there.
//
// Determinism contract: at any batch width, including B=1, every result
// byte (PSDU, CRC verdict, equalized points, LLR-derived bits, recovered
// seed) is identical to the scalar chain's, and the B=1 facades also
// emit the same observability side effects (flight events, counters) in
// the same order. The committed figure JSONs and the flight replay
// corpus are the oracle.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "phy/params.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"
#include "phy/viterbi.h"
#include "phy/workspace.h"

namespace silence {

// Reusable batch workspace: per-lane scalar workspaces and results.
// Buffers grow to the largest packet/batch seen and are reused, so
// steady-state batched processing performs no heap allocation (first use
// of a lane warms its buffers, like PhyWorkspace).
struct PhyBatch {
  // Maximum packets per sweep (matches the Viterbi's register width).
  static constexpr std::size_t kMaxLanes = ViterbiDecoder::kBatchLanes;

  // Per-lane scalar scratch (LLRs, survivors, corrected samples, ...).
  std::array<PhyWorkspace, kMaxLanes> lane_ws;
  // Per-lane front-end/decode state for the multi-lane entry points.
  std::array<FrontEndResult, kMaxLanes> lane_fe;
  std::array<DecodeResult, kMaxLanes> lane_decode;
  // Per-lane demap erasure counts (phase handoff inside multi-lane decode).
  std::array<std::size_t, kMaxLanes> lane_erased{};

  // Lane-batched Viterbi scratch.
  ViterbiBatchWorkspace viterbi;
  // Scratch holding per-lane mother-code spans and decoded outputs for
  // decode_fixed_batch (the outputs must be contiguous Bits objects).
  std::vector<std::span<const double>> llr_spans;
  std::array<Bits, kMaxLanes> viterbi_out;
};

// Process-wide engine switch consulted by the network/session layer
// (CLI `--no-phy-batch` clears it so CI can A/B the two paths). Defaults
// to enabled. The batched entry points themselves always run batched;
// the switch only controls whether call sites pick them.
bool phy_batch_enabled();
void set_phy_batch_enabled(bool on);

// --- Single-lane (B=1) facades -------------------------------------------
// Bit-identical results and observability side effects to the scalar
// functions of the same name, run on the batch's first lane.

FrontEndResult receiver_front_end_batch(std::span<const Cx> samples,
                                        PhyBatch& batch);
DecodeResult decode_data_symbols_batch(const FrontEndResult& fe,
                                       const Mcs& mcs, int length_octets,
                                       const SilenceMask* silence,
                                       PhyBatch& batch);
RxPacket receive_packet_batch(std::span<const Cx> samples, PhyBatch& batch);

// --- Multi-lane facades ---------------------------------------------------
// Each lane's result is bit-identical to the scalar chain run on that
// burst alone; lanes are processed in groups of up to kMaxLanes with the
// Viterbi vectorized across the group. Observability events interleave
// by phase rather than by packet (counter totals still match).

void receive_packet_batch(std::span<const std::span<const Cx>> bursts,
                          PhyBatch& batch, std::span<RxPacket> out);

// One decode lane: a front end that already parsed SIGNAL plus the decode
// parameters. `fe` may be null to skip the lane (its result is cleared).
struct DecodeLane {
  const FrontEndResult* fe = nullptr;
  const Mcs* mcs = nullptr;
  int length_octets = 0;
  const SilenceMask* silence = nullptr;
};

// Multi-lane data decode (used by the CoS receive facade, which needs
// per-lane silence masks): out[i] is bit-identical to
// decode_data_symbols(lanes[i]...) for every lane.
void decode_data_symbols_batch(std::span<const DecodeLane> lanes,
                               PhyBatch& batch, std::span<DecodeResult> out);

}  // namespace silence
