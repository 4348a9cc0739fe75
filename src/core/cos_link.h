// The CoS link layer: ties the 802.11a PHY chains to the CoS components.
//
// Transmit side (paper Fig. 8, "power controller"): build the standard
// frame, plan silence placement for the control message on the agreed
// control subcarriers, zero those grid points, emit samples.
//
// Receive side ("energy detector" + EVD): run the PHY front end, detect
// silences on the control subcarriers, decode the control message from
// the silence intervals, decode the data with the detected silences as
// erasures, and — when the CRC passes — compute per-subcarrier EVM and
// the control-subcarrier selection to feed back for the next packet.
//
// Configuration comes from one shared CosProfile (core/cos_profile.h).
// The per-side types below are thin views of it: CosTxConfig adds the
// data MCS the transmitter needs on top of the profile, and CosRxConfig
// is the profile itself (the detector tuning and feedback flooring live
// there). Both are plain values — nothing here holds a pointer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/cos_profile.h"
#include "core/energy_detector.h"
#include "core/evm.h"
#include "core/interval_code.h"
#include "core/silence_plan.h"
#include "core/subcarrier_selection.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"

namespace silence {

// TX-side view of a CosProfile: the shared profile plus the data MCS of
// this packet. (The detector fields ride along unused — the transmitter
// only reads the control grid, interval width and scrambler seed.)
struct CosTxConfig : CosProfile {
  McsId mcs;  // invalid when default-constructed; cos_transmit throws

  CosTxConfig() = default;
  CosTxConfig(const CosProfile& profile, McsId mcs_id)
      : CosProfile(profile), mcs(mcs_id) {}
};

// RX-side view: everything the receiver reads is already in the profile.
using CosRxConfig = CosProfile;

struct CosTxPacket {
  TxFrame frame;     // grid already has silences applied
  SilencePlan plan;  // ground truth placement
  CxVec samples;     // full burst
};

// Builds and modulates a data packet with `control_bits` embedded as
// silence intervals. The control message is truncated to what fits the
// control grid; `plan.bits_sent` reports the conveyed prefix.
CosTxPacket cos_transmit(std::span<const std::uint8_t> psdu,
                         std::span<const std::uint8_t> control_bits,
                         const CosTxConfig& config);

struct CosRxPacket {
  // PHY results.
  FrontEndResult fe;
  DecodeResult decode;
  bool data_ok = false;
  Bytes psdu;
  // Control channel results.
  SilenceMask detected_mask;
  Bits control_bits;
  // Post-CRC channel analysis (only when data_ok).
  bool evm_valid = false;
  SubcarrierEvm evm{};
  std::vector<int> next_control_subcarriers;
};

// Receives a CoS burst. `next_mod` is the modulation expected for the
// next packet (used for the EVM > D_m/2 selection rule); when omitted the
// current packet's modulation is used. The workspace-taking overload
// reuses `ws` scratch for all steady-state symbol processing.
CosRxPacket cos_receive(std::span<const Cx> samples,
                        const CosRxConfig& config,
                        std::optional<Modulation> next_mod = std::nullopt);
CosRxPacket cos_receive(std::span<const Cx> samples,
                        const CosRxConfig& config,
                        std::optional<Modulation> next_mod, PhyWorkspace& ws);

// Reconstructs the transmitted constellation grid from a successfully
// decoded packet (re-mapping decoded bits through the transmit chain),
// for EVM computation. Requires decode.crc_ok.
SymbolGrid reconstruct_ideal_grid(const DecodeResult& decode, const Mcs& mcs);

}  // namespace silence
