// Reusable scratch buffers for the TX/RX hot paths.
//
// One PhyWorkspace serves one chain invocation at a time (they are cheap:
// a handful of vectors that grow to the largest frame seen and stay).
// Threading a workspace through build_frame/frame_to_samples on the way
// out and receiver_front_end/decode_data_symbols on the way in makes
// steady-state symbol processing allocation-free; per-packet outputs
// (PSDUs, grids, decoded bits) still own their memory.
//
// Ownership rules:
//  - The workspace owns only *transient* data; nothing in a result struct
//    points into it, so results outlive the workspace freely.
//  - Functions may clobber any field; callers must not rely on workspace
//    contents across calls.
//  - A workspace is single-threaded state. Per-thread reuse without
//    explicit plumbing goes through default_phy_workspace().
//  - net::NetSim owns one workspace per run and hands it to every
//    station's session instead of using the thread's default, so the
//    buffers live and die with the run: a workspace that outlives runs
//    made glibc trim and regrow the heap top on almost every packet
//    (docs/ARCHITECTURE.md, "One PHY chain").
#pragma once

#include "common/bits.h"
#include "dsp/fft.h"
#include "phy/puncture.h"
#include "phy/viterbi.h"

namespace silence {

struct PhyWorkspace {
  // RX: CFO-corrected copy of the incoming burst, the size of the burst.
  // Only the samples the receiver reads are written: the LTF after its
  // guard and each whole symbol's FFT body.
  CxVec corrected;
  // RX: demapped LLR stream (symbol order) and its deinterleaved form.
  std::vector<double> llrs;
  std::vector<double> deint;
  // RX: depunctured mother-code stream fed to the Viterbi decoder.
  Llrs mother;
  // RX: decoder output before descrambling.
  Bits scrambled;
  // RX: re-encoded decoder output (observability's corrected-bit count).
  Bits recode_mother;
  Bits recoded;
  // RX/TX: Viterbi survivor storage and quantized branch metrics.
  ViterbiWorkspace viterbi;
};

// Per-thread workspace used by the convenience overloads that do not take
// an explicit one. Results never alias it, so sharing is safe.
inline PhyWorkspace& default_phy_workspace() {
  thread_local PhyWorkspace workspace;
  return workspace;
}

}  // namespace silence
