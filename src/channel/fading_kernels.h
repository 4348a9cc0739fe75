// Internal to the channel module: the multipath FIR's SIMD kernel, so the
// kernel tests and perf_phy can run it against the tap-outer loop it
// replays. Nothing here is a configuration surface;
// FadingChannel::apply_multipath picks its kernel itself.
//
// Kernel contract. Both functions write out[n] = sum of taps[l] *
// in[n - l] over l = 0 .. min(n, num_taps - 1), bit for bit alike:
//  - the tap-outer loop adds each tap's products to a zeroed output, so
//    out[n] starts at +0.0 and takes its taps in ascending order, each
//    product in the split form (tr*sr - ti*si, tr*si + ti*sr);
//  - the AVX2 kernel runs sample-outer: each pair of outputs is summed
//    in one register from +0.0 over the taps in ascending order as
//    addsub(tr*s, ti*swap(s)), which is the same operations in the same
//    order. Head samples (fewer taps than num_taps) and the last
//    samples that do not fill two pairs take the same sums in scalar
//    code.
// Only which NaN an addition of two NaNs returns may differ, as the
// operand order of a commutative add is the compiler's choice.
#pragma once

#include <cstddef>

#include "dsp/fft.h"

namespace silence::fading_kernels {

// num_taps >= 1; `out` holds `count` samples and must not alias `in`.
using FirFn = void (*)(const Cx* taps, std::size_t num_taps, const Cx* in,
                       std::size_t count, Cx* out);

// The AVX2 kernel on an x86 CPU that has AVX2, else null, in which case
// apply_multipath runs fir_tap_outer. Checked once per process.
FirFn fir_kernel();

// The tap-outer loop: the fallback, and the kernel's oracle.
void fir_tap_outer(const Cx* taps, std::size_t num_taps, const Cx* in,
                   std::size_t count, Cx* out);

}  // namespace silence::fading_kernels
