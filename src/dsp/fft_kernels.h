// Internal to the DSP module: the 64-point FFT's SIMD kernel, so the
// kernel tests and perf_phy can run it against FftPlan::run(). Nothing
// here is a configuration surface; FftPlan picks its kernel itself.
//
// Kernel contract. The kernel computes exactly what FftPlan::run()
// computes for n = 64, bit for bit:
//  - it gathers the input through the plan's bit reversal into split
//    re/im arrays, runs the six radix-2 stages with the plan's twiddles
//    (split copies), and interleaves the result back. Within a stage the
//    butterflies are independent, so only their grouping into vectors
//    differs from run(): the gather stores each block of 8 as its even
//    elements, then its odd ones, so the first stage runs on whole
//    vectors, and unpacklo/unpackhi and permute2f128 regroup the next
//    two in registers;
//  - every twiddle product is GCC's inline complex multiply,
//    vr = xr*wr - xi*wi and vi = xr*wi + xi*wr, with no FMA (the kernel
//    targets avx2 without fma, and the build keeps -ffp-contract=off);
//  - the inverse multiplies each part by 1/64 after the stages, as
//    `x *= scale` does.
// Two things differ only where a NaN appears:
//  - when both parts of an inline product are NaN, GCC calls libgcc's
//    __muldc3, which recovers infinities (symbols holding an inf or
//    ~1e308 sample);
//  - which NaN an addition of two NaNs returns depends on the operand
//    order a compiler picks for a commutative add (a NaN input meeting
//    the default NaN of an inf*0).
// A NaN never leaves the butterflies, so the kernel checks only its 64
// outputs: if any is NaN, it returns false without touching `data`, and
// the plan runs run() instead. Only symbols holding a NaN, an inf or
// samples near DBL_MAX get there.
#pragma once

#include "dsp/fft.h"

namespace silence::fft_kernels {

// The AVX2 kernel on an x86 CPU that has AVX2, else null, in which case
// run() does every transform. Checked once per process.
Fft64Fn fft64_kernel();

}  // namespace silence::fft_kernels
