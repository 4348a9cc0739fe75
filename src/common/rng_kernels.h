// Internal to common/: the AWGN fill's two paths, so the oracle tests and
// perf_phy can run each one directly. Nothing here is a configuration
// surface; Rng::add_complex_gaussian picks its path itself.
//
// Staged fill contract. The fill adds to the samples, and leaves the
// engine and the saved Gaussian in, exactly what the per-sample loop
// does, bit for bit. Read as one stream, the loop adds
// sigma * polar_gaussian() to each double of the buffer in turn, and each
// accepted polar pair (x, y, r2) yields y*mult, then x*mult. The staged
// fill produces the same stream one engine block at a time:
//  - stage 1 (AVX2) reads the untempered block in place, tempers and
//    converts four words a vector (the two exact 32-bit halves, one
//    rounding, the clamp as `(m < c) ? m : c`, which equals std::min
//    on non-NaN values), forms x and y as 2u - 1, rejects r2 > 1 and
//    r2 == 0, and left-packs the accepted pairs in order. It stops at the
//    pair that completes the fill, so the engine advances by exactly the
//    words the loop would have consumed;
//  - stage 2 calls glibc's scalar log on each accepted r2, as the loop
//    does;
//  - stage 3 (AVX2) computes mult = sqrt(-2 * log / r2), the values
//    `* 1.0 + 0.0` and `sigma *` with the loop's operations in the loop's
//    order, and adds them to the buffer.
// polar_gaussian() still runs where the stream does not come from a
// whole block: a pending saved value, the stateless first half-block and
// a pair that straddles a block end. A fill that ends on the first value
// of a pair adds it in scalar code and saves the second, as
// polar_gaussian() would.
#pragma once

#include <complex>
#include <span>

#include "common/rng.h"

namespace silence::rng_kernels {

using FillFn = void (*)(Rng& rng, std::span<std::complex<double>> samples,
                        double variance);

// The staged fill on an x86 CPU that has AVX2, else null, in which case
// add_complex_gaussian runs per_sample_fill. Checked once per process.
FillFn staged_fill();

// The per-sample loop: re = sigma * gaussian(), then im, added to each
// sample. The fallback on CPUs without AVX2, and the staged fill's oracle.
void per_sample_fill(Rng& rng, std::span<std::complex<double>> samples,
                     double variance);

}  // namespace silence::rng_kernels
