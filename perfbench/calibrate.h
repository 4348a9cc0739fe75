// Machine-speed calibration. The benchmark runs on shared hosts whose
// speed drifts by tens of percent over seconds to minutes (other tenants
// contend for the cores' execution units and caches), which moves every
// wall-clock time with it. A fixed kernel, timed right before and right
// after each rep, measures that speed; each rep's times are then scaled
// to the kernel's reference time, so a timing metric reads what the rep
// would have taken at one fixed machine speed.
//
// The kernel is the benchmark's own code, built with fixed flags
// (perfbench/CMakeLists.txt), so a change to the simulator or to the
// repository's compile options does not move it.
#pragma once

namespace perfbench {

// Wall time of the calibration kernel on the reference machine (a shared
// 4-core Intel Xeon KVM guest) in a quiet stretch, in seconds.
inline constexpr double kCalibrationRefS = 0.010;

// Runs the calibration kernel once and returns its wall time in seconds.
double calibration_s();

}  // namespace perfbench
