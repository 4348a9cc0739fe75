// PHY throughput microbenchmarks (google-benchmark): the hot paths of the
// simulator — FFT, Viterbi decoding, the full transmit and receive chains,
// the CoS additions (energy detection, silence planning) and the
// channel's AWGN sampler.
//
// Besides the console table, every run writes `results/BENCH_phy.json`
// (per-stage ns/op and items/sec) through the runner's JSON sink so PRs
// have a machine-readable perf baseline to diff against. Builds with
// SILENCE_OBS=ON additionally record `stage_throughput` — Mitems/s per
// instrumented pipeline stage (items = samples, bits or subcarriers,
// whichever the stage's `<stage>.items` counter tracks) straight from the
// obs metrics registry. `--trace FILE` dumps a Chrome trace of the run.
// A trailing `context` object records the machine and build that produced
// the numbers: the git commit, CPU model, hardware threads, build type,
// SILENCE_OBS, SILENCE_NATIVE, and which Viterbi add-compare-select,
// 64-point FFT, multipath FIR and AWGN fill kernels ran.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "channel/fading.h"
#include "channel/fading_kernels.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/rng_kernels.h"
#include "core/cos_link.h"
#include "dsp/fft_kernels.h"
#include "obs/obs.h"
#include "phy/convolutional.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"
#include "phy/viterbi.h"
#include "phy/viterbi_kernels.h"
#include "perf_phy_git_sha.h"
#include "runner/json.h"
#include "runner/sinks.h"

namespace silence {
namespace {

// Items conventions: chain-level benches count PSDU bytes, kernel-level
// benches count samples or bits, so the items_per_second ratio of two
// rows doing the same work reads as a speedup (CI's ratio gates).
constexpr std::size_t kBenchPsduBytes = 1024;

Bytes bench_psdu(std::size_t total) {
  Rng rng(1);
  Bytes psdu = rng.bytes(total - 4);
  append_fcs(psdu);
  return psdu;
}

// One 64-point transform through the plan (the SIMD kernel on x86), or
// through the portable loop it replays bit for bit; each copies a fresh
// symbol into a preallocated buffer first. CI gates their ratio.
void fft64_bench(benchmark::State& state, bool oracle) {
  Rng rng(2);
  CxVec data(64);
  for (auto& x : data) x = rng.complex_gaussian(1.0);
  const FftPlan& plan = fft_plan(64);
  CxVec work(64);
  for (auto _ : state) {
    std::copy(data.begin(), data.end(), work.begin());
    if (oracle) {
      plan.run(work, /*inverse=*/false);
    } else {
      plan.forward(work);
    }
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

void BM_Fft64(benchmark::State& state) { fft64_bench(state, false); }
BENCHMARK(BM_Fft64);

void BM_Fft64Oracle(benchmark::State& state) { fft64_bench(state, true); }
BENCHMARK(BM_Fft64Oracle);

void BM_ViterbiDecode(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Bits info = rng.bits(bits);
  info.insert(info.end(), 6, 0);
  const Bits coded = convolutional_encode(info);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -4.0 : 4.0;
  }
  const ViterbiDecoder decoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(llrs));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(bits));
}
BENCHMARK(BM_ViterbiDecode)->Arg(1024)->Arg(8214);

// The fixed-point kernel the receive chain actually runs, measured with a
// warm workspace the way the chain holds one (zero allocations per call).
void BM_ViterbiDecodeFixed(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Bits info = rng.bits(bits);
  info.insert(info.end(), 6, 0);
  const Bits coded = convolutional_encode(info);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -4.0 : 4.0;
  }
  const ViterbiDecoder decoder;
  ViterbiWorkspace ws;
  Bits out;
  decoder.decode_fixed(llrs, true, ws, out);  // warm the workspace
  for (auto _ : state) {
    decoder.decode_fixed(llrs, true, ws, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(bits));
}
BENCHMARK(BM_ViterbiDecodeFixed)->Arg(1024)->Arg(8214);

void BM_TransmitChain(benchmark::State& state) {
  const Bytes psdu = bench_psdu(kBenchPsduBytes);
  const Mcs& mcs = mcs_for_rate(24);
  for (auto _ : state) {
    const TxFrame frame = build_frame(psdu, mcs);
    benchmark::DoNotOptimize(frame_to_samples(frame));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kBenchPsduBytes));
}
BENCHMARK(BM_TransmitChain);

void BM_ReceiveChain(benchmark::State& state) {
  const Bytes psdu = bench_psdu(kBenchPsduBytes);
  const Mcs& mcs = mcs_for_rate(24);
  const CxVec samples = frame_to_samples(build_frame(psdu, mcs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(receive_packet(samples));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kBenchPsduBytes));
}
BENCHMARK(BM_ReceiveChain);

void BM_CosTransmit(benchmark::State& state) {
  const Bytes psdu = bench_psdu(kBenchPsduBytes);
  Rng rng(4);
  const Bits control = rng.bits(96);
  CosTxConfig config;
  config.mcs = McsId::for_rate(24);
  config.control_subcarriers = {10, 11, 12, 13, 14, 15, 16, 17};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cos_transmit(psdu, control, config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kBenchPsduBytes));
}
BENCHMARK(BM_CosTransmit);

void BM_CosReceive(benchmark::State& state) {
  const Bytes psdu = bench_psdu(kBenchPsduBytes);
  Rng rng(5);
  const Bits control = rng.bits(96);
  CosTxConfig tx_config;
  tx_config.mcs = McsId::for_rate(24);
  tx_config.control_subcarriers = {10, 11, 12, 13, 14, 15, 16, 17};
  const CosTxPacket tx = cos_transmit(psdu, control, tx_config);
  CosRxConfig rx_config;
  rx_config.control_subcarriers = tx_config.control_subcarriers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cos_receive(tx.samples, rx_config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kBenchPsduBytes));
}
BENCHMARK(BM_CosReceive);

void BM_FadingChannelTransmit(benchmark::State& state) {
  const Bytes psdu = bench_psdu(kBenchPsduBytes);
  const CxVec samples = frame_to_samples(build_frame(psdu, mcs_for_rate(24)));
  MultipathProfile profile;
  FadingChannel channel(profile, 6);
  Rng rng(7);
  const double nv = noise_var_for_snr_db(15.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.transmit(samples, nv, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(samples.size()));
}
BENCHMARK(BM_FadingChannelTransmit);

// The multipath FIR over one 1500-octet 24 Mb/s burst (11,440 samples,
// the default 8 taps) into a preallocated buffer, through the kernel
// apply_multipath runs (AVX2 on x86), or through the tap-outer loop it
// replays bit for bit. CI gates their ratio.
void fading_multipath_bench(benchmark::State& state, bool oracle) {
  constexpr std::size_t kSamples = 11440;
  const FadingChannel channel(MultipathProfile{}, 6);
  Rng rng(8);
  CxVec in(kSamples);
  for (Cx& x : in) x = rng.complex_gaussian(1.0);
  CxVec out(kSamples);
  const fading_kernels::FirFn kernel = fading_kernels::fir_kernel();
  const fading_kernels::FirFn fir = oracle || kernel == nullptr
                                        ? fading_kernels::fir_tap_outer
                                        : kernel;
  const std::span<const Cx> taps = channel.taps();
  for (auto _ : state) {
    fir(taps.data(), taps.size(), in.data(), in.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kSamples));
}

void BM_FadingMultipath(benchmark::State& state) {
  fading_multipath_bench(state, false);
}
BENCHMARK(BM_FadingMultipath);

void BM_FadingMultipathOracle(benchmark::State& state) {
  fading_multipath_bench(state, true);
}
BENCHMARK(BM_FadingMultipathOracle);

// The AWGN sampler against the libstdc++ stack whose stream it
// reproduces bit for bit. The reference loop exists only as the
// denominator of CI's same-run ratio gate; nothing in the simulator draws
// from the standard engine or distributions.
constexpr std::size_t kGaussianFillSamples = 4096;
constexpr double kGaussianFillVariance = 0.5;

void BM_ComplexGaussianFill(benchmark::State& state) {
  Rng rng(11);
  CxVec samples(kGaussianFillSamples);
  for (auto _ : state) {
    rng.add_complex_gaussian(samples, kGaussianFillVariance);
    benchmark::DoNotOptimize(samples.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(samples.size()));
}
BENCHMARK(BM_ComplexGaussianFill);

void BM_ComplexGaussianStdlib(benchmark::State& state) {
  std::mt19937_64 engine(11);
  std::normal_distribution<double> normal(0.0, 1.0);
  CxVec samples(kGaussianFillSamples);
  const double sigma = std::sqrt(kGaussianFillVariance / 2.0);
  for (auto _ : state) {
    for (Cx& x : samples) {
      const double re = sigma * normal(engine);
      const double im = sigma * normal(engine);
      x += Cx{re, im};
    }
    benchmark::DoNotOptimize(samples.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(samples.size()));
}
BENCHMARK(BM_ComplexGaussianStdlib);

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s;
#else
  return "unknown";
#endif
}

runner::Json build_context() {
  runner::Json c = runner::Json::object();
  c.set("git_sha", PERF_PHY_GIT_SHA);
  c.set("cpu", cpu_model());
  c.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  c.set("build_type", PERF_PHY_BUILD_TYPE);
  c.set("silence_obs", SILENCE_OBS_ON != 0);
  c.set("silence_native", PERF_PHY_NATIVE != 0);
  c.set("acs_kernel", viterbi_kernels::acs_kernel().name);
  c.set("fft_kernel",
        fft_kernels::fft64_kernel() != nullptr ? "avx2" : "portable");
  c.set("fir_kernel",
        fading_kernels::fir_kernel() != nullptr ? "avx2" : "tap-outer");
  c.set("awgn_fill",
        rng_kernels::staged_fill() != nullptr ? "staged-avx2" : "per-sample");
  return c;
}

// Console output as usual, plus a structured record of every run for the
// perf-baseline file.
class JsonEmitReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      runner::Json entry = runner::Json::object();
      entry.set("name", run.benchmark_name());
      entry.set("iterations", static_cast<std::int64_t>(run.iterations));
      entry.set("real_ns", run.GetAdjustedRealTime());
      entry.set("cpu_ns", run.GetAdjustedCPUTime());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        entry.set("items_per_second", static_cast<double>(items->second));
      }
      stages_.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void write_json(const std::string& path) const {
    runner::Json root = runner::Json::object();
    root.set("bench", "perf_phy");
    root.set("schema_version", 1);
    root.set("stages", runner::Json::Array(stages_));
    // Per-stage pipeline throughput from the obs registry: every
    // instrumented stage with a `<stage>.ns` histogram and a matching
    // `<stage>.items` counter. Appended after the legacy fields so
    // existing consumers of bench/schema_version/stages see identical
    // bytes; absent entirely in SILENCE_OBS=OFF builds (empty snapshot).
    const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
    runner::Json throughput = runner::Json::object();
    bool any = false;
    for (const auto& h : snapshot.histograms) {
      constexpr std::string_view kNsSuffix = ".ns";
      if (h.name.size() <= kNsSuffix.size() ||
          h.name.compare(h.name.size() - kNsSuffix.size(), kNsSuffix.size(),
                         kNsSuffix) != 0) {
        continue;
      }
      const std::string stage =
          h.name.substr(0, h.name.size() - kNsSuffix.size());
      const auto* items = snapshot.counter(stage + ".items");
      if (items == nullptr || h.sum == 0) continue;
      runner::Json entry = runner::Json::object();
      entry.set("ns", static_cast<std::int64_t>(h.sum));
      entry.set("calls", static_cast<std::int64_t>(h.count));
      entry.set("items", static_cast<std::int64_t>(items->value));
      entry.set("mitems_per_second",
                static_cast<double>(items->value) * 1000.0 /
                    static_cast<double>(h.sum));
      throughput.set(stage, std::move(entry));
      any = true;
    }
    if (any) root.set("stage_throughput", std::move(throughput));
    // Last, for the same reason; bench_compare reads only `stages` and
    // `stage_throughput`.
    root.set("context", build_context());
    runner::write_json_file(path, root);
    std::printf("perf baseline written to %s\n", path.c_str());
  }

 private:
  std::vector<runner::Json> stages_;
};

}  // namespace
}  // namespace silence

int main(int argc, char** argv) {
  // Peel off our own --trace flag before google-benchmark sees argv.
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#if SILENCE_OBS_ON
  if (!trace_path.empty()) silence::obs::Tracer::global().start();
#endif
  silence::JsonEmitReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write_json("results/BENCH_phy.json");
#if SILENCE_OBS_ON
  if (!trace_path.empty()) {
    silence::obs::Tracer::global().write(trace_path);
    std::printf("trace written to %s\n", trace_path.c_str());
  }
#endif
  benchmark::Shutdown();
  return 0;
}
