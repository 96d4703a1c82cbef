#include "measure.hpp"

#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/rng.hpp"
#include "dsp/fft_plan.hpp"

namespace e2ebench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::optional<Percentile> tail_percentile(std::vector<double> values,
                                          double wanted,
                                          std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n <= min_beyond) return std::nullopt;
  // Nearest rank r = ceil(p/100 * n) leaves n - r samples above it. The
  // highest rank keeping min_beyond above is n - min_beyond.
  const double nd = static_cast<double>(n);
  const auto wanted_rank =
      static_cast<std::size_t>(std::ceil(wanted / 100.0 * nd - 1e-9));
  const std::size_t rank =
      std::max<std::size_t>(1, std::min(wanted_rank, n - min_beyond));
  Percentile out;
  out.percentile = rank == wanted_rank ? wanted : 100.0 * static_cast<double>(rank) / nd;
  if (out.percentile < 50.0) return std::nullopt;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  out.value = values[rank - 1];
  out.samples = n;
  return out;
}

std::size_t closing_record(std::size_t end_sample,
                           std::size_t merge_gap_samples,
                           std::size_t record_size, std::size_t records) {
  const std::size_t record = (end_sample + merge_gap_samples) / record_size;
  return std::min(record, records - 1);
}

double cpu_ms_per_audio_s(double process_cpu, double generator_cpu,
                          double audio_s) {
  return (process_cpu - generator_cpu) * 1000.0 / audio_s;
}

HostStamp host_stamp(std::string git) {
  HostStamp stamp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) stamp.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (stamp.cpu_model.empty()) stamp.cpu_model = "unknown";
  stamp.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  stamp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  stamp.compiler = "gcc " __VERSION__;
#else
  stamp.compiler = "unknown";
#endif
  stamp.flags = E2EBENCH_FLAGS;
  stamp.git = std::move(git);
  return stamp;
}

double calibration_ns_per_fft900() {
  constexpr std::size_t kN = 900;
  constexpr std::size_t kReps = 2000;
  constexpr int kBatches = 7;
  dynriver::dsp::FftPlan plan(kN);
  dynriver::Rng rng(900);
  std::vector<float> in(kN);
  for (auto& v : in) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> out(kN);
  std::vector<double> batches;
  float sink = 0.0F;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = now_s();
    for (std::size_t r = 0; r < kReps; ++r) {
      in[r % kN] += 1e-7F;  // defeat hoisting: every transform sees new input
      plan.magnitudes(in, out);
      sink += out[r % kN];
    }
    batches.push_back((now_s() - t0) * 1e9 / static_cast<double>(kReps));
  }
  std::sort(batches.begin(), batches.end());
  volatile float keep = sink;
  (void)keep;
  return batches[batches.size() / 2];
}

}  // namespace e2ebench
