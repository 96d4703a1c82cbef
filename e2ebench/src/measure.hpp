// Measurement primitives of the benchmark: clocks, tail percentiles,
// open-loop due times, CPU accounting, peak memory, and the host stamp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace e2ebench {

/// Monotonic wall clock, seconds since an arbitrary epoch.
[[nodiscard]] double now_s();
/// CPU time of the whole process (user + system, every thread), seconds.
[[nodiscard]] double process_cpu_s();
/// CPU time of the calling thread, seconds.
[[nodiscard]] double thread_cpu_s();
/// Resident set size of this process now, MiB (0 when it cannot be read).
[[nodiscard]] double rss_mb();

/// A percentile read off a sample, with the rank it could support.
struct Percentile {
  double value = 0.0;      ///< sample value at `percentile` (nearest rank)
  double percentile = 0.0; ///< percentile actually reported (<= requested)
  std::size_t samples = 0; ///< sample count it was read from
};

/// Nearest-rank percentile `wanted` (0-100] of `values`, lowered when needed
/// so that at least `min_beyond` samples lie strictly above its rank: the
/// highest percentile the sample supports. nullopt when even the median
/// cannot keep `min_beyond` samples beyond it.
[[nodiscard]] std::optional<Percentile> tail_percentile(
    std::vector<double> values, double wanted, std::size_t min_beyond = 10);

/// Open-loop schedule of one stream: record k is due at t0 + k * period,
/// whatever the system under test is doing.
struct OpenLoopSchedule {
  double t0 = 0.0;
  double period_s = 0.0;
  std::size_t records = 0;  ///< records in the stream

  [[nodiscard]] double due(std::size_t record) const {
    return t0 + static_cast<double>(record) * period_s;
  }
};

/// Index of the record whose arrival lets the cutter close an ensemble
/// ending at `end_sample`: the one carrying sample end + merge gap (the
/// cutter decides once the gap is exceeded), or the last record when the
/// stream ends first and finish() closes it.
[[nodiscard]] std::size_t closing_record(std::size_t end_sample,
                                         std::size_t merge_gap_samples,
                                         std::size_t record_size,
                                         std::size_t records);

/// Process CPU milliseconds per second of station audio, with the load
/// generator's own thread CPU taken out: the host's cost, not the load's.
[[nodiscard]] double cpu_ms_per_audio_s(double process_cpu_s,
                                        double generator_cpu_s,
                                        double audio_s);

/// What a report must carry so that numbers from different hosts are never
/// read as comparable.
struct HostStamp {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string flags;
  std::string git;  ///< commit + dirty flag, as given on the command line
};
[[nodiscard]] HostStamp host_stamp(std::string git);

/// Fixed single-thread calibration op: nanoseconds per planned 900-point
/// magnitude spectrum (median of several timed batches). Reported, never
/// gated: it tells how fast this host is, not how fast the code is.
[[nodiscard]] double calibration_ns_per_fft900();

}  // namespace e2ebench
