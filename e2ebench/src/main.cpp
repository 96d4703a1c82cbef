// e2ebench: one workload of the dynriver end-to-end benchmark.
//
//   e2ebench --workload <live_tcp|backfill_dense|quiet_64st> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//            [--report <file>] [--spans <file>] [--git <stamp>]
//
// Prints a human-readable report, then as its last line the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any output
// differs from the reference, 2 on a usage or run error (no result line).
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "measure.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <live_tcp|"
               "backfill_dense|quiet_64st> --seed <n> --seconds <s> --trace "
               "<0|1> [--work-dir <dir>] [--report <file>] [--spans <file>] "
               "[--git <stamp>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("every flag takes a value");
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (args.count(required) == 0) return usage("missing a required flag");
  }
  try {
    e2ebench::RunOptions options;
    options.workload = args["--workload"];
    if (!e2ebench::known_workload(options.workload)) {
      return usage("unknown workload");
    }
    options.seed = std::stoull(args["--seed"]);
    options.seconds = std::stod(args["--seconds"]);
    options.trace = args["--trace"] == "1";
    if (!options.trace && args["--trace"] != "0") return usage("--trace is 0 or 1");
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
    options.work_dir = args.count("--work-dir") != 0
                           ? args["--work-dir"]
                           : "e2ebench-work-" + options.workload;
    if (options.trace) options.spans_out = args["--spans"];

    e2ebench::RunHeader header;
    header.workload = options.workload;
    header.seed = options.seed;
    header.seconds = options.seconds;
    header.trace = options.trace;
    header.host = e2ebench::host_stamp(
        args.count("--git") != 0 ? args["--git"] : "unknown");
    header.calibration_ns_per_fft900 = e2ebench::calibration_ns_per_fft900();

    const e2ebench::Result result = e2ebench::run_workload(options);

    std::printf("e2ebench %s seed=%llu seconds=%g trace=%d\n",
                header.workload.c_str(),
                static_cast<unsigned long long>(header.seed), header.seconds,
                header.trace ? 1 : 0);
    std::printf("host: %s, nproc %u, %s, flags '%s', git %s\n",
                header.host.cpu_model.c_str(), header.host.nproc,
                header.host.compiler.c_str(), header.host.flags.c_str(),
                header.host.git.c_str());
    std::printf("calibration: planned fft900 %.1f ns (not gated)\n",
                header.calibration_ns_per_fft900);
    for (const auto& m : result.metrics) {
      std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const auto& m : result.info) {
      std::printf("  (info) %-29s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("correct: %s (%llu of %llu ops failed)\n",
                result.correct ? "yes" : "NO",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    if (args.count("--report") != 0) {
      std::ofstream(args["--report"]) << e2ebench::report_json(header, result);
    }
    std::printf("%s\n", e2ebench::result_line(result).c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
