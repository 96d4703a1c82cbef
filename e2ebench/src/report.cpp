#include "report.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace e2ebench {

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(metrics[i].name) + ": {\"value\": " +
           format_number(metrics[i].value) +
           ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("report: non-finite metric value");
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string result_line(const Result& result) {
  return std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + metrics_object(result.metrics) + "}";
}

std::string report_json(const RunHeader& header, const Result& result) {
  const HostStamp& h = header.host;
  return std::string("{\n  \"schema\": \"e2ebench-v1\",\n") +
         "  \"workload\": " + quote(header.workload) + ",\n" +
         "  \"seed\": " + std::to_string(header.seed) + ",\n" +
         "  \"seconds\": " + format_number(header.seconds) + ",\n" +
         "  \"trace\": " + (header.trace ? "true" : "false") + ",\n" +
         "  \"host\": {\"cpu_model\": " + quote(h.cpu_model) +
         ", \"nproc\": " + std::to_string(h.nproc) +
         ", \"compiler\": " + quote(h.compiler) +
         ", \"flags\": " + quote(h.flags) + ", \"git\": " + quote(h.git) +
         "},\n" + "  \"calibration\": {\"fft900_planned_ns\": " +
         format_number(header.calibration_ns_per_fft900) + "},\n" +
         "  \"correct\": " + (result.correct ? "true" : "false") + ",\n" +
         "  \"attempted\": " + std::to_string(result.attempted) + ",\n" +
         "  \"failed\": " + std::to_string(result.failed) + ",\n" +
         "  \"metrics\": " + metrics_object(result.metrics) + ",\n" +
         "  \"info\": " + metrics_object(result.info) + "\n}\n";
}

}  // namespace e2ebench
