#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <stdexcept>

namespace e2ebench {

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "gen", "wire", "sched", "session", "store", "replay", "featurize",
      "classify", "sink"};
  return kNames[static_cast<std::size_t>(layer)];
}

std::uint64_t Tracer::next_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Tracer::record(Span span, bool error, double busy_s) {
  LayerStats& stats = layers_[static_cast<std::size_t>(span.layer)];
  ++stats.calls;
  stats.busy_s += busy_s >= 0.0 ? busy_s : span.end_s - span.start_s;
  if (error) ++stats.errors;
  if ((stats.calls - 1) % keep_every_ != 0) return;
  if (span.id == 0) span.id = next_id();
  spans_.push_back(span);
}

void Tracer::merge(const Tracer& other) {
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    layers_[l].calls += other.layers_[l].calls;
    layers_[l].busy_s += other.layers_[l].busy_s;
    layers_[l].errors += other.layers_[l].errors;
  }
  for (std::size_t s = 0; s < kSeriesCount; ++s) {
    series_[s].insert(series_[s].end(), other.series_[s].begin(),
                      other.series_[s].end());
  }
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

void write_spans(const std::filesystem::path& path, const std::vector<Span>& spans,
                 double origin_s) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << R"({"id":)" << s.id << R"(,"parent":)" << s.parent
        << R"(,"ensemble":)" << s.ensemble << R"(,"layer":")"
        << layer_name(s.layer) << R"(","name":")" << s.name
        << R"(","start_us":)" << (s.start_s - origin_s) * 1e6
        << R"(,"end_us":)" << (s.end_s - origin_s) * 1e6 << "}\n";
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write spans to " + path.string());
}

}  // namespace e2ebench
