// Spans and per-layer counters of the traced run.
//
// The benchmark times each layer from its own code, around the calls it
// makes into that layer (no instrumentation inside src/). Every component
// that calls into a layer owns a Tracer, touched by one thread at a time,
// so recording takes no lock. Spans carry name, start, end and parent;
// the store, featurize and classify spans of one ensemble share its id.
// They stay in memory and are written out once, when the run ends.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <vector>

namespace e2ebench {

/// The layers on the production path, named after their modules.
enum class Layer : std::uint8_t {
  kGen,        ///< the load generator (station side: pacing, encode, send)
  kWire,       ///< river/wire + river/tcp receive side
  kSched,      ///< core/session_scheduler ingest (push)
  kSession,    ///< core/stream_session (bare probe)
  kStore,      ///< river/segment_store write side (append + sync)
  kReplay,     ///< river/segment_store read side (SegmentStoreSource)
  kFeaturize,  ///< core/features
  kClassify,   ///< meso/classifier
  kSink,       ///< the host's whole per-ensemble sink call (parent span)
};
inline constexpr std::size_t kLayerCount = 9;
[[nodiscard]] const char* layer_name(Layer layer);

/// Value series sampled at the layer boundaries (one value per event).
enum class Series : std::uint8_t {
  kAppendUs,        ///< one SegmentedRecordLog::append
  kSyncMs,          ///< one SegmentedRecordLog::sync
  kQueueDepth,      ///< one station's ingest queue depth, sampled
  kPatterns,        ///< patterns per ensemble
  kEnsembleSamples, ///< samples per ensemble
};
inline constexpr std::size_t kSeriesCount = 5;

struct LayerStats {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  std::uint64_t errors = 0;
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0: a root span
  std::uint64_t ensemble = 0;  ///< 0: not tied to one ensemble
  Layer layer = Layer::kGen;
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
};

class Tracer {
 public:
  /// Per-call layers (one span per record or chunk) keep every
  /// `keep_every`-th span; their counters still see every call.
  explicit Tracer(std::size_t keep_every = 1) : keep_every_(keep_every) {}

  /// Fresh span id, unique across all tracers of the process.
  [[nodiscard]] static std::uint64_t next_id();

  /// Count one call into `span.layer` lasting [start_s, end_s) and keep the
  /// span (subject to keep_every), assigning it a fresh id unless it has
  /// one. The call adds `busy_s` to the layer's busy time, or its wall time
  /// when `busy_s` is negative.
  void record(Span span, bool error = false, double busy_s = -1.0);
  void sample(Series series, double value) {
    series_[static_cast<std::size_t>(series)].push_back(value);
  }

  [[nodiscard]] const LayerStats& layer(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const std::vector<double>& series(Series s) const {
    return series_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Fold another tracer's counters, series and spans into this one.
  void merge(const Tracer& other);

 private:
  std::size_t keep_every_;
  std::array<LayerStats, kLayerCount> layers_{};
  std::array<std::vector<double>, kSeriesCount> series_{};
  std::vector<Span> spans_;
};

/// Write spans as JSON lines: {"id","parent","ensemble","layer","name",
/// "start_us","end_us"} with times relative to `origin_s`.
void write_spans(const std::filesystem::path& path, const std::vector<Span>& spans,
                 double origin_s);

}  // namespace e2ebench
