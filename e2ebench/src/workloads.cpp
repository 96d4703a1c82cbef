#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/ops_acoustic.hpp"
#include "core/session_scheduler.hpp"
#include "core/stream_session.hpp"
#include "fixture.hpp"
#include "measure.hpp"
#include "river/sample_io.hpp"
#include "river/segment_store.hpp"
#include "river/tcp.hpp"
#include "river/wire.hpp"
#include "trace.hpp"

namespace e2ebench {

namespace dr = dynriver;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kMaxLanes = 4;
constexpr std::size_t kSetupRepeats = 3;
/// The fewest ensembles whose p99 keeps ten samples beyond it: latency
/// percentiles are read per block of at least this many ensembles.
constexpr std::size_t kLatencyBlock = 1000;
/// Runs carry at least three blocks, so the median block shrugs off a
/// single stall of the shared host.
constexpr std::size_t kMinLatencySamples = 3 * kLatencyBlock;
/// Per-call layers keep one span in this many (their counters see all).
constexpr std::size_t kKeepEvery = 64;
constexpr double kQueueSampleEvery_s = 0.001;

/// Scheduler lanes: fixed per workload, never more than this host's cores.
std::size_t lanes() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 kMaxLanes);
}

double to_d(std::size_t v) { return static_cast<double>(v); }

std::chrono::steady_clock::time_point at(double t_s) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t_s)));
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

dr::river::SegmentStoreOptions packed_store() {
  dr::river::SegmentStoreOptions options;
  options.pack_payloads = true;
  return options;
}

// ---------------------------------------------------------------------------
// Per-station bookkeeping and the host's ensemble sink
// ---------------------------------------------------------------------------

/// What one station's sink saw. Written only from the station's sink calls
/// (one lane at a time) and read after SessionScheduler::run() returns.
struct StationLog {
  std::vector<Outcome> outcomes;  ///< this epoch, in delivery order
  std::vector<double> latency_ms;
  std::uint64_t archive_id = 0;
  Tracer tracer;
};

/// The analysis host's sink: optionally archive the ensemble (append its
/// scoped records, sync), then featurize and classify it. Latency runs from
/// the ensemble's due time until classify returns.
class HostSink final : public dr::river::EnsembleSink {
 public:
  using DueFn = std::function<double(std::size_t end_sample)>;

  struct Archive {
    dr::river::SegmentedRecordLog* log = nullptr;  ///< nullptr: not archived
    double offset_s = 0.0;  ///< store time of this epoch's sample 0
    bool sync_each = false;
  };

  HostSink(const Analyzer& analyzer, double sample_rate, DueFn due,
           Archive archive, StationLog& log, bool traced)
      : analyzer_(analyzer),
        rate_(sample_rate),
        due_(std::move(due)),
        archive_(archive),
        log_(log),
        traced_(traced) {}

  void accept(dr::river::Ensemble ensemble) override {
    const double t_in = traced_ ? now_s() : 0.0;
    // The store, featurize and classify spans share the ensemble's id and
    // hang under one sink span.
    const std::uint64_t eid = traced_ ? Tracer::next_id() : 0;
    const std::uint64_t root = traced_ ? Tracer::next_id() : 0;
    const bool archived = archive_.log == nullptr || store(ensemble, eid, root);

    const double f0 = traced_ ? now_s() : 0.0;
    const auto patterns = analyzer_.patterns(ensemble.samples);
    const double f1 = traced_ ? now_s() : 0.0;
    const int label = analyzer_.label(patterns);
    const double done = now_s();

    log_.latency_ms.push_back((done - due_(ensemble.end_sample())) * 1e3);
    // An ensemble the store refused is a failed op: its label can never
    // match the reference.
    log_.outcomes.push_back(Outcome{.start = ensemble.start_sample,
                                    .length = ensemble.length(),
                                    .label = archived ? label : -2});
    if (traced_) {
      Tracer& tr = log_.tracer;
      tr.record({.parent = root, .ensemble = eid, .layer = Layer::kFeaturize,
                 .name = "featurize", .start_s = f0, .end_s = f1});
      tr.record({.parent = root, .ensemble = eid, .layer = Layer::kClassify,
                 .name = "classify", .start_s = f1, .end_s = done});
      tr.record({.id = root, .ensemble = eid, .layer = Layer::kSink,
                 .name = "sink.accept", .start_s = t_in, .end_s = done},
                !archived);
      tr.sample(Series::kPatterns, to_d(patterns.size()));
      tr.sample(Series::kEnsembleSamples, to_d(ensemble.length()));
    }
  }

 private:
  bool store(const dr::river::Ensemble& ensemble, std::uint64_t eid,
             std::uint64_t root) {
    Tracer& tr = log_.tracer;
    const double s0 = traced_ ? now_s() : 0.0;
    bool ok = true;
    try {
      const double t = archive_.offset_s + to_d(ensemble.start_sample) / rate_;
      for (const auto& rec :
           dr::river::ensemble_to_records(ensemble, log_.archive_id++, rate_)) {
        const double a0 = traced_ ? now_s() : 0.0;
        archive_.log->append(rec, t);
        if (traced_) tr.sample(Series::kAppendUs, (now_s() - a0) * 1e6);
      }
      if (archive_.sync_each) {
        const double y0 = traced_ ? now_s() : 0.0;
        archive_.log->sync();
        if (traced_) tr.sample(Series::kSyncMs, (now_s() - y0) * 1e3);
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (traced_) {
      tr.record({.parent = root, .ensemble = eid, .layer = Layer::kStore,
                 .name = "store", .start_s = s0, .end_s = now_s()},
                !ok);
    }
    return ok;
  }

  const Analyzer& analyzer_;
  double rate_;
  DueFn due_;
  Archive archive_;
  StationLog& log_;
  bool traced_;
};

/// Stamps the wall time at which each 900-sample block of a stream entered
/// the host (the read that delivered the block's first sample) — the due
/// time of closed-loop ensembles. Traced, it also times every read.
class StampedSource final : public dr::river::SampleSource {
 public:
  StampedSource(std::shared_ptr<dr::river::SampleSource> inner,
                std::vector<double>& stamps, Tracer* tracer)
      : inner_(std::move(inner)), stamps_(stamps), tracer_(tracer) {}

  [[nodiscard]] std::size_t read(std::span<float> out) override {
    const double t0 = tracer_ != nullptr ? now_s() : 0.0;
    const std::size_t n = inner_->read(out);
    const double t1 = now_s();
    for (std::size_t b = (pos_ + kRecordSize - 1) / kRecordSize;
         b * kRecordSize < pos_ + n && b < stamps_.size(); ++b) {
      stamps_[b] = t1;
    }
    pos_ += n;
    if (tracer_ != nullptr) {
      tracer_->record({.layer = Layer::kReplay, .name = "replay.read",
                       .start_s = t0, .end_s = t1});
    }
    return n;
  }
  [[nodiscard]] double sample_rate() const override {
    return inner_->sample_rate();
  }
  [[nodiscard]] std::size_t samples() const { return pos_; }

 private:
  std::shared_ptr<dr::river::SampleSource> inner_;
  std::vector<double>& stamps_;
  Tracer* tracer_;
  std::size_t pos_ = 0;
};

/// Times TcpRecordChannel::recv (socket read + frame decode). recv blocks
/// while the socket is empty, so its busy time is the thread's CPU time,
/// not its wall time.
class TracedChannel final : public dr::river::RecordChannel {
 public:
  explicit TracedChannel(std::shared_ptr<dr::river::RecordChannel> inner)
      : inner_(std::move(inner)), tracer_(kKeepEvery) {}

  bool send(dr::river::Record rec) override { return inner_->send(std::move(rec)); }
  dr::river::RecvStatus recv(dr::river::Record& out) override {
    const double c0 = thread_cpu_s();
    const double t0 = now_s();
    const auto status = inner_->recv(out);
    tracer_.record({.layer = Layer::kWire, .name = "wire.recv", .start_s = t0,
                    .end_s = now_s()},
                   status == dr::river::RecvStatus::kDisconnected,
                   thread_cpu_s() - c0);
    return status;
  }
  void close() override { inner_->close(); }
  void disconnect() override { inner_->disconnect(); }

  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  std::shared_ptr<dr::river::RecordChannel> inner_;
  Tracer tracer_;
};

/// Samples every station's ingest-queue depth from stats() while a traced
/// epoch runs.
class QueueSampler {
 public:
  QueueSampler(const dr::core::SessionScheduler& scheduler, Tracer& tracer)
      : thread_([&scheduler, &tracer](const std::stop_token& stop) {
          while (!stop.stop_requested()) {
            for (const auto& st : scheduler.stats().stations) {
              tracer.sample(Series::kQueueDepth, to_d(st.queued_samples));
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kQueueSampleEvery_s));
          }
        }) {}

 private:
  std::jthread thread_;
};

// ---------------------------------------------------------------------------
// Phases and epochs
// ---------------------------------------------------------------------------

/// What one epoch added to its phase's totals.
struct EpochTotals {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double gen_cpu_s = 0.0;
  std::size_t samples = 0;
  std::size_t latencies = 0;  ///< ensembles timed in this epoch
  double peak_rss_mb = 0.0;   ///< resident memory, sampled every 10 ms
};

/// Totals of one measured phase (an untraced or a traced run).
struct Phase {
  double wall_s = 0.0;      ///< timed epoch wall time
  double cpu_s = 0.0;       ///< process CPU inside the timed epochs
  double gen_cpu_s = 0.0;   ///< the generator thread's CPU inside them
  double gen_wall_s = 0.0;  ///< the generator thread's wall time
  std::size_t samples = 0;  ///< station samples fully processed
  std::size_t epochs = 0;
  std::size_t retained = 0;
  std::size_t ensembles = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  std::vector<double> latency_ms;  ///< in epoch order
  std::vector<EpochTotals> epoch_totals;
  std::vector<double> gen_lag_ms;
  std::uint64_t archive_bytes = 0;    ///< store bytes on disk ...
  std::size_t archive_samples = 0;    ///< ... per these input samples
  Tracer trace;                       ///< every component's trace, merged
};

/// Check one epoch's station output against its reference and fold the
/// station's latencies and trace into the phase.
void settle_station(Phase& phase, StationLog& log, const Expected& want) {
  phase.attempted += want.outcomes.size();
  phase.failed += mismatches(log.outcomes, want.outcomes);
  phase.ensembles += log.outcomes.size();
  for (const auto& o : log.outcomes) phase.retained += o.length;
  phase.latency_ms.insert(phase.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
  phase.trace.merge(log.tracer);
  log.outcomes.clear();
  log.latency_ms.clear();
  log.tracer = Tracer();
}

/// Reopen a station's store and check that it holds exactly the reference
/// ensembles of every epoch (`epochs[e]` for epoch e), in order, sample for
/// sample. Returns the number of stored ensembles that are missing, extra or
/// different.
std::uint64_t check_store(const fs::path& dir,
                          const std::vector<const Expected*>& epochs) {
  std::vector<std::pair<const Expected*, std::size_t>> want;
  for (const Expected* e : epochs) {
    for (std::size_t i = 0; i < e->outcomes.size(); ++i) want.emplace_back(e, i);
  }
  std::size_t seen = 0;
  std::uint64_t bad = 0;
  try {
    dr::river::SegmentStoreReader reader(dir);
    if (!reader.verify()) return std::max<std::size_t>(want.size(), 1);
    auto cursor = reader.seek(0.0);
    dr::river::Record rec;
    std::size_t start = 0;
    std::size_t length = 0;
    while (cursor.next(rec)) {
      if (rec.type == dr::river::RecordType::kOpenScope &&
          rec.scope_type == dr::river::kScopeEnsemble) {
        start = static_cast<std::size_t>(rec.attr_int(dr::river::kAttrStartSample, -1));
        length = static_cast<std::size_t>(rec.attr_int(dr::river::kAttrNumSamples, -1));
      } else if (rec.type == dr::river::RecordType::kData) {
        if (seen >= want.size()) {
          ++bad;
        } else {
          const auto& [e, i] = want[seen];
          if (e->outcomes[i].start != start || e->outcomes[i].length != length ||
              rec.floats().size() != length ||
              e->crcs[i] != samples_crc(rec.floats())) {
            ++bad;
          }
        }
        ++seen;
      }
    }
    if (cursor.torn()) ++bad;
  } catch (const std::exception&) {
    return std::max<std::size_t>(want.size(), 1);
  }
  return bad + (seen < want.size() ? want.size() - seen : 0);
}

/// Repeat `epoch` until `seconds` have passed and at least `min_latencies`
/// ensembles were timed, within 3x the run's seconds. Samples the process's
/// resident memory throughout and keeps each epoch's peak.
void run_epochs(Phase& phase, double seconds, std::size_t min_latencies,
                const std::function<void()>& epoch) {
  const double start = now_s();
  std::atomic<double> epoch_peak{rss_mb()};
  std::jthread rss_sampler([&epoch_peak](const std::stop_token& stop) {
    while (!stop.stop_requested()) {
      const double now = rss_mb();
      if (now > epoch_peak.load()) epoch_peak.store(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  while (true) {
#if defined(__GLIBC__)
    malloc_trim(0);  // each epoch starts from a trimmed heap (untimed)
#endif
    epoch_peak.store(rss_mb());
    const EpochTotals before{phase.wall_s, phase.cpu_s, phase.gen_cpu_s,
                             phase.samples, phase.latency_ms.size()};
    epoch();
    ++phase.epochs;
    phase.epoch_totals.push_back(
        EpochTotals{.wall_s = phase.wall_s - before.wall_s,
                    .cpu_s = phase.cpu_s - before.cpu_s,
                    .gen_cpu_s = phase.gen_cpu_s - before.gen_cpu_s,
                    .samples = phase.samples - before.samples,
                    .latencies = phase.latency_ms.size() - before.latencies,
                    .peak_rss_mb = std::max(epoch_peak.load(), rss_mb())});
    const double elapsed = now_s() - start;
    const bool enough =
        elapsed >= seconds && phase.latency_ms.size() >= min_latencies;
    if (enough || elapsed >= 3.0 * seconds) break;
  }
}

/// Untraced phases time latency percentiles and need kMinLatencySamples
/// ensembles; traced phases report per-layer numbers only.
std::size_t min_latencies(bool traced) {
  return traced ? 0 : kMinLatencySamples;
}

/// Bare StreamSession::push/drain over `stream` in record-sized chunks,
/// single thread: nanoseconds per sample, median of three passes. Each pass
/// is one call into the session layer of `tracer`.
double session_ns_per_sample(std::span<const float> stream,
                             const dr::core::PipelineParams& params,
                             Tracer& tracer) {
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    dr::core::StreamSession session(params);
    const double t0 = now_s();
    for (std::size_t pos = 0; pos < stream.size(); pos += kRecordSize) {
      const std::size_t n = std::min(kRecordSize, stream.size() - pos);
      session.push(stream.subspan(pos, n));
      (void)session.drain();
    }
    (void)session.finish();
    const double t1 = now_s();
    tracer.record({.layer = Layer::kSession, .name = "session.probe",
                   .start_s = t0, .end_s = t1});
    passes.push_back((t1 - t0) * 1e9 / to_d(stream.size()));
  }
  std::sort(passes.begin(), passes.end());
  return passes[1];
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Render inputs, train the classifier, build archives, compute the
  /// reference, open listeners. `dir` is the workload's scratch space.
  virtual void setup(std::uint64_t seed, const fs::path& dir) = 0;
  /// One measured phase of about `seconds`; stores go under `dir`.
  virtual Phase run_phase(double seconds, bool traced, const fs::path& dir) = 0;
  /// The workload's own audio for the bare-session probe.
  [[nodiscard]] virtual std::span<const float> probe_audio() const = 0;
  /// Wire frame bytes per station sample (0 without a wire).
  [[nodiscard]] virtual double wire_bytes_per_sample() const { return 0.0; }
  /// True when the ensemble latency is timed from an open-loop schedule.
  [[nodiscard]] virtual bool open_loop() const { return false; }

 protected:
  dr::core::PipelineParams params_;
  std::unique_ptr<Analyzer> analyzer_;
};

/// The clip pools are rendered from this fixed seed; the run's seed only
/// shuffles which pool clips each station streams, and in what order.
/// Rendering the pools from the run's seed swung retention (and with it the
/// work per sample) by up to a third between seeds.
constexpr std::uint64_t kPoolSeed = 2007;

/// Per-station clip order: station s streams entries [clips * s, clips * s +
/// clips) of a `seed`-shuffled pool, wrapping around its end.
std::vector<std::vector<std::size_t>> clip_orders(std::size_t stations,
                                                  std::size_t clips,
                                                  std::size_t pool,
                                                  std::uint64_t seed) {
  std::vector<std::size_t> shuffled(pool);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  dr::Rng rng(seed);
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  std::vector<std::vector<std::size_t>> orders(stations);
  for (std::size_t s = 0; s < stations; ++s) {
    for (std::size_t j = 0; j < clips; ++j) {
      orders[s].push_back(shuffled[(clips * s + j) % pool]);
    }
  }
  return orders;
}

/// `count` arrangements of the pool across the stations, each shuffled from
/// its own seed derived from the run's seed. Epoch e streams arrangement
/// e % count: a run averages over how the clips meet at clip boundaries
/// (which moves the trigger, and with it retention) and over which stations'
/// ensembles coincide (which moves latency).
std::vector<std::vector<std::vector<std::size_t>>> arrangements(
    std::size_t count, std::size_t stations, std::size_t clips,
    std::size_t pool, std::uint64_t seed) {
  std::vector<std::vector<std::vector<std::size_t>>> out;
  for (std::size_t a = 0; a < count; ++a) {
    out.push_back(clip_orders(stations, clips, pool, seed * 1000 + a));
  }
  return out;
}

// -- live_tcp ----------------------------------------------------------------

class LiveTcp final : public Workload {
 public:
  static constexpr std::size_t kStations = 4;
  /// Every species sings equally often in a pool of a multiple of five
  /// four-singer clips; each epoch streams all twenty, five per station.
  static constexpr std::size_t kPool = 20;
  static constexpr std::size_t kClips = 5;  ///< clips per station per epoch
  static constexpr std::size_t kArrangements = 8;
  /// Offered load: every station at 256x real time (~22 M samples/s total).
  static constexpr double kSpeed = 256.0;

  void setup(std::uint64_t seed, const fs::path& /*dir*/) override {
    analyzer_ = trained_analyzer(params_);
    pool_ = render_pool(PoolKind::kChorus, kPoolSeed, kPool, lanes());
    orders_ = arrangements(kArrangements, kStations, kClips, kPool, seed);
    lead_rng_ = dr::Rng(seed);
    records_.clear();
    for (std::size_t c = 0; c < kPool; ++c) {
      dr::dsp::WavClip clip;
      clip.sample_rate = static_cast<std::uint32_t>(params_.sample_rate);
      clip.samples = pool_[c];
      records_.push_back(dr::core::clip_to_records(clip, c, kRecordSize));
    }
    expected_.assign(kArrangements * kStations, {});
    parallel_for(expected_.size(), lanes(), [&](std::size_t i) {
      expected_[i] = reference(concat_clips(pool_, orders_[i / kStations][i % kStations]),
                               params_, *analyzer_);
    });
    std::size_t frame_bytes = dr::river::eos_sentinel().size();
    for (const std::size_t c : orders_[0][0]) {
      for (const auto& rec : records_[c]) {
        frame_bytes += dr::river::encode_record(rec).size();
      }
    }
    wire_bytes_per_sample_ = to_d(frame_bytes) / to_d(kClips * kClipSamples);
    listener_ = std::make_unique<dr::river::TcpListener>(0);
  }

  [[nodiscard]] std::span<const float> probe_audio() const override {
    return pool_[orders_[0][0][0]];
  }
  [[nodiscard]] double wire_bytes_per_sample() const override {
    return wire_bytes_per_sample_;
  }
  [[nodiscard]] bool open_loop() const override { return true; }

  Phase run_phase(double seconds, bool traced, const fs::path& dir) override {
    Phase phase;
    std::vector<std::unique_ptr<dr::river::SegmentedRecordLog>> stores;
    for (std::size_t s = 0; s < kStations; ++s) {
      stores.push_back(std::make_unique<dr::river::SegmentedRecordLog>(
          dir / ("station-" + std::to_string(s)), packed_store()));
    }
    std::vector<StationLog> logs(kStations);
    run_epochs(phase, seconds, min_latencies(traced),
               [&] { epoch(phase, traced, stores, logs); });
    for (std::size_t s = 0; s < kStations; ++s) {
      stores[s]->close();
      std::vector<const Expected*> per_epoch;
      for (std::size_t e = 0; e < phase.epochs; ++e) {
        per_epoch.push_back(&expected(e, s));
      }
      phase.failed += check_store(stores[s]->directory(), per_epoch);
    }
    phase.archive_bytes = dir_bytes(dir);
    phase.archive_samples = phase.samples;
    return phase;
  }

 private:
  struct GenOutcome {
    double cpu_s = 0.0;
    double wall_s = 0.0;
    std::uint64_t send_errors = 0;
    std::vector<double> lag_ms;
    Tracer tracer{kKeepEvery};
    std::exception_ptr error;
  };

  void epoch(Phase& phase, bool traced,
             std::vector<std::unique_ptr<dr::river::SegmentedRecordLog>>& stores,
             std::vector<StationLog>& logs) {
    // Station s starts lead[s] records after the epoch's first send. Leads
    // are drawn afresh every epoch, so a run averages over many alignments
    // of the stations' ensembles: which stations' sink work coincides moves
    // the latency tail more than anything else on this workload.
    std::vector<std::size_t> lead(kStations);
    for (auto& l : lead) {
      l = static_cast<std::size_t>(
          lead_rng_.uniform_int(0, static_cast<std::int64_t>(kClipRecords) - 1));
    }
    std::vector<OpenLoopSchedule> schedules(
        kStations,
        OpenLoopSchedule{.t0 = 0.0,
                         .period_s = to_d(kRecordSize) /
                                     (params_.sample_rate * kSpeed),
                         .records = kClips * kClipRecords});
    const double stream_s = to_d(kClips * kClipSamples) / params_.sample_rate;

    GenOutcome gen;
    std::jthread generator;
    std::promise<double> go;  // destroyed before `generator` joins
    generator = std::jthread(
        [this, &gen, &schedules, &lead, traced, &orders = orders_[phase.epochs % kArrangements],
         go_at = go.get_future()]() mutable {
          try {
            generate(gen, orders, schedules, lead, traced, go_at);
          } catch (...) {
            gen.error = std::current_exception();
            listener_->close();  // unblock an accept() still waiting
          }
        });

    std::vector<std::shared_ptr<dr::river::RecordChannelSource>> sources;
    std::vector<std::shared_ptr<TracedChannel>> traced_channels;
    dr::core::SchedulerOptions options;
    options.threads = lanes();
    auto scheduler = std::make_unique<dr::core::SessionScheduler>(options);
    for (std::size_t s = 0; s < kStations; ++s) {
      std::shared_ptr<dr::river::RecordChannel> channel =
          std::make_shared<dr::river::TcpRecordChannel>(listener_->accept());
      if (traced) {
        traced_channels.push_back(std::make_shared<TracedChannel>(channel));
        channel = traced_channels.back();
      }
      sources.push_back(std::make_shared<dr::river::RecordChannelSource>(channel));
      const double offset_s = to_d(phase.epochs) * stream_s;
      auto sink = std::make_shared<HostSink>(
          *analyzer_, params_.sample_rate,
          [this, &schedule = schedules[s]](std::size_t end) {
            return schedule.due(closing_record(end, params_.merge_gap_samples,
                                               kRecordSize, schedule.records));
          },
          HostSink::Archive{.log = stores[s].get(), .offset_s = offset_s,
                            .sync_each = true},
          logs[s], traced);
      dr::core::StationConfig config;
      config.params = params_;
      config.policy = dr::core::BackpressurePolicy::kBlock;
      scheduler->add_station("tcp-" + std::to_string(s), sources.back(), sink,
                             config);
    }

    const double t0 = now_s() + 0.002;
    for (std::size_t s = 0; s < kStations; ++s) {
      schedules[s].t0 = t0 + to_d(lead[s]) * schedules[s].period_s;
    }
    const double cpu0 = process_cpu_s();
    const double w0 = now_s();
    go.set_value(t0);
    {
      std::optional<QueueSampler> sampler;
      if (traced) sampler.emplace(*scheduler, phase.trace);
      scheduler->run();
    }
    generator.join();
    phase.rounds += scheduler->stats().rounds;
    for (const auto& st : scheduler->stats().stations) phase.samples += st.samples_consumed;
    scheduler.reset();
    phase.cpu_s += process_cpu_s() - cpu0;
    phase.wall_s += now_s() - w0;
    phase.gen_cpu_s += gen.cpu_s;
    phase.gen_wall_s += gen.wall_s;
    if (gen.error) std::rethrow_exception(gen.error);

    phase.gen_lag_ms.insert(phase.gen_lag_ms.end(), gen.lag_ms.begin(),
                            gen.lag_ms.end());
    phase.trace.merge(gen.tracer);
    for (const auto& ch : traced_channels) phase.trace.merge(ch->tracer());
    for (std::size_t s = 0; s < kStations; ++s) {
      if (!sources[s]->clean() || gen.send_errors > 0) {
        // A lost stream fails the whole station's epoch.
        logs[s].outcomes.clear();
      }
      settle_station(phase, logs[s], expected(phase.epochs, s));
    }
  }

  [[nodiscard]] const Expected& expected(std::size_t epoch, std::size_t s) const {
    return expected_[(epoch % kArrangements) * kStations + s];
  }

  /// The load generator: one thread, four stations, each record sent at its
  /// open-loop due time however the host is doing.
  void generate(GenOutcome& gen, const std::vector<std::vector<std::size_t>>& orders,
                const std::vector<OpenLoopSchedule>& schedules,
                const std::vector<std::size_t>& lead, bool traced,
                std::future<double>& go_at) {
    std::vector<std::unique_ptr<dr::river::TcpRecordChannel>> out;
    for (std::size_t s = 0; s < kStations; ++s) {
      out.push_back(std::make_unique<dr::river::TcpRecordChannel>(
          dr::river::TcpStream::connect("127.0.0.1", listener_->port())));
    }
    const double t0 = go_at.get();
    const double c0 = thread_cpu_s();
    auto send = [&](dr::river::TcpRecordChannel& ch, const dr::river::Record& rec) {
      const double s0 = traced ? now_s() : 0.0;
      const bool ok = ch.send(rec);
      if (!ok) ++gen.send_errors;
      if (traced) {
        gen.tracer.record({.layer = Layer::kGen, .name = "wire.send",
                           .start_s = s0, .end_s = now_s()},
                          !ok);
      }
    };
    const std::size_t records = schedules.front().records;
    const double period = schedules.front().period_s;
    const std::size_t slots = records + *std::max_element(lead.begin(), lead.end());
    gen.lag_ms.reserve(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const double due = t0 + to_d(slot) * period;
      double now = now_s();
      if (now < due) {
        std::this_thread::sleep_until(at(due));
        now = now_s();
      }
      gen.lag_ms.push_back((now - due) * 1e3);
      for (std::size_t s = 0; s < kStations; ++s) {
        if (slot < lead[s] || slot - lead[s] >= records) continue;
        const std::size_t k = slot - lead[s];
        const auto& recs = records_[orders[s][k / kClipRecords]];
        const std::size_t r = k % kClipRecords;
        if (r == 0) send(*out[s], recs.front());  // clip OpenScope
        send(*out[s], recs[1 + r]);
        if (r + 1 == kClipRecords) send(*out[s], recs.back());  // CloseScope
        if (k + 1 == records) out[s]->close();
      }
    }
    gen.cpu_s = thread_cpu_s() - c0;
    gen.wall_s = now_s() - t0;
  }

  std::vector<std::vector<float>> pool_;
  /// [arrangement][station] -> pool clips
  std::vector<std::vector<std::vector<std::size_t>>> orders_;
  std::vector<std::vector<dr::river::Record>> records_;  ///< per pool clip
  std::vector<Expected> expected_;  ///< [arrangement * kStations + station]
  dr::Rng lead_rng_{0};
  double wire_bytes_per_sample_ = 0.0;
  std::unique_ptr<dr::river::TcpListener> listener_;
};

// -- backfill_dense ----------------------------------------------------------

class BackfillDense final : public Workload {
 public:
  static constexpr std::size_t kStations = 4;
  static constexpr std::size_t kPool = 20;  ///< as in live_tcp
  static constexpr std::size_t kClips = 5;  ///< clips per station range
  /// The archive holds every arrangement's station ranges back to back.
  static constexpr std::size_t kArrangements = 4;

  void setup(std::uint64_t seed, const fs::path& dir) override {
    analyzer_ = trained_analyzer(params_);
    const auto pool = render_pool(PoolKind::kChorus, kPoolSeed, kPool, lanes());
    const auto orders = arrangements(kArrangements, kStations, kClips, kPool, seed);
    archive_ = dir / "archive";
    fs::remove_all(archive_);
    {
      auto options = packed_store();
      options.max_segment_bytes = 1u << 20;
      dr::river::SegmentedRecordLog log(archive_, options);
      dr::river::AudioSegmentArchiver archiver(log, params_.sample_rate, kRecordSize);
      for (const auto& arrangement : orders) {
        for (const auto& order : arrangement) {
          for (const std::size_t c : order) archiver.push(pool[c]);
        }
      }
      archiver.finish();
      archived_samples_ = archiver.samples_archived();
      log.close();
    }
    archive_bytes_ = dir_bytes(archive_);
    expected_.assign(kArrangements * kStations, {});
    parallel_for(expected_.size(), lanes(), [&](std::size_t i) {
      expected_[i] = reference(concat_clips(pool, orders[i / kStations][i % kStations]),
                               params_, *analyzer_);
    });
    probe_ = pool[orders[0][0][0]];
  }

  [[nodiscard]] std::span<const float> probe_audio() const override { return probe_; }

  Phase run_phase(double seconds, bool traced, const fs::path& /*dir*/) override {
    Phase phase;
    std::vector<StationLog> logs(kStations);
    run_epochs(phase, seconds, min_latencies(traced), [&] { epoch(phase, traced, logs); });
    phase.archive_bytes = archive_bytes_;
    phase.archive_samples = archived_samples_;
    return phase;
  }

 private:
  void epoch(Phase& phase, bool traced, std::vector<StationLog>& logs) {
    const double range_s = to_d(kClips * kClipSamples) / params_.sample_rate;
    const std::size_t blocks = kClips * kClipRecords;
    std::vector<std::vector<double>> stamps(kStations, std::vector<double>(blocks));
    std::vector<std::shared_ptr<StampedSource>> sources;
    std::vector<std::unique_ptr<Tracer>> read_tracers;
    dr::core::SchedulerOptions options;
    options.threads = lanes();
    auto scheduler = std::make_unique<dr::core::SessionScheduler>(options);
    for (std::size_t s = 0; s < kStations; ++s) {
      // Range r of the archive is station r % kStations of arrangement
      // r / kStations.
      const std::size_t range = (phase.epochs % kArrangements) * kStations + s;
      dr::river::ReplayOptions replay;
      replay.t0 = to_d(range) * range_s;
      replay.t1 = to_d(range + 1) * range_s;
      replay.prefetch = true;
      read_tracers.push_back(traced ? std::make_unique<Tracer>(kKeepEvery) : nullptr);
      sources.push_back(std::make_shared<StampedSource>(
          std::make_shared<dr::river::SegmentStoreSource>(archive_, replay),
          stamps[s], read_tracers.back().get()));
      const auto& st = stamps[s];
      auto sink = std::make_shared<HostSink>(
          *analyzer_, params_.sample_rate,
          [this, &st, blocks](std::size_t end) {
            return st[closing_record(end, params_.merge_gap_samples, kRecordSize,
                                     blocks)];
          },
          HostSink::Archive{}, logs[s], traced);
      dr::core::StationConfig config;
      config.params = params_;
      config.policy = dr::core::BackpressurePolicy::kBlock;
      scheduler->add_station("replay-" + std::to_string(s), sources.back(), sink,
                             config);
    }
    const double cpu0 = process_cpu_s();
    const double w0 = now_s();
    {
      std::optional<QueueSampler> sampler;
      if (traced) sampler.emplace(*scheduler, phase.trace);
      scheduler->run();
    }
    phase.rounds += scheduler->stats().rounds;
    for (const auto& st : scheduler->stats().stations) phase.samples += st.samples_consumed;
    scheduler.reset();
    phase.cpu_s += process_cpu_s() - cpu0;
    phase.wall_s += now_s() - w0;

    for (std::size_t s = 0; s < kStations; ++s) {
      // Every archived sample of the range must come back out of the store.
      const Expected& want =
          expected_[(phase.epochs % kArrangements) * kStations + s];
      if (sources[s]->samples() != want.samples) logs[s].outcomes.clear();
      if (read_tracers[s]) phase.trace.merge(*read_tracers[s]);
      settle_station(phase, logs[s], want);
    }
  }

  fs::path archive_;
  std::size_t archived_samples_ = 0;
  std::uint64_t archive_bytes_ = 0;
  std::vector<Expected> expected_;  ///< [arrangement * kStations + station]
  std::vector<float> probe_;
};

// -- quiet_64st --------------------------------------------------------------

class Quiet64 final : public Workload {
 public:
  static constexpr std::size_t kStations = 64;
  static constexpr std::size_t kPool = 16;
  static constexpr std::size_t kClips = 2;  ///< clips per station per epoch

  void setup(std::uint64_t seed, const fs::path& /*dir*/) override {
    analyzer_ = trained_analyzer(params_);
    pool_ = render_pool(PoolKind::kQuiet, kPoolSeed, kPool, lanes());
    // Station s streams shuffled clips s, s+5 (mod 16): stations s and s+16
    // carry the same audio, so only kPool distinct references are needed.
    orders_ = clip_orders(kStations, 1, kPool, seed);
    for (std::size_t s = 0; s < kStations; ++s) {
      orders_[s].push_back(orders_[(s + 5) % kStations][0]);
    }
    expected_.assign(kPool, {});
    parallel_for(kPool, lanes(), [&](std::size_t s) {
      expected_[s] = reference(concat_clips(pool_, orders_[s]), params_, *analyzer_);
    });
  }

  [[nodiscard]] std::span<const float> probe_audio() const override {
    return pool_[orders_[0][0]];
  }

  Phase run_phase(double seconds, bool traced, const fs::path& dir) override {
    Phase phase;
    std::vector<std::unique_ptr<dr::river::SegmentedRecordLog>> stores;
    for (std::size_t s = 0; s < kStations; ++s) {
      stores.push_back(std::make_unique<dr::river::SegmentedRecordLog>(
          dir / ("station-" + std::to_string(s)), packed_store()));
    }
    std::vector<StationLog> logs(kStations);
    run_epochs(phase, seconds, min_latencies(traced),
               [&] { epoch(phase, traced, stores, logs); });
    for (std::size_t s = 0; s < kStations; ++s) {
      stores[s]->close();
      phase.failed += check_store(
          stores[s]->directory(),
          std::vector<const Expected*>(phase.epochs, &expected_[s % kPool]));
    }
    phase.archive_bytes = dir_bytes(dir);
    phase.archive_samples = phase.samples;
    return phase;
  }

 private:
  void epoch(Phase& phase, bool traced,
             std::vector<std::unique_ptr<dr::river::SegmentedRecordLog>>& stores,
             std::vector<StationLog>& logs) {
    const std::size_t blocks = kClips * kClipRecords;
    const double stream_s = to_d(kClips * kClipSamples) / params_.sample_rate;
    std::vector<std::vector<double>> stamps(kStations, std::vector<double>(blocks));
    dr::core::SchedulerOptions options;
    options.threads = lanes();
    auto scheduler = std::make_unique<dr::core::SessionScheduler>(options);
    for (std::size_t s = 0; s < kStations; ++s) {
      const auto& st = stamps[s];
      auto sink = std::make_shared<HostSink>(
          *analyzer_, params_.sample_rate,
          [this, &st, blocks](std::size_t end) {
            return st[closing_record(end, params_.merge_gap_samples, kRecordSize,
                                     blocks)];
          },
          HostSink::Archive{.log = stores[s].get(),
                            .offset_s = to_d(phase.epochs) * stream_s,
                            .sync_each = false},
          logs[s], traced);
      dr::core::StationConfig config;
      config.params = params_;
      config.policy = dr::core::BackpressurePolicy::kBlock;
      scheduler->add_station("quiet-" + std::to_string(s), sink, config);
    }

    Tracer gen_trace(kKeepEvery);
    double gen_cpu = 0.0;
    double gen_wall = 0.0;
    const double cpu0 = process_cpu_s();
    const double w0 = now_s();
    {
      // One generator thread pushes every station's next chunk round-robin.
      std::jthread generator([&] {
        const double c0 = thread_cpu_s();
        const double g0 = now_s();
        for (std::size_t k = 0; k < blocks; ++k) {
          const std::size_t clip = k / kClipRecords;
          const std::size_t off = (k % kClipRecords) * kRecordSize;
          for (std::size_t s = 0; s < kStations; ++s) {
            const auto& audio = pool_[orders_[s][clip]];
            const double p0 = now_s();
            stamps[s][k] = p0;
            scheduler->push(s, std::span<const float>(audio).subspan(off, kRecordSize));
            if (traced) {
              gen_trace.record({.layer = Layer::kSched, .name = "sched.push",
                                .start_s = p0, .end_s = now_s()});
            }
          }
        }
        for (std::size_t s = 0; s < kStations; ++s) scheduler->close_station(s);
        gen_cpu = thread_cpu_s() - c0;
        gen_wall = now_s() - g0;
      });
      std::optional<QueueSampler> sampler;
      if (traced) sampler.emplace(*scheduler, phase.trace);
      scheduler->run();
    }
    phase.rounds += scheduler->stats().rounds;
    for (const auto& st : scheduler->stats().stations) phase.samples += st.samples_consumed;
    scheduler.reset();
    phase.cpu_s += process_cpu_s() - cpu0;
    phase.wall_s += now_s() - w0;
    phase.gen_cpu_s += gen_cpu;
    phase.gen_wall_s += gen_wall;
    phase.trace.merge(gen_trace);
    for (std::size_t s = 0; s < kStations; ++s) {
      settle_station(phase, logs[s], expected_[s % kPool]);
    }
  }

  std::vector<std::vector<float>> pool_;
  std::vector<std::vector<std::size_t>> orders_;
  std::vector<Expected> expected_;  ///< per distinct stream (s % kPool)
};

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "live_tcp") return std::make_unique<LiveTcp>();
  if (name == "backfill_dense") return std::make_unique<BackfillDense>();
  if (name == "quiet_64st") return std::make_unique<Quiet64>();
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double pct_or_zero(const std::vector<double>& values, double p) {
  const auto q = tail_percentile(values, p);
  return q ? q->value : 0.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Median over blocks of whole epochs, each holding at least kLatencyBlock
/// ensembles (a short tail joins the last block), of the block's latency
/// percentile `pct`.
double median_block_latency(const Phase& p, double pct) {
  std::vector<std::size_t> ends;
  std::size_t begin = 0;
  std::size_t end = 0;
  for (const EpochTotals& e : p.epoch_totals) {
    end += e.latencies;
    if (end - begin >= kLatencyBlock) {
      ends.push_back(end);
      begin = end;
    }
  }
  if (ends.empty()) {
    ends.push_back(end);
  } else {
    ends.back() = end;
  }
  std::vector<double> block_values;
  begin = 0;
  for (const std::size_t e : ends) {
    const auto q = tail_percentile(
        std::vector<double>(p.latency_ms.begin() + static_cast<std::ptrdiff_t>(begin),
                            p.latency_ms.begin() + static_cast<std::ptrdiff_t>(e)),
        pct);
    if (!q) throw std::runtime_error("too few ensembles for a latency block");
    block_values.push_back(q->value);
    begin = e;
  }
  return median(block_values);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void end_to_end(Result& r, const Workload& w, const Phase& p, double setup_s,
                double rate) {
  // Throughput, CPU cost and peak memory are medians over the run's epochs,
  // so a burst of load from elsewhere on the host moves a few epochs, not
  // the result.
  std::vector<double> throughput;
  std::vector<double> cpu;
  std::vector<double> rss;
  for (const EpochTotals& e : p.epoch_totals) {
    throughput.push_back(to_d(e.samples) / e.wall_s);
    cpu.push_back(cpu_ms_per_audio_s(e.cpu_s, e.gen_cpu_s, to_d(e.samples) / rate));
    rss.push_back(e.peak_rss_mb);
  }
  r.metrics = {
      {"samples_per_s", median(throughput), "samples/s"},
      {"cpu_ms_per_audio_s", median(cpu), "ms"},
      {"archive_bytes_per_sample",
       to_d(p.archive_bytes) / to_d(p.archive_samples), "bytes"},
      {"peak_rss_mb", median(rss), "MB"},
      {"setup_s", setup_s, "s"},
  };
  // Latency is reported, not gated: stalls of the shared host's disk and
  // CPU lift it many-fold in some runs (see README.md). It is read per block
  // of at least kLatencyBlock ensembles, and the median block is reported.
  r.info.push_back({"ensemble_latency_p50_ms", median_block_latency(p, 50.0), "ms"});
  r.info.push_back({"ensemble_latency_p99_ms", median_block_latency(p, 99.0), "ms"});
  r.info.push_back({"ensemble_latency_p99_ms_whole_run",
                    pct_or_zero(p.latency_ms, 99.0), "ms"});
  r.info.push_back({"latency_samples", to_d(p.latency_ms.size()), "count"});
  r.info.push_back({"gen_lag_p99_ms", pct_or_zero(p.gen_lag_ms, 99.0), "ms"});
  r.info.push_back({"open_loop", w.open_loop() ? 1.0 : 0.0, "bool"});
}

void per_layer(Result& r, const Workload& w, const Phase& untraced,
               const Phase& p, double rate, const dr::core::PipelineParams& params) {
  Tracer t = p.trace;
  Tracer probe;
  const double session_ns = session_ns_per_sample(w.probe_audio(), params, probe);
  t.merge(probe);
  auto lay = [&](Layer l) { return t.layer(l); };
  const auto& patterns = t.series(Series::kPatterns);
  const auto& ens_samples = t.series(Series::kEnsembleSamples);
  double pattern_total = 0.0;
  for (const double v : patterns) pattern_total += v;
  double ens_sample_total = 0.0;
  for (const double v : ens_samples) ens_sample_total += v;
  const double featurize_busy = lay(Layer::kFeaturize).busy_s;
  const double classify_busy = lay(Layer::kClassify).busy_s;
  const double replay_samples = w.open_loop() ? 0.0 : to_d(p.samples);

  // Open loop: throughput is fixed, so compare CPU per audio second;
  // closed loop: compare wall time per sample.
  auto cost = [&](const Phase& ph) {
    return w.open_loop()
               ? cpu_ms_per_audio_s(ph.cpu_s, ph.gen_cpu_s, to_d(ph.samples) / rate)
               : ph.wall_s / to_d(ph.samples);
  };

  r.metrics = {
      {"gen.lag_p99_ms", pct_or_zero(p.gen_lag_ms, 99.0), "ms"},
      {"wire.encode_ns_per_record",
       ratio(lay(Layer::kGen).busy_s * 1e9, to_d(lay(Layer::kGen).calls)), "ns"},
      {"wire.recv_ns_per_record",
       ratio(lay(Layer::kWire).busy_s * 1e9, to_d(lay(Layer::kWire).calls)), "ns"},
      {"wire.bytes_per_sample", w.wire_bytes_per_sample(), "bytes"},
      {"sched.push_blocked_share", ratio(lay(Layer::kSched).busy_s, p.gen_wall_s),
       "share"},
      {"sched.queue_depth_p99_samples",
       pct_or_zero(t.series(Series::kQueueDepth), 99.0), "samples"},
      {"sched.rounds_per_s", ratio(to_d(p.rounds), p.wall_s), "1/s"},
      {"session.ns_per_sample", session_ns, "ns"},
      {"session.retained_fraction", ratio(to_d(p.retained), to_d(p.samples)), "share"},
      {"session.ensembles", to_d(p.ensembles), "count"},
      {"store.append_us_p50", pct_or_zero(t.series(Series::kAppendUs), 50.0), "us"},
      {"store.append_us_p99", pct_or_zero(t.series(Series::kAppendUs), 99.0), "us"},
      {"store.sync_ms_p50", pct_or_zero(t.series(Series::kSyncMs), 50.0), "ms"},
      {"store.sync_ms_p99", pct_or_zero(t.series(Series::kSyncMs), 99.0), "ms"},
      {"replay.read_ns_per_sample",
       ratio(lay(Layer::kReplay).busy_s * 1e9,
             lay(Layer::kReplay).calls > 0 ? replay_samples : 0.0),
       "ns"},
      {"featurize.us_per_ensemble",
       ratio(featurize_busy * 1e6, to_d(lay(Layer::kFeaturize).calls)), "us"},
      {"featurize.ns_per_ensemble_sample", ratio(featurize_busy * 1e9, ens_sample_total),
       "ns"},
      {"classify.us_per_pattern", ratio(classify_busy * 1e6, pattern_total), "us"},
      {"classify.patterns_per_ensemble",
       ratio(pattern_total, to_d(lay(Layer::kClassify).calls)), "count"},
  };
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const std::string name = layer_name(layer);
    r.metrics.push_back({name + ".calls", to_d(lay(layer).calls), "count"});
    r.metrics.push_back({name + ".busy_s", lay(layer).busy_s, "s"});
    r.metrics.push_back({name + ".errors", to_d(lay(layer).errors), "count"});
  }
  r.metrics.push_back(
      {"trace.overhead_share", cost(p) / cost(untraced) - 1.0, "share"});

  // Busy time of each layer over the lanes' time: the README's table. The
  // session layer has no span inside the scheduler, so its share is the
  // probe's cost per sample times the samples the lanes processed.
  const double lane_s = p.wall_s * to_d(lanes());
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const double busy = layer == Layer::kSession ? session_ns * 1e-9 * to_d(p.samples)
                                                 : lay(layer).busy_s;
    r.info.push_back({std::string(layer_name(layer)) + ".busy_share_of_lanes",
                      ratio(busy, lane_s), "share"});
  }
}

}  // namespace

bool known_workload(std::string_view name) {
  return name == "live_tcp" || name == "backfill_dense" || name == "quiet_64st";
}

Result run_workload(const RunOptions& options) {
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);

  // Set up several times; setup_s is the median. Each set-up replaces the
  // previous one, so peak memory holds one fixture.
  std::vector<double> setup_times;
  std::unique_ptr<Workload> workload;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    const double t0 = now_s();
    workload = make_workload(options.workload);
    workload->setup(options.seed, options.work_dir);
    setup_times.push_back(now_s() - t0);
  }
  const double setup_s = median(setup_times);
#if defined(__GLIBC__)
  // Hand set-up's freed memory back to the OS, so that the resident memory
  // sampled during the run is what stays live, not allocator leftovers
  // whose size depends on which set-up thread freed what.
  malloc_trim(0);
#endif
  const dr::core::PipelineParams params;

  Result result;
  const double origin = now_s();
  std::vector<Phase> phases;
  if (!options.trace) {
    phases.push_back(workload->run_phase(options.seconds, false,
                                         options.work_dir / "run"));
    end_to_end(result, *workload, phases[0], setup_s, params.sample_rate);
  } else {
    // Untraced and traced halves in one process: the difference is the
    // tracing overhead.
    phases.push_back(workload->run_phase(options.seconds / 2, false,
                                         options.work_dir / "untraced"));
    phases.push_back(workload->run_phase(options.seconds / 2, true,
                                         options.work_dir / "traced"));
    per_layer(result, *workload, phases[0], phases[1], params.sample_rate, params);
    if (!options.spans_out.empty()) {
      write_spans(options.spans_out, phases[1].trace.spans(), origin);
    }
  }
  for (const Phase& p : phases) {
    result.attempted += p.attempted;
    result.failed += p.failed;
  }
  result.failed = std::min(result.failed, result.attempted);
  result.correct = result.failed == 0 && result.attempted > 0;

  const Phase& last = phases.back();
  result.info.push_back({"failed_share",
                         ratio(to_d(result.failed), to_d(result.attempted)), "ratio"});
  result.info.push_back({"lanes", to_d(lanes()), "count"});
  result.info.push_back({"epochs", to_d(last.epochs), "count"});
  result.info.push_back({"timed_wall_s", last.wall_s, "s"});
  result.info.push_back({"samples", to_d(last.samples), "samples"});
  result.info.push_back({"retained_fraction",
                         ratio(to_d(last.retained), to_d(last.samples)), "share"});
  result.info.push_back({"ensembles", to_d(last.ensembles), "count"});
  result.info.push_back({"samples_per_s_per_lane",
                         to_d(last.samples) / last.wall_s / to_d(lanes()),
                         "samples/s"});
  fs::remove_all(options.work_dir);
  return result;
}

}  // namespace e2ebench
