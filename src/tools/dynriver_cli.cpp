// dynriver: command-line front end for the pipeline.
//
// Subcommands:
//   synth    render a synthetic field clip to WAV (with a truth sidecar)
//   extract  cut ensembles out of a WAV recording (each to its own WAV)
//   scores   dump per-sample anomaly score + trigger as CSV
//   serve    multiplex many simulated stations through one SessionScheduler
//   archive  append a WAV recording to a rotating segment store
//   replay   re-extract a time range of a segment store through the scheduler
//   topo     print the Figure 5 operator topology for the current params
//   species  list the Table 1 species catalog
//
// extract and scores run the push-based StreamSession over a WavFileSource:
// the recording streams through in record-size chunks with bounded memory
// (never loaded whole), and each ensemble is written the moment its trigger
// closes — the same code path, bit-identical, for a 30-second clip or a
// season-long archive file. serve is the host-scale shape: N stations'
// sessions driven fairly from one scheduler with per-station backpressure.
//
// Examples:
//   dynriver synth --species NOCA,RWBL --seed 7 --out clip.wav
//   dynriver extract clip.wav --out-prefix ensemble_
//   dynriver scores clip.wav > scores.csv
//   dynriver serve --stations 8 --clips 2 --policy drop --retune-sigma 6
//   dynriver archive clip.wav --store ./archive --segment-kb 4096
//   dynriver replay --store ./archive --from 10 --to 40
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/session_scheduler.hpp"
#include "core/stream_session.hpp"
#include "dsp/wav.hpp"
#include "river/sample_io.hpp"
#include "river/segment_store.hpp"
#include "synth/station.hpp"
#include "synth/station_source.hpp"

namespace core = dynriver::core;
namespace dsp = dynriver::dsp;
namespace river = dynriver::river;
namespace synth = dynriver::synth;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dynriver <command> [options]\n"
               "  synth   --species A,B,... [--seed N] [--out clip.wav]\n"
               "  extract <clip.wav> [--out-prefix p_]\n"
               "  scores  <clip.wav>\n"
               "  serve   [--stations N] [--clips M] [--policy block|drop]\n"
               "          [--queue SAMPLES] [--threads T] [--retune-sigma S]\n"
               "  archive <clip.wav> --store DIR [--segment-kb N]\n"
               "          [--segment-seconds S] [--pack|--no-pack]\n"
               "  replay  --store DIR [--from T] [--to T]\n"
               "  topo\n"
               "  species\n");
  return 2;
}

std::string arg_value(int argc, char** argv, const char* name,
                      const std::string& fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int find_species(const std::string& code) {
  for (std::size_t s = 0; s < synth::kNumSpecies; ++s) {
    if (synth::species(s).code == code) return static_cast<int>(s);
  }
  return -1;
}

int cmd_species() {
  std::printf("%-6s %-26s %s\n", "code", "common name", "nominal song (s)");
  for (std::size_t s = 0; s < synth::kNumSpecies; ++s) {
    const auto& tpl = synth::species(s);
    std::printf("%-6s %-26s %.2f\n", tpl.code.c_str(), tpl.common_name.c_str(),
                synth::nominal_song_duration(tpl));
  }
  return 0;
}

int cmd_topo() {
  std::printf("%s\n", core::pipeline_diagram(core::PipelineParams{}).c_str());
  return 0;
}

int cmd_synth(int argc, char** argv) {
  const auto species_list = arg_value(argc, argv, "--species", "NOCA,RWBL");
  const auto seed = static_cast<std::uint64_t>(
      std::atoll(arg_value(argc, argv, "--seed", "7").c_str()));
  const auto out = arg_value(argc, argv, "--out", "clip.wav");

  std::vector<synth::SpeciesId> singers;
  std::string token;
  for (const char c : species_list + ",") {
    if (c == ',') {
      if (!token.empty()) {
        const int id = find_species(token);
        if (id < 0) {
          std::fprintf(stderr, "unknown species code: %s\n", token.c_str());
          return 2;
        }
        singers.push_back(static_cast<synth::SpeciesId>(id));
        token.clear();
      }
    } else {
      token += c;
    }
  }
  if (singers.empty()) return usage();

  synth::SensorStation station(synth::StationParams{}, seed);
  const auto rec = station.record_clip(singers);
  dsp::write_wav(out, rec.clip);
  std::printf("wrote %s (%.1f s, %u Hz)\n", out.c_str(),
              rec.clip.duration_seconds(), rec.clip.sample_rate);

  const auto sidecar = out + ".truth";
  if (FILE* f = std::fopen(sidecar.c_str(), "w")) {
    std::fprintf(f, "species,start_sample,length\n");
    for (const auto& t : rec.truth) {
      std::fprintf(f, "%s,%zu,%zu\n", synth::species(t.species).code.c_str(),
                   t.start_sample, t.length);
    }
    // fclose flushes stdio buffers; an error here means the sidecar on disk
    // is incomplete even though every fprintf "succeeded".
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "error: writing %s failed: %s\n", sidecar.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::printf("wrote %s (%zu vocalizations)\n", sidecar.c_str(),
                rec.truth.size());
  }
  return 0;
}

int cmd_extract(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string in = argv[0];
  const auto prefix = arg_value(argc, argv, "--out-prefix", "ensemble_");

  river::WavFileSource source(in);
  core::PipelineParams params;
  params.sample_rate = source.sample_rate();
  core::StreamSession session(params);

  // Each ensemble lands on disk the moment its trigger closes; only the
  // open ensemble and the merge gap are ever held in memory.
  std::size_t count = 0;
  std::size_t retained = 0;
  river::CallbackEnsembleSink sink([&](river::Ensemble e) {
    dsp::WavClip cut;
    cut.sample_rate = static_cast<std::uint32_t>(params.sample_rate);
    cut.samples = std::move(e.samples);
    const auto path = prefix + std::to_string(count) + ".wav";
    dsp::write_wav(path, cut);
    std::printf("  %s  [%zu, %zu) %.2f s\n", path.c_str(), e.start_sample,
                e.start_sample + cut.samples.size(),
                static_cast<double>(cut.samples.size()) / params.sample_rate);
    ++count;
    retained += cut.samples.size();
  });

  const auto stats = core::run_stream(source, session, sink);
  std::printf("%zu ensemble(s); kept %.1f%% of %zu samples "
              "(peak session buffer: %zu samples)\n",
              count,
              100.0 * static_cast<double>(retained) /
                  static_cast<double>(std::max<std::size_t>(1, stats.samples_in)),
              stats.samples_in, stats.peak_buffered_samples);
  return 0;
}

int cmd_scores(int argc, char** argv) {
  if (argc < 1) return usage();
  river::WavFileSource source(argv[0]);
  core::PipelineParams params;
  params.sample_rate = source.sample_rate();

  // The per-sample observer prints as the stream flows — no score history
  // accumulates, so this works on recordings of any length.
  std::printf("sample,score,trigger\n");
  core::SessionOptions options;
  options.on_signal = [](std::size_t i, float score, bool trig) {
    if (i % 24 == 0) {
      std::printf("%zu,%.6f,%d\n", i, static_cast<double>(score),
                  trig ? 1 : 0);
    }
  };
  core::StreamSession session(params, std::move(options));
  river::NullEnsembleSink discard;
  core::run_stream(source, session, discard);
  return 0;
}

// serve: N simulated stations stream concurrently into one
// SessionScheduler — the paper's sensor-network shape on one analysis host.
// Each station's reader thread pulls lazily-rendered clips through a
// synth::StationSource into a bounded ingest queue (block = lossless
// backpressure, drop = evict-oldest with exact loss accounting); worker
// lanes drive the sessions with deficit round-robin; ensembles print the
// moment they close. --retune-sigma demonstrates live re-parameterization:
// once the survey is warmed up, every running session adopts the new
// trigger threshold at its next ensemble boundary, mid-stream.
int cmd_serve(int argc, char** argv) {
  const int stations = std::atoi(arg_value(argc, argv, "--stations", "4").c_str());
  const int clips = std::atoi(arg_value(argc, argv, "--clips", "2").c_str());
  const auto policy_name = arg_value(argc, argv, "--policy", "block");
  const long long queue_arg =
      std::atoll(arg_value(argc, argv, "--queue", "65536").c_str());
  const long long threads_arg =
      std::atoll(arg_value(argc, argv, "--threads", "0").c_str());
  const double retune_sigma =
      std::atof(arg_value(argc, argv, "--retune-sigma", "0").c_str());

  const core::PipelineParams params;
  // Validate here, not via the library's contract checks: a bad flag should
  // print usage, not abort. The queue must hold at least one read chunk
  // (= record_size).
  if (stations < 1 || clips < 1 ||
      (policy_name != "block" && policy_name != "drop") ||
      queue_arg < static_cast<long long>(params.record_size) ||
      threads_arg < 0) {
    return usage();
  }
  const auto queue = static_cast<std::size_t>(queue_arg);
  const auto threads = static_cast<std::size_t>(threads_arg);
  core::SchedulerOptions options;
  options.threads = threads;
  core::SessionScheduler scheduler(std::move(options));

  // One lazily-rendering source per station; clip in memory at a time.
  std::vector<std::unique_ptr<synth::SensorStation>> field;
  std::vector<std::shared_ptr<river::CallbackEnsembleSink>> sinks;
  std::atomic<std::size_t> total_ensembles{0};
  const auto engine = std::make_shared<const core::SpectralEngine>(params);
  for (int st = 0; st < stations; ++st) {
    field.push_back(std::make_unique<synth::SensorStation>(
        synth::StationParams{}, 5000 + static_cast<std::uint64_t>(st)));
    std::vector<synth::SpeciesId> singers = {
        static_cast<synth::SpeciesId>(static_cast<std::size_t>(st) %
                                      synth::kNumSpecies),
        static_cast<synth::SpeciesId>(static_cast<std::size_t>(st + 3) %
                                      synth::kNumSpecies)};
    auto source = std::make_shared<synth::StationSource>(
        *field.back(), std::move(singers), static_cast<std::size_t>(clips));

    const std::string name = "station-" + std::to_string(st);
    auto sink = std::make_shared<river::CallbackEnsembleSink>(
        [name, &params, &total_ensembles](river::Ensemble e) {
          ++total_ensembles;
          std::printf("  %-10s ensemble [%7.2f, %7.2f) s  (%zu samples)\n",
                      name.c_str(),
                      static_cast<double>(e.start_sample) / params.sample_rate,
                      static_cast<double>(e.end_sample()) / params.sample_rate,
                      e.length());
        });
    sinks.push_back(sink);

    core::StationConfig config;
    config.params = params;
    config.policy = policy_name == "drop" ? core::BackpressurePolicy::kDropOldest
                                          : core::BackpressurePolicy::kBlock;
    config.queue_capacity_samples = queue;
    config.engine = engine;  // one FFT-plan/window cache for the whole host
    scheduler.add_station(name, source, sink, config);
  }

  std::printf("serving %d stations x %d clips (%s policy, %zu-sample queues)\n",
              stations, clips, policy_name.c_str(), queue);

  // Live re-parameterization: as soon as half the stations have produced an
  // ensemble, hand every running session a new trigger threshold. It lands
  // at each session's next ensemble boundary — no restart, nothing lost.
  std::thread retuner;
  if (retune_sigma > 0.0) {
    retuner = std::thread([&] {
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto snapshot = scheduler.stats();
        std::size_t emitted = 0;
        std::size_t finished = 0;
        for (const auto& s : snapshot.stations) {
          if (s.ensembles_out > 0) ++emitted;
          if (s.finished) ++finished;
        }
        if (finished == snapshot.stations.size()) return;  // too late
        if (emitted * 2 >= snapshot.stations.size()) break;
      }
      core::PipelineParams retuned = params;
      retuned.trigger_sigma = retune_sigma;
      for (std::size_t st = 0; st < scheduler.station_count(); ++st) {
        scheduler.reconfigure(st, retuned);
      }
      std::printf("  >> retuned all live sessions to %.1f-sigma triggers "
                  "(applied at each ensemble boundary)\n", retune_sigma);
    });
  }

  scheduler.run();
  if (retuner.joinable()) retuner.join();

  const auto stats = scheduler.stats();
  std::printf("\n%-10s %12s %10s %10s %9s\n", "station", "samples", "dropped",
              "ensembles", "drop%");
  for (const auto& s : stats.stations) {
    std::printf("%-10s %12zu %10zu %10zu %8.2f%%\n", s.name.c_str(),
                s.samples_in, s.samples_dropped, s.ensembles_out,
                100.0 * static_cast<double>(s.samples_dropped) /
                    static_cast<double>(s.samples_in > 0 ? s.samples_in : 1));
  }
  std::printf("%zu scheduling rounds, %zu ensembles total, %zu samples "
              "dropped across the host\n",
              stats.rounds, total_ensembles.load(),
              stats.total_samples_dropped());
  return 0;
}

// archive: stream a WAV recording into a rotating segment store. The clip is
// never loaded whole — it flows through the AudioSegmentArchiver in
// record-size chunks, rotating into sealed (checksummed, indexed) segments
// as it grows. Payloads are bit-packed by default (lossless; WAV samples
// live on the PCM16 grid the delta codec is built for) — --no-pack stores
// raw f32 frames instead, and the two interleave freely in one store.
// Repeated invocations against the same store append after the existing
// archive; any time range replays later via `replay`.
int cmd_archive(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string in = argv[0];
  const auto store = arg_value(argc, argv, "--store", "");
  const long long segment_kb =
      std::atoll(arg_value(argc, argv, "--segment-kb", "8192").c_str());
  const double segment_seconds =
      std::atof(arg_value(argc, argv, "--segment-seconds", "0").c_str());
  if (store.empty() || segment_kb < 1 || segment_seconds < 0.0) return usage();

  river::WavFileSource source(in);
  river::SegmentStoreOptions options;
  options.max_segment_bytes = static_cast<std::uint64_t>(segment_kb) << 10;
  options.max_segment_seconds = segment_seconds;
  options.pack_payloads = !has_flag(argc, argv, "--no-pack");
  river::SegmentedRecordLog log(store, options);
  if (log.recovered_records() > 0) {
    std::printf("recovered %zu record(s) from a torn segment\n",
                log.recovered_records());
  }

  river::AudioSegmentArchiver archiver(log, source.sample_rate());
  if (archiver.next_start_sample() > 0) {
    std::printf("resuming after %.1f s already archived\n",
                static_cast<double>(archiver.next_start_sample()) /
                    source.sample_rate());
  }
  std::vector<float> chunk(core::PipelineParams{}.record_size);
  for (;;) {
    const std::size_t n = source.read(chunk);
    if (n == 0) break;
    archiver.push(std::span<const float>(chunk.data(), n));
  }
  archiver.finish();
  log.close();

  std::uint64_t bytes = 0;
  const auto segments = log.segments();
  for (const auto& s : segments) bytes += s.bytes;
  std::printf("archived %zu samples (%.1f s) into %s\n",
              archiver.samples_archived(),
              static_cast<double>(archiver.samples_archived()) /
                  source.sample_rate(),
              store.c_str());
  std::printf("store now holds %zu sealed segment(s), %.1f MB, spanning "
              "[%.2f, %.2f] s\n",
              segments.size(),
              static_cast<double>(bytes) / (1024.0 * 1024.0),
              segments.empty() ? 0.0 : segments.front().t_min,
              segments.empty() ? 0.0 : segments.back().t_max);
  if (archiver.samples_archived() > 0) {
    const double per_sample =
        static_cast<double>(bytes) /
        static_cast<double>(archiver.next_start_sample());
    std::printf("stored %.2f bytes/sample (%s; raw f32 is 4.00 + framing)\n",
                per_sample, options.pack_payloads ? "packed" : "raw");
  }
  return 0;
}

// replay: re-extract a stream-time range of the archive through the same
// SessionScheduler that serves live stations — the backfill path. Prints
// each ensemble as it closes plus the replay-vs-live speed ratio (live = one
// second of audio per second of wall clock).
int cmd_replay(int argc, char** argv) {
  const auto store = arg_value(argc, argv, "--store", "");
  const double from = std::atof(arg_value(argc, argv, "--from", "0").c_str());
  const auto to_arg = arg_value(argc, argv, "--to", "");
  const double to = to_arg.empty() ? std::numeric_limits<double>::infinity()
                                   : std::atof(to_arg.c_str());
  if (store.empty() || from < 0.0 || to <= from) return usage();

  // The archived records carry their sample rate; the session params must
  // match the archived stream's configuration.
  river::SegmentStoreReader probe(store);
  const auto segments = probe.segments();
  if (segments.empty()) {
    std::fprintf(stderr, "empty segment store: %s\n", store.c_str());
    return 1;
  }

  core::PipelineParams params;
  core::SessionScheduler scheduler;
  std::size_t count = 0;
  auto sink = std::make_shared<river::CallbackEnsembleSink>(
      [&](river::Ensemble e) {
        ++count;
        std::printf("  ensemble [%8.2f, %8.2f) s  (%zu samples)\n",
                    static_cast<double>(e.start_sample) / params.sample_rate,
                    static_cast<double>(e.end_sample()) / params.sample_rate,
                    e.length());
      });
  core::StationConfig config;
  config.params = params;
  const auto id =
      core::add_replay_station(scheduler, "replay", store, from, to, sink,
                               config);

  const auto t_begin = std::chrono::steady_clock::now();
  scheduler.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();

  const auto stats = scheduler.stats();
  const double replayed_seconds =
      static_cast<double>(stats.stations[id].samples_consumed) /
      params.sample_rate;
  std::printf("%zu ensemble(s) from %.1f s of archive in %.2f s wall "
              "(%.0fx live rate)\n",
              count, replayed_seconds, wall,
              wall > 0.0 ? replayed_seconds / wall : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "species") return cmd_species();
  if (cmd == "topo") return cmd_topo();
  if (cmd == "synth") return cmd_synth(argc - 2, argv + 2);
  if (cmd == "extract") return cmd_extract(argc - 2, argv + 2);
  if (cmd == "scores") return cmd_scores(argc - 2, argv + 2);
  if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
  if (cmd == "archive") return cmd_archive(argc - 2, argv + 2);
  if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
  return usage();
}
