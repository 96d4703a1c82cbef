// System-level integration of the production path: field stations stream
// clips over loopback TCP into RecordChannelSources that feed one
// SessionScheduler. Every station's ensembles must be bit-identical to a
// batch EnsembleExtractor run over the samples that station delivered; an
// upstream dying mid-clip is contained to its own station; and ensembles
// featurized by FeatureExtractor classify correctly through MESO.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/extractor.hpp"
#include "core/features.hpp"
#include "core/ops_acoustic.hpp"
#include "core/session_scheduler.hpp"
#include "eval/protocol.hpp"
#include "meso/classifier.hpp"
#include "river/sample_io.hpp"
#include "river/tcp.hpp"
#include "synth/station.hpp"

namespace core = dynriver::core;
namespace dsp = dynriver::dsp;
namespace river = dynriver::river;
namespace synth = dynriver::synth;
namespace meso = dynriver::meso;

namespace {
const core::PipelineParams kParams;

/// One station's upstream: the record stream it sends, and how many of those
/// records go out before the peer dies (all of them for a healthy station).
struct Upstream {
  std::vector<river::Record> records;
  std::size_t send_count = 0;
  [[nodiscard]] bool dies() const { return send_count < records.size(); }
};

/// What the analysis host made of one station.
struct StationResult {
  std::vector<river::Ensemble> ensembles;
  std::vector<float> samples_sent;  ///< audio of the records that went out
  std::shared_ptr<river::RecordChannelSource> source;
  core::StationStats stats;
};

Upstream make_upstream(const synth::ClipRecording& clip, std::uint64_t clip_id,
                       double send_fraction = 1.0) {
  Upstream up;
  up.records = core::clip_to_records(clip.clip, clip_id, kParams.record_size);
  up.send_count = static_cast<std::size_t>(
      send_fraction * static_cast<double>(up.records.size()));
  return up;
}

/// Audio samples carried by the first `count` records.
std::vector<float> audio_of(const std::vector<river::Record>& records,
                            std::size_t count) {
  std::vector<float> samples;
  for (std::size_t i = 0; i < count; ++i) {
    if (records[i].type != river::RecordType::kData) continue;
    const auto f = records[i].floats();
    samples.insert(samples.end(), f.begin(), f.end());
  }
  return samples;
}

/// Serve every upstream over its own loopback TCP connection into one
/// source-fed SessionScheduler with `lanes` worker lanes. A dying upstream
/// waits until the host has taken in everything it sent, then closes
/// abortively (no EOS sentinel), so the samples it delivered are exactly
/// the samples it sent.
std::vector<StationResult> serve(const std::vector<Upstream>& upstreams,
                                 std::size_t lanes) {
  core::SchedulerOptions options;
  options.threads = lanes;
  core::SessionScheduler scheduler(std::move(options));
  std::vector<StationResult> results(upstreams.size());
  std::vector<std::shared_ptr<river::CollectingEnsembleSink>> sinks;
  std::vector<river::TcpRecordChannel> clients;
  clients.reserve(upstreams.size());

  // Connect and accept pairwise, so station s is upstream s.
  river::TcpListener listener(0);
  for (std::size_t s = 0; s < upstreams.size(); ++s) {
    clients.emplace_back(river::TcpStream::connect("127.0.0.1", listener.port()));
    auto incoming = std::make_shared<river::TcpRecordChannel>(listener.accept());
    results[s].source = std::make_shared<river::RecordChannelSource>(incoming);
    results[s].samples_sent =
        audio_of(upstreams[s].records, upstreams[s].send_count);
    sinks.push_back(std::make_shared<river::CollectingEnsembleSink>());
    core::StationConfig config;
    config.params = kParams;
    config.queue_capacity_samples = 16 * kParams.record_size;
    scheduler.add_station("tcp-station-" + std::to_string(s), results[s].source,
                          sinks[s], config);
  }

  std::vector<std::thread> senders;
  for (std::size_t s = 0; s < upstreams.size(); ++s) {
    senders.emplace_back([&, s] {
      const Upstream& up = upstreams[s];
      river::TcpRecordChannel& ch = clients[s];
      for (std::size_t i = 0; i < up.send_count; ++i) {
        EXPECT_TRUE(ch.send(up.records[i]));
      }
      if (!up.dies()) {
        ch.close();  // clean end of stream
        return;
      }
      const std::size_t sent = results[s].samples_sent.size();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (scheduler.stats().stations[s].samples_in < sent &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ch.disconnect();  // dies mid-clip: no CloseScope, no EOS sentinel
    });
  }
  scheduler.run();
  for (auto& t : senders) t.join();

  const auto stats = scheduler.stats();
  for (std::size_t s = 0; s < upstreams.size(); ++s) {
    results[s].ensembles = std::move(sinks[s]->ensembles);
    results[s].stats = stats.stations[s];
  }
  return results;
}

/// The station's ensembles equal a batch extraction of the samples it
/// delivered: same count, same starts, same samples bit for bit.
void expect_matches_batch(const StationResult& station, const std::string& name) {
  const auto batch =
      core::EnsembleExtractor(kParams).extract(station.samples_sent).ensembles;
  ASSERT_EQ(station.ensembles.size(), batch.size()) << name;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(station.ensembles[i].start_sample, batch[i].start_sample)
        << name << " ensemble " << i;
    EXPECT_TRUE(station.ensembles[i].samples == batch[i].samples)
        << name << " ensemble " << i;
  }
}

std::vector<Upstream> three_stations(double station1_send_fraction) {
  std::vector<Upstream> upstreams;
  for (std::uint64_t s = 0; s < 3; ++s) {
    synth::SensorStation station(synth::StationParams{}, 900 + s);
    const auto clip = station.record_clip(
        {static_cast<synth::SpeciesId>(s % synth::kNumSpecies),
         static_cast<synth::SpeciesId>((s + 2) % synth::kNumSpecies)});
    upstreams.push_back(
        make_upstream(clip, s, s == 1 ? station1_send_fraction : 1.0));
  }
  return upstreams;
}
}  // namespace

TEST(Integration, TcpStationsThroughSchedulerMatchBatchExtraction) {
  const auto results = serve(three_stations(1.0), /*lanes=*/2);
  std::size_t ensembles = 0;
  for (std::size_t s = 0; s < results.size(); ++s) {
    const auto name = "station " + std::to_string(s);
    EXPECT_TRUE(results[s].source->clean()) << name;
    EXPECT_TRUE(results[s].stats.finished) << name;
    EXPECT_EQ(results[s].stats.samples_consumed, results[s].samples_sent.size())
        << name;
    expect_matches_batch(results[s], name);
    ensembles += results[s].ensembles.size();
  }
  EXPECT_GE(ensembles, 3u);  // the comparison is not vacuous
}

TEST(Integration, UpstreamDeathMidClipIsContainedToItsStation) {
  const auto results = serve(three_stations(2.0 / 3.0), /*lanes=*/2);
  ASSERT_EQ(results.size(), 3u);

  // The dead peer: its source reports the abnormal end, its station still
  // finishes (the session finalizes the open ensemble), and what it did
  // extract equals batch extraction of the prefix it delivered.
  const auto& dead = results[1];
  EXPECT_FALSE(dead.source->clean());
  EXPECT_TRUE(dead.stats.finished);
  EXPECT_GT(dead.samples_sent.size(), 0u);
  EXPECT_EQ(dead.stats.samples_consumed, dead.samples_sent.size());
  expect_matches_batch(dead, "dead station");

  // The survivors are untouched by their neighbour's death.
  for (const std::size_t s : {std::size_t{0}, std::size_t{2}}) {
    const auto name = "station " + std::to_string(s);
    EXPECT_TRUE(results[s].source->clean()) << name;
    EXPECT_TRUE(results[s].stats.finished) << name;
    EXPECT_EQ(results[s].stats.samples_consumed, results[s].samples_sent.size())
        << name;
    expect_matches_batch(results[s], name);
  }
}

TEST(Integration, EndToEndClassificationThroughTheScheduler) {
  // Train MESO on featurized ensembles of two species, then classify a
  // fresh clip that reached the host over TCP and was extracted on the
  // scheduler's worker lanes.
  synth::StationParams sp;
  sp.distractor_probability = 0.0;
  synth::SensorStation station(sp, 5005);
  const core::EnsembleExtractor extractor(kParams);
  const core::FeatureExtractor features(kParams, extractor.engine());

  meso::MesoClassifier clf;
  for (int round = 0; round < 6; ++round) {
    for (const auto id : {synth::SpeciesId::kMODO, synth::SpeciesId::kNOCA}) {
      const auto clip = station.record_clip({id});
      const auto samples = dsp::to_mono(clip.clip);
      for (const auto& e : extractor.extract(samples).ensembles) {
        for (const auto& pattern : features.patterns(e.samples)) {
          clf.train(pattern, static_cast<meso::Label>(id));
        }
      }
    }
  }
  ASSERT_GT(clf.pattern_count(), 20u);

  const auto test_clip = station.record_clip({synth::SpeciesId::kMODO});
  const auto results = serve({make_upstream(test_clip, 0)}, /*lanes=*/2);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].source->clean());

  std::vector<int> votes;
  for (const auto& e : results[0].ensembles) {
    for (const auto& pattern : features.patterns(e.samples)) {
      votes.push_back(clf.classify(pattern));
    }
  }
  ASSERT_FALSE(votes.empty());
  const int predicted = dynriver::eval::majority_vote(votes, synth::kNumSpecies);
  EXPECT_EQ(predicted, static_cast<int>(synth::SpeciesId::kMODO));
}
