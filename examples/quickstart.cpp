// Quickstart: the paper's extraction pipeline as a push-based stream.
//
// Trains a MESO model on reference songs, then streams a fresh 30-second
// clip through a core::StreamSession in record-size chunks — ensembles pop
// out the moment their trigger closes, are featurized through the session's
// shared SpectralEngine, and classified by majority vote. The session holds
// only the open ensemble and the merge gap: the same program shape ingests
// a live station feed for days.
//
//   ./quickstart [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/params.hpp"
#include "core/stream_session.hpp"
#include "eval/protocol.hpp"
#include "meso/classifier.hpp"
#include "river/sample_io.hpp"
#include "synth/station.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
namespace synth = dynriver::synth;
namespace meso = dynriver::meso;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const core::PipelineParams params;  // the paper's configuration

  std::printf("Dynamic River quickstart\n========================\n\n");
  std::printf("Topology (paper Fig. 5):\n  %s\n\n",
              core::pipeline_diagram(params).c_str());

  // One streaming session for the whole program; reset() between clips
  // reuses the spectral engine, plans, and window tables.
  core::StreamSession session(params);

  // 1. Train MESO on a few reference songs per species, streamed through
  // the same session the mystery clip will use.
  std::printf("Training MESO on reference songs ");
  synth::StationParams sp;
  sp.distractor_probability = 0.0;
  synth::SensorStation trainer(sp, seed + 1);
  meso::MesoClassifier classifier;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t s = 0; s < synth::kNumSpecies; ++s) {
      const auto clip = trainer.record_clip({static_cast<synth::SpeciesId>(s)});
      session.reset();
      river::BufferSource source(clip.clip.samples, params.sample_rate);
      river::CollectingEnsembleSink sink;
      core::run_stream(source, session, sink);
      for (const auto& ensemble : sink.ensembles) {
        for (const auto& pattern : session.featurize(ensemble)) {
          classifier.train(pattern, static_cast<meso::Label>(s));
        }
      }
      std::printf(".");
      std::fflush(stdout);
    }
  }
  const auto stats = classifier.stats();
  std::printf(" done\n  %zu patterns in %zu sensitivity spheres (delta %.3f)\n\n",
              stats.patterns, stats.spheres, stats.delta);

  // 2. Record a fresh clip with two mystery singers.
  synth::SensorStation station(sp, seed);
  const auto mystery = station.record_clip(
      {synth::SpeciesId::kRWBL, synth::SpeciesId::kWBNU});
  std::printf("Recorded a %.0f s clip (%.2f MB) with %zu vocalizations.\n\n",
              sp.clip_seconds,
              static_cast<double>(mystery.clip.samples.size()) * 2 / 1e6,
              mystery.truth.size());

  // 3. Stream it through the session; classify each ensemble as it closes.
  session.reset();
  river::BufferSource source(mystery.clip.samples, params.sample_rate);

  std::printf("%-10s %-18s %-7s %-6s %s\n", "ensemble", "time", "votes",
              "conf", "species");
  std::size_t ensemble_id = 0;
  std::size_t pattern_count = 0;
  river::CallbackEnsembleSink sink([&](river::Ensemble ensemble) {
    // One vote per pattern, majority per ensemble. Confidence is the
    // winning vote share -- noise-triggered ensembles (which the paper's
    // human listener would reject) tend to have scattered votes.
    std::vector<int> votes;
    for (const auto& pattern : session.featurize(ensemble)) {
      votes.push_back(classifier.classify(pattern));
    }
    pattern_count += votes.size();
    if (votes.empty()) return;  // too short to carry a pattern
    const int winner = dynriver::eval::majority_vote(votes, synth::kNumSpecies);
    const auto winner_votes = static_cast<std::size_t>(
        std::count(votes.begin(), votes.end(), winner));
    std::printf("%-10zu [%6.2f, %6.2f)  %-7zu %3.0f%%   %s (%s)\n",
                ensemble_id++,
                static_cast<double>(ensemble.start_sample) / params.sample_rate,
                static_cast<double>(ensemble.end_sample()) / params.sample_rate,
                votes.size(),
                100.0 * static_cast<double>(winner_votes) /
                    static_cast<double>(votes.size()),
                synth::species(static_cast<std::size_t>(winner)).code.c_str(),
                synth::species(static_cast<std::size_t>(winner))
                    .common_name.c_str());
  });
  const auto pump = core::run_stream(source, session, sink);
  std::printf("\nExtraction produced %zu patterns from %zu samples; the "
              "session never buffered more than %zu samples (%.1f%% of the "
              "clip).\n",
              pattern_count, pump.samples_in, pump.peak_buffered_samples,
              100.0 * static_cast<double>(pump.peak_buffered_samples) /
                  static_cast<double>(std::max<std::size_t>(1, pump.samples_in)));

  std::printf("\nGround truth:\n");
  for (const auto& t : mystery.truth) {
    std::printf("  [%6.2f, %6.2f)  %s\n",
                static_cast<double>(t.start_sample) / params.sample_rate,
                static_cast<double>(t.end_sample()) / params.sample_rate,
                synth::species(t.species).code.c_str());
  }
  return 0;
}
