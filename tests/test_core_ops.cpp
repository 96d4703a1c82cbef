// Acquisition records, the adaptive trigger, and the Figure 5 topology text:
// clip_to_records scoping, TriggerState warmup/hold, pipeline_diagram.
#include <gtest/gtest.h>

#include "core/ops_acoustic.hpp"
#include "core/params.hpp"
#include "core/trigger.hpp"

namespace core = dynriver::core;
namespace dsp = dynriver::dsp;
namespace river = dynriver::river;
using river::RecordType;

TEST(ClipToRecords, ScopedStreamShape) {
  dsp::WavClip clip;
  clip.sample_rate = 21600;
  clip.samples.assign(2000, 0.25F);
  const auto records = core::clip_to_records(clip, 7, 900);
  // open + 3 data (900+900+200) + close
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().type, RecordType::kOpenScope);
  EXPECT_EQ(records.front().attr_int(core::kAttrClipId, -1), 7);
  EXPECT_DOUBLE_EQ(records.front().attr_double(core::kAttrSampleRate, 0), 21600.0);
  EXPECT_EQ(records[1].floats().size(), 900u);
  EXPECT_EQ(records[3].floats().size(), 200u);
  EXPECT_EQ(records.back().type, RecordType::kCloseScope);

  // Every data record sits inside the clip scope, and the scope closes.
  std::uint32_t depth = 0;
  for (const auto& rec : records) {
    if (rec.type == RecordType::kOpenScope) ++depth;
    if (rec.type == RecordType::kData) {
      EXPECT_EQ(rec.scope_depth, depth);
    }
    if (rec.type == RecordType::kCloseScope) --depth;
  }
  EXPECT_EQ(depth, 0u);
}

TEST(TriggerState, LeadingZerosIgnored) {
  core::TriggerState state(5.0, 10);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(state.push(0.0));
  // Baseline must still be empty: zeros were warmup, not statistics.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(state.push(0.5 + 0.001 * i));
  // Now the baseline has 10 entries around 0.5; a huge score triggers.
  EXPECT_TRUE(state.push(50.0));
}

TEST(TriggerState, HoldBridgesShortDips) {
  core::TriggerState state(5.0, 5, /*hold_samples=*/3);
  for (int i = 0; i < 50; ++i) (void)state.push(0.1 + 0.001 * (i % 3));
  EXPECT_TRUE(state.push(10.0));
  // Short dip below threshold: held.
  EXPECT_TRUE(state.push(0.1));
  EXPECT_TRUE(state.push(0.1));
  EXPECT_TRUE(state.push(0.1));
  // Hold exhausted: releases.
  EXPECT_FALSE(state.push(0.1));
}

TEST(PipelineDiagram, ListsFigure5Operators) {
  const auto diagram = core::pipeline_diagram(core::PipelineParams{});
  for (const char* op : {"wav2rec", "saxanomaly", "trigger", "cutter", "reslice",
                         "welchwindow", "float2cplx", "dft", "cabs", "cutout",
                         "paa", "rec2vect", "MESO"}) {
    EXPECT_NE(diagram.find(op), std::string::npos) << op;
  }
}

TEST(PipelineDiagram, OptionalStagesFollowParams) {
  core::PipelineParams params;
  EXPECT_EQ(core::pipeline_diagram(params),
            "sensor -> readout -> storage -> data feed -> wav2rec -> "
            "saxanomaly -> trigger -> cutter -> reslice -> welchwindow -> "
            "float2cplx -> dft -> cabs -> cutout -> paa -> rec2vect -> MESO");
  params.reslice = false;
  params.use_paa = false;
  EXPECT_EQ(core::pipeline_diagram(params),
            "sensor -> readout -> storage -> data feed -> wav2rec -> "
            "saxanomaly -> trigger -> cutter -> welchwindow -> float2cplx -> "
            "dft -> cabs -> cutout -> rec2vect -> MESO");
  params.use_paa = true;
  params.paa_factor = 1;  // a factor of 1 is no PAA stage
  EXPECT_EQ(core::pipeline_diagram(params).find("paa"), std::string::npos);
}
