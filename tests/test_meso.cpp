// MESO: sensitivity sphere mechanics, tree exactness, classification on
// separable data, incremental behaviour, delta adaptation, serialization,
// and the baseline classifiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <random>
#include <sstream>
#include <thread>

#include "common/contracts.hpp"
#include "meso/baselines.hpp"
#include "meso/classifier.hpp"

namespace meso = dynriver::meso;

namespace {

/// Deterministic Gaussian blobs: `per_class` patterns around distinct means.
std::vector<meso::Pattern> make_blobs(std::size_t classes, std::size_t per_class,
                                      std::size_t dim, float spread,
                                      unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<float> noise(0.0F, spread);
  std::vector<meso::Pattern> out;
  out.reserve(classes * per_class);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      meso::Pattern p;
      p.label = static_cast<meso::Label>(c);
      p.features.resize(dim);
      for (std::size_t d = 0; d < dim; ++d) {
        const float center = (d % classes == c) ? 4.0F : 0.0F;
        p.features[d] = center + noise(gen);
      }
      out.push_back(std::move(p));
    }
  }
  std::shuffle(out.begin(), out.end(), gen);
  return out;
}

}  // namespace

TEST(SensitivitySphere, RunningMeanCenter) {
  const std::vector<float> a = {0.0F, 0.0F};
  const std::vector<float> b = {2.0F, 4.0F};
  meso::SensitivitySphere s(a, 0, 0);
  s.absorb(b, 0, 1);
  EXPECT_FLOAT_EQ(s.center()[0], 1.0F);
  EXPECT_FLOAT_EQ(s.center()[1], 2.0F);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.pure());
}

TEST(SensitivitySphere, MajorityLabelAndPurity) {
  const std::vector<float> x = {1.0F};
  meso::SensitivitySphere s(x, 3, 0);
  s.absorb(x, 3, 1);
  s.absorb(x, 5, 2);
  EXPECT_EQ(s.majority_label(), 3);
  EXPECT_FALSE(s.pure());
  EXPECT_EQ(s.label_counts().at(3), 2u);
  EXPECT_EQ(s.label_counts().at(5), 1u);
}

TEST(SquaredDistance, BasicAndBounded) {
  const std::vector<float> a = {0.0F, 3.0F};
  const std::vector<float> b = {4.0F, 0.0F};
  EXPECT_DOUBLE_EQ(meso::squared_distance(a, b), 25.0);
  // Bounded version must abandon at/after the cutoff but never underestimate.
  EXPECT_GE(meso::squared_distance_bounded(a, b, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(meso::squared_distance_bounded(a, b, 1e9), 25.0);
}

TEST(SphereTree, NearestMatchesLinearScan) {
  std::mt19937 gen(17);
  std::normal_distribution<float> dist(0.0F, 1.0F);

  std::vector<meso::SensitivitySphere> spheres;
  for (int i = 0; i < 200; ++i) {
    std::vector<float> center(8);
    for (auto& v : center) v = dist(gen);
    spheres.emplace_back(center, i % 5, static_cast<std::size_t>(i));
  }
  const meso::SphereTree tree(spheres, 4);

  for (int q = 0; q < 100; ++q) {
    std::vector<float> query(8);
    for (auto& v : query) v = dist(gen);

    std::size_t best = 0;
    double best_d = 1e300;
    for (std::size_t i = 0; i < spheres.size(); ++i) {
      const double d = meso::squared_distance(spheres[i].center(), query);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    const auto found = tree.nearest(spheres, query);
    EXPECT_NEAR(found.squared_dist, best_d, 1e-9);
    EXPECT_EQ(found.sphere_index, best) << "query " << q;
  }
}

TEST(SphereTree, SingleSphere) {
  std::vector<meso::SensitivitySphere> spheres;
  spheres.emplace_back(std::vector<float>{1.0F, 2.0F}, 0, 0);
  const meso::SphereTree tree(spheres, 4);
  const auto found = tree.nearest(spheres, std::vector<float>{0.0F, 0.0F});
  EXPECT_EQ(found.sphere_index, 0u);
  EXPECT_NEAR(found.squared_dist, 5.0, 1e-9);
}

TEST(MesoClassifier, UntrainedReturnsMinusOne) {
  meso::MesoClassifier clf;
  EXPECT_EQ(clf.classify(std::vector<float>{1.0F}), -1);
}

TEST(MesoClassifier, LearnsSeparableBlobs) {
  const auto blobs = make_blobs(4, 60, 12, 0.4F, 42);
  meso::MesoClassifier clf;
  for (const auto& p : blobs) clf.train(p.features, p.label);

  // Resubstitution on clearly separated blobs should be near-perfect.
  std::size_t correct = 0;
  for (const auto& p : blobs) {
    if (clf.classify(p.features) == p.label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(blobs.size()),
            0.97);
  // And it should compress: far fewer spheres than patterns.
  EXPECT_LT(clf.sphere_count(), blobs.size());
  EXPECT_GT(clf.sphere_count(), 0u);
}

TEST(MesoClassifier, GeneralizesToHeldOutSamples) {
  const auto train_set = make_blobs(3, 80, 10, 0.5F, 1);
  const auto test_set = make_blobs(3, 30, 10, 0.5F, 2);
  meso::MesoClassifier clf;
  for (const auto& p : train_set) clf.train(p.features, p.label);
  std::size_t correct = 0;
  for (const auto& p : test_set) {
    if (clf.classify(p.features) == p.label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test_set.size()),
            0.9);
}

TEST(MesoClassifier, DeltaBootstrapsAndAdapts) {
  meso::MesoParams params;
  params.initial_delta_scale = 0.5;
  meso::MesoClassifier clf(params);
  EXPECT_DOUBLE_EQ(clf.delta(), 0.0);
  clf.train(std::vector<float>{0.0F, 0.0F}, 0);
  EXPECT_DOUBLE_EQ(clf.delta(), 0.0);  // single pattern: no scale yet
  clf.train(std::vector<float>{2.0F, 0.0F}, 0);
  // Bootstrap: half the first non-zero distance (1.0), then one same-label
  // miss immediately grows it by grow_rate.
  const meso::MesoParams defaults;
  EXPECT_NEAR(clf.delta(), 1.0 * (1.0 + defaults.grow_rate), 1e-6);
}

TEST(MesoClassifier, EveryPatternBelongsToASphere) {
  const auto blobs = make_blobs(5, 40, 6, 0.8F, 9);
  meso::MesoClassifier clf;
  for (const auto& p : blobs) clf.train(p.features, p.label);

  std::size_t members = 0;
  for (const auto& s : clf.spheres()) members += s.size();
  EXPECT_EQ(members, blobs.size());
  EXPECT_EQ(clf.pattern_count(), blobs.size());
}

TEST(MesoClassifier, StatsAreConsistent) {
  const auto blobs = make_blobs(3, 50, 8, 0.5F, 13);
  meso::MesoClassifier clf;
  for (const auto& p : blobs) clf.train(p.features, p.label);
  const auto stats = clf.stats();
  EXPECT_EQ(stats.patterns, blobs.size());
  EXPECT_EQ(stats.spheres, clf.sphere_count());
  EXPECT_GT(stats.tree_nodes, 0u);
  EXPECT_GE(stats.purity, 0.0);
  EXPECT_LE(stats.purity, 1.0);
  EXPECT_NEAR(stats.mean_sphere_size,
              static_cast<double>(stats.patterns) /
                  static_cast<double>(stats.spheres),
              1e-9);
}

TEST(MesoClassifier, ResetForgetsEverything) {
  meso::MesoClassifier clf;
  clf.train(std::vector<float>{1.0F}, 0);
  clf.train(std::vector<float>{5.0F}, 1);
  clf.reset();
  EXPECT_EQ(clf.pattern_count(), 0u);
  EXPECT_EQ(clf.sphere_count(), 0u);
  EXPECT_EQ(clf.classify(std::vector<float>{1.0F}), -1);
}

TEST(MesoClassifier, SerializationRoundTrip) {
  const auto blobs = make_blobs(4, 30, 8, 0.5F, 77);
  meso::MesoClassifier clf;
  for (const auto& p : blobs) clf.train(p.features, p.label);

  std::stringstream buffer;
  clf.save(buffer);
  auto loaded = meso::MesoClassifier::load(buffer);

  EXPECT_EQ(loaded.pattern_count(), clf.pattern_count());
  EXPECT_EQ(loaded.sphere_count(), clf.sphere_count());
  EXPECT_DOUBLE_EQ(loaded.delta(), clf.delta());
  for (const auto& p : blobs) {
    EXPECT_EQ(loaded.classify(p.features), clf.classify(p.features));
  }
}

TEST(MesoClassifier, LoadRejectsGarbage) {
  std::stringstream buffer("not a snapshot");
  EXPECT_THROW((void)meso::MesoClassifier::load(buffer), std::runtime_error);
}

TEST(MesoClassifier, MajorityLabelQueryMode) {
  meso::MesoParams params;
  params.nearest_pattern_query = false;
  meso::MesoClassifier clf(params);
  const auto blobs = make_blobs(3, 50, 8, 0.4F, 21);
  for (const auto& p : blobs) clf.train(p.features, p.label);
  std::size_t correct = 0;
  for (const auto& p : blobs) {
    if (clf.classify(p.features) == p.label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(blobs.size()),
            0.9);
}

TEST(MesoClassifier, DimensionMismatchThrows) {
  meso::MesoClassifier clf;
  clf.train(std::vector<float>{1.0F, 2.0F}, 0);
  EXPECT_THROW(clf.train(std::vector<float>{1.0F}, 0),
               dynriver::ContractViolation);
  EXPECT_THROW((void)clf.classify(std::vector<float>{1.0F, 2.0F, 3.0F}),
               dynriver::ContractViolation);
}

TEST(KnnClassifier, OneNearestNeighborIsExact) {
  meso::KnnClassifier knn(1);
  knn.train(std::vector<float>{0.0F}, 0);
  knn.train(std::vector<float>{10.0F}, 1);
  EXPECT_EQ(knn.classify(std::vector<float>{2.0F}), 0);
  EXPECT_EQ(knn.classify(std::vector<float>{8.0F}), 1);
}

TEST(KnnClassifier, MajorityOverK) {
  meso::KnnClassifier knn(3);
  knn.train(std::vector<float>{0.0F}, 0);
  knn.train(std::vector<float>{0.5F}, 0);
  knn.train(std::vector<float>{1.0F}, 1);
  knn.train(std::vector<float>{30.0F}, 1);
  EXPECT_EQ(knn.classify(std::vector<float>{0.4F}), 0);
}

TEST(CentroidClassifier, FindsNearestClassMean) {
  meso::CentroidClassifier clf;
  clf.train(std::vector<float>{0.0F, 0.0F}, 0);
  clf.train(std::vector<float>{2.0F, 0.0F}, 0);
  clf.train(std::vector<float>{10.0F, 10.0F}, 1);
  EXPECT_EQ(clf.classify(std::vector<float>{1.5F, 0.2F}), 0);
  EXPECT_EQ(clf.classify(std::vector<float>{9.0F, 9.0F}), 1);
}

TEST(Baselines, AccuracyOrderingOnBlobs) {
  // 1-NN >= centroid on noisy multi-modal data; MESO should land near 1-NN.
  const auto train_set = make_blobs(4, 60, 10, 1.2F, 31);
  const auto test_set = make_blobs(4, 40, 10, 1.2F, 32);

  meso::KnnClassifier knn(1);
  meso::CentroidClassifier centroid;
  meso::MesoClassifier mesoc;
  for (const auto& p : train_set) {
    knn.train(p.features, p.label);
    centroid.train(p.features, p.label);
    mesoc.train(p.features, p.label);
  }
  const auto accuracy = [&test_set](const meso::Classifier& clf) {
    std::size_t correct = 0;
    for (const auto& p : test_set) {
      if (clf.classify(p.features) == p.label) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(test_set.size());
  };
  const double knn_acc = accuracy(knn);
  const double meso_acc = accuracy(mesoc);
  EXPECT_GT(knn_acc, 0.85);
  EXPECT_GT(meso_acc, knn_acc - 0.1);  // MESO within 10 points of exact 1-NN
}

namespace {
/// Squared distance from `x` to the centre of sphere `sphere`.
double center_d2(const meso::MesoClassifier& clf, std::size_t sphere,
                 std::span<const float> x) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = static_cast<double>(clf.spheres()[sphere].center()[i]) - x[i];
    d2 += d * d;
  }
  return d2;
}

/// Squared distance from `x` to the nearest sphere centre, by linear scan.
double linear_nearest_d2(const meso::MesoClassifier& clf,
                         std::span<const float> x) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < clf.sphere_count(); ++s) {
    best = std::min(best, center_d2(clf, s, x));
  }
  return best;
}
}  // namespace

TEST(MesoClassifier, InterleavedTrainAndQueryFindTheNearestSphere) {
  // Regression: the query index was rebuilt only when the sphere count
  // changed, but absorb() moves a centre without adding a sphere, so the
  // tree's cached radii went stale and a query could return a sphere that
  // is not the nearest. Every query must agree with a linear scan.
  std::mt19937 rng(20071);
  std::normal_distribution<float> noise(0.0F, 1.0F);
  std::uniform_int_distribution<int> label(0, 3);
  meso::MesoClassifier clf;
  std::vector<float> x(6);
  std::size_t mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    const int l = label(rng);
    for (auto& v : x) v = noise(rng) + 4.0F * static_cast<float>(l);
    clf.train(x, l);
    for (auto& v : x) v = noise(rng) * 3.0F + 6.0F;
    const auto found = clf.query(x);
    if (center_d2(clf, found.sphere_index, x) > linear_nearest_d2(clf, x)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(MesoClassifier, ConcurrentFirstClassifyMatchesSerial) {
  // Several lanes may make the first classify() after training at once;
  // the lazy index build must be race-free (run under the tsan preset) and
  // every lane must see the same answers as a serial classifier.
  const auto data = make_blobs(4, 150, 16, 1.0F, 7);
  meso::MesoClassifier clf;
  meso::MesoClassifier serial;  // trained identically, queried on one thread
  for (const auto& p : data) {
    clf.train(p.features, p.label);
    serial.train(p.features, p.label);
  }
  std::vector<meso::Label> want;
  for (const auto& p : data) want.push_back(serial.classify(p.features));

  constexpr int kLanes = 4;
  std::vector<std::vector<meso::Label>> got(kLanes);
  std::vector<std::thread> lanes;
  for (int t = 0; t < kLanes; ++t) {
    lanes.emplace_back([&, t] {
      auto& out = got[static_cast<std::size_t>(t)];
      for (const auto& p : data) out.push_back(clf.classify(p.features));
    });
  }
  for (auto& lane : lanes) lane.join();
  for (const auto& lane : got) EXPECT_EQ(lane, want);
}
