// Self-tests of the benchmark's measurement code: the tail percentile rule,
// open-loop due-time accounting, generator CPU subtraction, and the result
// line's round trip.
#include <gtest/gtest.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "measure.hpp"
#include "report.hpp"

namespace e2ebench {
namespace {

// -- tail percentiles ---------------------------------------------------------

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, ReportsTheRequestedRankWhenTenSamplesLieBeyond) {
  const auto p99 = tail_percentile(one_to(1000), 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990.0);  // ranks 991..1000 lie beyond: exactly ten
  EXPECT_EQ(p99->percentile, 99.0);
  EXPECT_EQ(p99->samples, 1000U);
  const auto p50 = tail_percentile(one_to(1000), 50.0);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 500.0);
}

TEST(TailPercentile, LowersThePercentileToKeepTenBeyond) {
  const auto p = tail_percentile(one_to(500), 99.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 490.0);
  EXPECT_DOUBLE_EQ(p->percentile, 98.0);
  const auto q = tail_percentile(one_to(999), 99.0);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->value, 989.0);  // rank 990 would leave only nine beyond
  EXPECT_LT(q->percentile, 99.0);
}

TEST(TailPercentile, RefusesSamplesTooSmallForAMedian) {
  EXPECT_FALSE(tail_percentile(one_to(10), 50.0).has_value());
  EXPECT_FALSE(tail_percentile(one_to(19), 50.0).has_value());
  const auto p = tail_percentile(one_to(20), 99.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 10.0);
  EXPECT_DOUBLE_EQ(p->percentile, 50.0);
}

// -- open-loop due times ------------------------------------------------------

TEST(ClosingRecord, IsTheRecordCarryingEndPlusMergeGapCappedAtTheStreamEnd) {
  EXPECT_EQ(closing_record(0, 0, 900, 10), 0U);
  EXPECT_EQ(closing_record(899, 0, 900, 10), 0U);
  EXPECT_EQ(closing_record(900, 0, 900, 10), 1U);
  EXPECT_EQ(closing_record(1000, 13000, 900, 100), 15U);  // 14000 / 900
  EXPECT_EQ(closing_record(8000, 13000, 900, 10), 9U);    // closed by finish()
}

/// A paced generator feeds a one-record-per-ensemble sink through a queue;
/// the sink stalls once. Latency is timed from each ensemble's due time.
std::vector<double> latencies_with_stall(std::size_t stall_at, double stall_s) {
  constexpr std::size_t kRecords = 40;
  const OpenLoopSchedule schedule{.t0 = now_s() + 0.005,
                                  .period_s = 0.001,
                                  .records = kRecords};
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  std::jthread generator([&] {
    for (std::size_t k = 0; k < kRecords; ++k) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(schedule.due(k)))));
      const std::lock_guard lock(mu);
      queue.push_back(k);
      cv.notify_one();
    }
  });
  std::vector<double> latency_ms;
  for (std::size_t got = 0; got < kRecords; ++got) {
    std::size_t k = 0;
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return !queue.empty(); });
      k = queue.front();
      queue.pop_front();
    }
    if (k == stall_at) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
    }
    // Ensemble k ends at sample k * 900 with no merge gap: record k closes it.
    const std::size_t record = closing_record(k * 900, 0, 900, kRecords);
    latency_ms.push_back((now_s() - schedule.due(record)) * 1e3);
  }
  return latency_ms;
}

TEST(OpenLoopLatency, ASinkStallDelaysTheEnsemblesQueuedBehindIt) {
  const auto latency = latencies_with_stall(10, 0.050);
  EXPECT_LT(latency[5], 25.0);
  EXPECT_GT(latency[10], 40.0);  // the stalled ensemble itself
  // Timed from their due times, the next ensembles carry the stall too:
  // they waited in the queue while the sink was stuck.
  for (std::size_t k = 11; k <= 15; ++k) {
    EXPECT_GT(latency[k], 25.0) << "ensemble " << k;
  }
}

// -- generator CPU subtraction ------------------------------------------------

void burn_cpu(double seconds) {
  const double start = thread_cpu_s();
  volatile double x = 1.0;
  while (thread_cpu_s() - start < seconds) x = std::sqrt(x + 1.0);
}

TEST(CpuAccounting, SubtractsTheGeneratorThreadsCpu) {
  EXPECT_DOUBLE_EQ(cpu_ms_per_audio_s(3.0, 1.0, 10.0), 200.0);

  const double p0 = process_cpu_s();
  double generator_cpu = 0.0;
  std::jthread generator([&] {
    const double c0 = thread_cpu_s();
    burn_cpu(0.200);
    generator_cpu = thread_cpu_s() - c0;
  });
  burn_cpu(0.050);  // the host's own work
  generator.join();
  const double process = process_cpu_s() - p0;
  ASSERT_GE(process, 0.240);
  const double host_ms = cpu_ms_per_audio_s(process, generator_cpu, 1.0);
  EXPECT_GT(host_ms, 40.0);
  EXPECT_LT(host_ms, 120.0);  // the generator's 200 ms are gone
}

// -- result line round trip ---------------------------------------------------

/// Minimal JSON reader for the result line: objects, strings, numbers, bools.
struct Json {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::map<std::string, Json>>
      v;
};

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  Json value() {
    ws();
    const char c = s_.at(i_);
    if (c == '{') return object();
    if (c == '"') return Json{string()};
    if (s_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      return Json{true};
    }
    if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      return Json{false};
    }
    double d = 0.0;
    const auto res = std::from_chars(s_.data() + i_, s_.data() + s_.size(), d);
    if (res.ec != std::errc()) throw std::runtime_error("bad number");
    i_ = static_cast<std::size_t>(res.ptr - s_.data());
    return Json{d};
  }
  bool done() {
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  void expect(char c) {
    ws();
    if (s_.at(i_++) != c) throw std::runtime_error(std::string("expected ") + c);
  }
  std::string string() {
    expect('"');
    std::string out;
    while (s_.at(i_) != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        c = s_.at(i_++);
        c = c == 'n' ? '\n' : c == 't' ? '\t' : c;
      }
      out += c;
    }
    ++i_;
    return out;
  }
  Json object() {
    expect('{');
    std::map<std::string, Json> out;
    ws();
    if (s_.at(i_) == '}') {
      ++i_;
      return Json{out};
    }
    while (true) {
      ws();
      std::string key = string();
      expect(':');
      out.emplace(std::move(key), value());
      ws();
      if (s_.at(i_) == '}') {
        ++i_;
        return Json{out};
      }
      expect(',');
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

const std::map<std::string, Json>& obj(const Json& j) {
  return std::get<std::map<std::string, Json>>(j.v);
}

TEST(ResultLine, RoundTripsEveryFieldAndEveryDigit) {
  Result r;
  r.correct = false;
  r.attempted = 123456789012ULL;
  r.failed = 7;
  r.metrics = {{"samples_per_s", 22010244.996083833, "samples/s"},
               {"ensemble_latency_p99_ms", 0.1, "ms"},
               {"tiny", 1e-300, "s"},
               {"third", 1.0 / 3.0, "share"},
               {"quoted \"name\"", 3.0, "count"}};
  const std::string line = result_line(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  Reader reader(line);
  const Json parsed = reader.value();
  EXPECT_TRUE(reader.done());
  const auto& top = obj(parsed);
  ASSERT_EQ(top.size(), 4U);
  EXPECT_EQ(std::get<bool>(top.at("correct").v), false);
  EXPECT_EQ(std::get<double>(top.at("attempted").v), 123456789012.0);
  EXPECT_EQ(std::get<double>(top.at("failed").v), 7.0);
  const auto& metrics = obj(top.at("metrics"));
  ASSERT_EQ(metrics.size(), r.metrics.size());
  for (const auto& m : r.metrics) {
    const auto& got = obj(metrics.at(m.name));
    EXPECT_EQ(std::get<double>(got.at("value").v), m.value) << m.name;
    EXPECT_EQ(std::get<std::string>(got.at("unit").v), m.unit) << m.name;
  }
}

TEST(ResultLine, RefusesValuesJsonCannotCarry) {
  EXPECT_THROW((void)format_number(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)format_number(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

}  // namespace
}  // namespace e2ebench
