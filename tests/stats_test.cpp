// Unit tests for the statistics module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/flow_stats.hpp"
#include "stats/histogram.hpp"
#include "stats/latency_window.hpp"
#include "stats/quantile.hpp"
#include "stats/streaming_quantile.hpp"

namespace tmg::stats {
namespace {

// ---------------- Descriptive ----------------

TEST(Descriptive, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  // Sample stddev with n-1 denominator.
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Descriptive, SingleSample) {
  const std::vector<double> xs{3.5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
}

TEST(Descriptive, SummaryFields) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(Descriptive, RunningStatsMatchesBatch) {
  sim::Rng rng{3};
  RunningStats rs;
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.normal(10.0, 2.0);
    rs.add(x);
    xs.push_back(x);
  }
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-9);
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(rs.min(), s.min);
  EXPECT_DOUBLE_EQ(rs.max(), s.max);
}

TEST(Descriptive, RunningStatsEmpty) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(Descriptive, FormatMeanPm) {
  Summary s;
  s.mean = 0.912;
  s.stddev = 0.041;
  EXPECT_EQ(format_mean_pm(s, "ms"), "0.91 ± 0.04 ms");
  EXPECT_EQ(format_mean_pm(s, "ms", 1), "0.9 ± 0.0 ms");
}

// ---------------- Quantiles ----------------

TEST(Quantile, SortedLinearInterpolation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.25), 1.75);
}

TEST(Quantile, UnsortedInput) {
  const std::vector<double> xs{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.9), 7.0);
}

TEST(Quantile, IqrOfUniformSequence) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(i);
  const Iqr iqr = compute_iqr(xs);
  EXPECT_DOUBLE_EQ(iqr.q1, 25.0);
  EXPECT_DOUBLE_EQ(iqr.q3, 75.0);
  EXPECT_DOUBLE_EQ(iqr.range(), 50.0);
  EXPECT_DOUBLE_EQ(iqr.upper_fence(3.0), 225.0);
  EXPECT_DOUBLE_EQ(iqr.upper_fence(1.5), 150.0);
}

TEST(Quantile, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(normal_quantile(0.99), 2.326347874, 1e-6);
  EXPECT_NEAR(normal_quantile(0.01), -2.326347874, 1e-6);
  EXPECT_NEAR(normal_quantile(0.999), 3.090232306, 1e-6);
  EXPECT_NEAR(normal_quantile(0.001), -3.090232306, 1e-6);
}

TEST(Quantile, NormalQuantileSymmetric) {
  for (double p : {0.05, 0.1, 0.25, 0.4}) {
    EXPECT_NEAR(normal_quantile(p), -normal_quantile(1.0 - p), 1e-8);
  }
}

TEST(Quantile, PaperProbeTimeout) {
  // Paper Sec. V-B1: RTT ~ N(20ms, 5ms), 1% false-positive rate. The
  // analytic 99th percentile is ~31.6 ms; the paper rounds up to 35 ms.
  const double t = probe_timeout_for_fp_rate(20.0, 5.0, 0.01);
  EXPECT_NEAR(t, 31.63, 0.05);
  EXPECT_LE(t, 35.0);
}

TEST(Quantile, ProbeTimeoutFromSamplesMatchesAnalytic) {
  sim::Rng rng{9};
  std::vector<double> rtts;
  for (int i = 0; i < 100'000; ++i) rtts.push_back(rng.normal(20.0, 5.0));
  const double empirical = probe_timeout_from_samples(rtts, 0.01);
  EXPECT_NEAR(empirical, probe_timeout_for_fp_rate(20.0, 5.0, 0.01), 0.3);
}

/// Property sweep: the empirical false-positive rate at the derived
/// timeout matches the requested rate.
class TimeoutFpSweep : public ::testing::TestWithParam<double> {};

TEST_P(TimeoutFpSweep, EmpiricalFpMatchesRequested) {
  const double fp = GetParam();
  const double timeout = probe_timeout_for_fp_rate(20.0, 5.0, fp);
  sim::Rng rng{static_cast<std::uint64_t>(fp * 1e6) + 1};
  int late = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    if (rng.normal(20.0, 5.0) > timeout) ++late;
  }
  EXPECT_NEAR(static_cast<double>(late) / n, fp, fp * 0.2 + 0.0005);
}

INSTANTIATE_TEST_SUITE_P(FpRates, TimeoutFpSweep,
                         ::testing::Values(0.001, 0.01, 0.05, 0.1, 0.25));

// ---------------- LatencyWindow ----------------

TEST(LatencyWindow, NoThresholdUntilWarm) {
  LatencyWindow w{100, 3.0, 5};
  for (int i = 0; i < 4; ++i) {
    w.add(5.0);
    EXPECT_FALSE(w.threshold().has_value());
    EXPECT_FALSE(w.is_outlier(100.0));  // nothing to reject against yet
  }
  w.add(5.0);
  EXPECT_TRUE(w.threshold().has_value());
}

TEST(LatencyWindow, FlagsOutlierAboveFence) {
  LatencyWindow w{100, 3.0, 5};
  sim::Rng rng{4};
  for (int i = 0; i < 50; ++i) w.add(rng.normal(5.0, 0.3));
  EXPECT_FALSE(w.is_outlier(5.5));
  EXPECT_TRUE(w.is_outlier(16.0));  // a 10ms-relay link vs 5ms population
}

TEST(LatencyWindow, ThresholdIsQ3Plus3Iqr) {
  LatencyWindow w{100, 3.0, 5};
  for (int i = 0; i <= 100; ++i) w.add(static_cast<double>(i));
  const Iqr iqr = compute_iqr(w.samples());
  ASSERT_TRUE(w.threshold().has_value());
  EXPECT_DOUBLE_EQ(*w.threshold(), iqr.upper_fence(3.0));
}

TEST(LatencyWindow, EvictsOldestWhenFull) {
  LatencyWindow w{3, 3.0, 1};
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  w.add(4.0);  // evicts 1.0
  const auto s = w.samples();
  EXPECT_EQ(s, (std::vector<double>{2.0, 3.0, 4.0}));
  EXPECT_EQ(w.size(), 3u);
}

TEST(LatencyWindow, SamplesPreserveInsertionOrderAfterWrap) {
  LatencyWindow w{4, 3.0, 1};
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) w.add(x);
  EXPECT_EQ(w.samples(), (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
}

TEST(LatencyWindow, ClearResets) {
  LatencyWindow w{10, 3.0, 2};
  w.add(1.0);
  w.add(2.0);
  ASSERT_TRUE(w.warmed_up());
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.warmed_up());
  EXPECT_FALSE(w.threshold().has_value());
}

TEST(LatencyWindow, AdaptsAfterLatencyShift) {
  // A window full of 5ms samples rejects 20ms; if the link genuinely
  // changes and 8ms samples become the norm, the threshold tracks it.
  LatencyWindow w{20, 3.0, 5};
  for (int i = 0; i < 20; ++i) w.add(5.0 + 0.01 * i);
  EXPECT_TRUE(w.is_outlier(8.0));
  for (int i = 0; i < 20; ++i) w.add(8.0 + 0.01 * i);
  EXPECT_FALSE(w.is_outlier(8.0));
}

// ---------------- Histogram ----------------

TEST(Histogram, BinAssignment) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(5.5);
  h.add(9.99);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h{0.0, 10.0, 10};
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
}

TEST(Histogram, BinEdges) {
  Histogram h{10.0, 20.0, 5};
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 12.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 18.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 20.0);
}

TEST(Histogram, AddAllAndCsv) {
  Histogram h{0.0, 4.0, 2};
  const std::vector<double> xs{0.5, 1.0, 3.0};
  h.add_all(xs);
  const std::string csv = h.to_csv();
  EXPECT_NE(csv.find("0.000000,2.000000,2"), std::string::npos);
  EXPECT_NE(csv.find("2.000000,4.000000,1"), std::string::npos);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string out = h.render(10);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('2'), std::string::npos);
}

// ---------------------------------------------------------------------
// StreamingQuantile (P2 estimator + exact small-sample fallback)
// ---------------------------------------------------------------------

TEST(StreamingQuantile, ExactModeMatchesBatchQuantileBitForBit) {
  // Below exact_limit the estimator defers to stats::quantile, so short
  // runs (every per-cell figure bench) lose nothing to the streaming
  // machinery — not even a ULP.
  sim::Rng rng{101};
  StreamingQuantile sq{0.9, 512};
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.lognormal(3.0, 0.7);
    samples.push_back(x);
    sq.add(x);
  }
  EXPECT_TRUE(sq.exact());
  EXPECT_EQ(sq.count(), 400u);
  EXPECT_DOUBLE_EQ(sq.value(), quantile(samples, 0.9));
  EXPECT_DOUBLE_EQ(sq.min(), *std::min_element(samples.begin(),
                                               samples.end()));
  EXPECT_DOUBLE_EQ(sq.max(), *std::max_element(samples.begin(),
                                               samples.end()));
}

TEST(StreamingQuantile, P2TracksExactQuantileOnRandomizedInputs) {
  // Past the collapse the five markers must stay close to the exact
  // batch quantile. Tolerance is relative to the distribution's scale
  // (P2's documented regime for smooth unimodal inputs).
  for (const double q : {0.5, 0.9, 0.99}) {
    for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
      sim::Rng rng{seed};
      StreamingQuantile sq{q, 64};
      std::vector<double> samples;
      for (int i = 0; i < 50000; ++i) {
        const double x = rng.normal(100.0, 15.0);
        samples.push_back(x);
        sq.add(x);
      }
      EXPECT_FALSE(sq.exact());
      const double exact = quantile(samples, q);
      EXPECT_NEAR(sq.value(), exact, 1.5)
          << "q=" << q << " seed=" << seed;
      EXPECT_DOUBLE_EQ(sq.min(), *std::min_element(samples.begin(),
                                                   samples.end()));
      EXPECT_DOUBLE_EQ(sq.max(), *std::max_element(samples.begin(),
                                                   samples.end()));
    }
  }
}

TEST(StreamingQuantile, HeavyTailP99StaysWithinRelativeTolerance) {
  sim::Rng rng{42};
  StreamingQuantile sq{0.99, 128};
  std::vector<double> samples;
  for (int i = 0; i < 30000; ++i) {
    const double x = rng.lognormal(2.0, 0.5);
    samples.push_back(x);
    sq.add(x);
  }
  const double exact = quantile(samples, 0.99);
  EXPECT_NEAR(sq.value(), exact, 0.05 * exact);
}

TEST(StreamingQuantile, MergeIsDeterministicAndOrderSensitiveByDesign) {
  // Chunked merging (the TrialRunner::reduce contract): folding a fixed
  // sample stream through fixed chunk boundaries and merging in chunk
  // order must give bit-identical state on every run.
  const auto run = [] {
    sim::Rng rng{55};
    std::vector<StreamingQuantile> chunks;
    for (int c = 0; c < 8; ++c) {
      StreamingQuantile part{0.9, 32};
      for (int i = 0; i < 400; ++i) part.add(rng.normal(50.0, 9.0));
      chunks.push_back(part);
    }
    StreamingQuantile total{0.9, 32};
    for (const auto& part : chunks) total.merge(part);
    return total;
  };
  const StreamingQuantile a = run();
  const StreamingQuantile b = run();
  EXPECT_EQ(a.count(), b.count());
  // Bit-level equality, not EXPECT_DOUBLE_EQ's ULP tolerance: the whole
  // point is byte-identical output across repeat runs.
  EXPECT_TRUE(a.value() == b.value());
  EXPECT_TRUE(a.min() == b.min());
  EXPECT_TRUE(a.max() == b.max());
}

TEST(StreamingQuantile, MergeExactIntoExactConcatenates) {
  StreamingQuantile a{0.5, 512};
  StreamingQuantile b{0.5, 512};
  std::vector<double> all;
  for (int i = 0; i < 20; ++i) {
    a.add(i);
    all.push_back(i);
  }
  for (int i = 100; i < 130; ++i) {
    b.add(i);
    all.push_back(i);
  }
  a.merge(b);
  EXPECT_TRUE(a.exact());
  EXPECT_EQ(a.count(), 50u);
  EXPECT_DOUBLE_EQ(a.value(), quantile(all, 0.5));
}

TEST(StreamingQuantile, MergedCollapsedEstimateTracksPooledExact) {
  // Two collapsed halves of one distribution merged together must land
  // near the pooled exact quantile (the CDF-blend path).
  sim::Rng rng{77};
  StreamingQuantile a{0.9, 64};
  StreamingQuantile b{0.9, 64};
  std::vector<double> pooled;
  for (int i = 0; i < 8000; ++i) {
    const double x = rng.normal(200.0, 20.0);
    pooled.push_back(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  EXPECT_FALSE(a.exact());
  EXPECT_FALSE(b.exact());
  a.merge(b);
  EXPECT_EQ(a.count(), 8000u);
  const double exact = quantile(pooled, 0.9);
  EXPECT_NEAR(a.value(), exact, 2.5);
  EXPECT_DOUBLE_EQ(a.min(), *std::min_element(pooled.begin(), pooled.end()));
  EXPECT_DOUBLE_EQ(a.max(), *std::max_element(pooled.begin(), pooled.end()));
}

TEST(StreamingQuantile, DegenerateMarkerGapsNeverPoisonTheEstimate) {
  // Extreme quantile levels seed adjacent markers almost on top of each
  // other right after the collapse (q=0.001 with exact_limit 8 starts
  // positions at 1, 1.004, 1.008, ...) — the regime where the parabolic
  // step's off-movement-side position gap can degenerate toward zero.
  // A division by a ~0 gap yields inf/NaN, and a NaN candidate passes a
  // naive bracket check; whatever internal path is taken, the estimate
  // must stay finite and inside [min, max] at every step.
  for (const double q : {0.001, 0.01, 0.5, 0.99, 0.999}) {
    StreamingQuantile sq{q, 8};
    sim::Rng rng{321};
    for (int i = 0; i < 20000; ++i) {
      double x = 0.0;
      switch (i % 4) {
        case 0: x = 5.0; break;  // heavy duplicates
        case 1: x = rng.normal(5.0, 1.0); break;
        case 2: x = -1e6; break;  // alternating far extremes
        default: x = 1e6; break;
      }
      sq.add(x);
      ASSERT_TRUE(std::isfinite(sq.value())) << "q=" << q << " i=" << i;
      ASSERT_GE(sq.value(), sq.min()) << "q=" << q << " i=" << i;
      ASSERT_LE(sq.value(), sq.max()) << "q=" << q << " i=" << i;
    }
  }
}

TEST(StreamingQuantile, MergeEmptyAndIntoEmptyAreNeutral) {
  StreamingQuantile a{0.5};
  StreamingQuantile b{0.5};
  for (int i = 0; i < 10; ++i) a.add(i);
  const double before = a.value();
  a.merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 10u);
  EXPECT_DOUBLE_EQ(a.value(), before);
  b.merge(a);  // empty lhs adopts rhs
  EXPECT_EQ(b.count(), 10u);
  EXPECT_DOUBLE_EQ(b.value(), before);
}

// ---------------- FlowStats ----------------

TEST(FlowStats, AccountsSwitchPortAndTotal) {
  FlowStats fs;
  fs.record(1, FlowStats::port_key(1, 3), 100);
  fs.record(1, FlowStats::port_key(1, 4), 200);
  fs.record(2, FlowStats::port_key(2, 3), 60);
  fs.record(1, FlowStats::port_key(1, 3), 120);  // a switch and port again
  EXPECT_EQ(fs.packets(), 4u);
  EXPECT_EQ(fs.bytes(), 480u);
  EXPECT_DOUBLE_EQ(fs.mean_packet_bytes(), 120.0);
  EXPECT_EQ(fs.switch_cells(), 2u);
  EXPECT_EQ(fs.port_cells(), 3u);
}

TEST(FlowStats, ResetClearsEverything) {
  FlowStats fs;
  fs.record(1, FlowStats::port_key(1, 1), 500);
  fs.reset();
  EXPECT_EQ(fs.packets(), 0u);
  EXPECT_EQ(fs.bytes(), 0u);
  EXPECT_DOUBLE_EQ(fs.mean_packet_bytes(), 0.0);
  EXPECT_EQ(fs.switch_cells(), 0u);
  EXPECT_EQ(fs.port_cells(), 0u);
}

}  // namespace
}  // namespace tmg::stats
