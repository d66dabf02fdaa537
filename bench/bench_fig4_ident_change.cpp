// Fig. 4 — Distribution of time taken to change network identifiers
// using ifconfig (paper: mean 9.94 ms, heavy tail to ~160 ms).
#include <cstdio>
#include <vector>

#include "attack/nic_model.hpp"
#include "bench_util.hpp"
#include "scenario/cli.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"

using namespace tmg;
using namespace tmg::bench;

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Fig. 4", "Distribution of identity-change (ifconfig) time");

  sim::Rng rng{42};
  const attack::NicOpModel model = attack::NicOpModel::identity_change();
  std::vector<double> samples;
  samples.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    samples.push_back(model.sample(rng).to_millis_f());
  }
  const auto s = stats::summarize(samples);

  section("Summary (1000 trials)");
  std::printf("  mean:   %.2f ms   (paper: 9.94 ms)\n", s.mean);
  std::printf("  median: %.2f ms\n", s.median);
  std::printf("  p95:    %.2f ms\n", s.p95);
  std::printf("  p99:    %.2f ms\n", s.p99);
  std::printf("  max:    %.2f ms  (paper: trials up to ~160 ms)\n", s.max);

  section("Histogram (ms)");
  stats::Histogram hist{0.0, 60.0, 24};
  hist.add_all(samples);
  std::printf("%s", hist.render(48, "ms").c_str());

  section("CSV (bin_lo,bin_hi,count)");
  std::printf("%s", hist.to_csv().c_str());
  return 0;
}
