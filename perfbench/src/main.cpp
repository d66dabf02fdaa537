// Benchmark driver: runs one workload serially for a fixed host time,
// checks every trial's simulated outcome, and prints one JSON result
// line (see ../README.md for the workloads and metrics).
//
//   perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]
//             [--digests PATH]
//   perfbench --workload NAME --setup-only [--seed N]
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "scenario/trial_runner.hpp"

extern char** environ;

namespace perfbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seconds S [--seed N] [--trace 0|1] "
    "[--digests PATH]\n"
    "       perfbench --workload NAME --setup-only [--seed N]\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  std::fprintf(stderr,
               "valid flags: --workload --seed --seconds --trace --digests "
               "--setup-only --help\n"
               "valid workloads:");
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_seed(const std::string& text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    usage_error("--seed wants a non-negative integer, got '" + text + "'");
  }
  return v;
}

double parse_seconds(const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v) ||
      v <= 0.0 || v > 3600.0) {
    usage_error("--seconds wants a number in (0, 3600], got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  args.digests = PERFBENCH_DIGESTS;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool inline_value = false;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
      inline_value = true;
    }
    if ((flag == "--help" || flag == "--setup-only") && inline_value) {
      usage_error(flag + " takes no value");
    }
    if (flag == "--help") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--digests") {
      usage_error("unknown argument '" + std::string(argv[i]) + "'");
    }
    if (!inline_value) {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      if (std::find(workload_names().begin(), workload_names().end(), value) ==
          workload_names().end()) {
        usage_error("unknown workload '" + value + "'");
      }
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_seed(value);
    } else if (flag == "--seconds") {
      args.seconds = parse_seconds(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("--trace wants 0 or 1, got '" + value + "'");
      }
      args.trace = value == "1";
    } else {
      args.digests = value;
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (args.seconds == 0.0 && !args.setup_only) {
    usage_error("--seconds is required");
  }
  return args;
}

/// Committed per-trial digests of (workload, seed), from lines
/// "<workload> <seed> <hex> <hex> ..."; empty when none are committed.
std::vector<std::uint64_t> committed_digests(const std::string& path,
                                             const std::string& workload,
                                             std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t s = 0;
    if (!(fields >> name >> s)) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    if (name != workload || s != seed) continue;
    std::vector<std::uint64_t> out;
    std::string h;
    while (fields >> h) {
      std::uint64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(h.data(), h.data() + h.size(), v, 16);
      if (ec != std::errc{} || ptr != h.data() + h.size() || h.size() != 16) {
        throw std::runtime_error("malformed digest '" + h + "'");
      }
      out.push_back(v);
    }
    return out;
  }
  return {};
}

std::string format_number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

/// kSetupReps set-ups in fresh processes, spread over the timed phase:
/// the host's speed drifts over seconds, so set-ups bunched at the start
/// of a run would all sample one moment of it.
class SetupSchedule {
 public:
  SetupSchedule(const Args& args, std::uint64_t warmup_digest,
                HostSpeed& speed)
      : args_{args}, digest_{warmup_digest}, speed_{speed} {}
  /// Run every set-up due by `elapsed_s` of the timed phase.
  void due(double elapsed_s) {
    while (seconds_.size() < kSetupReps &&
           elapsed_s >= (static_cast<double>(seconds_.size()) + 0.5) *
                            args_.seconds / static_cast<double>(kSetupReps)) {
      seconds_.push_back(child_set_up(args_, digest_, speed_));
    }
  }
  /// Run the rest (a pass that ended early) and return them all.
  std::vector<double> finish() {
    while (seconds_.size() < kSetupReps) {
      seconds_.push_back(child_set_up(args_, digest_, speed_));
    }
    return seconds_;
  }

 private:
  const Args& args_;
  std::uint64_t digest_;
  HostSpeed& speed_;
  std::vector<double> seconds_;
};

/// Keep this process, and the set-up processes it starts, on the CPU it
/// runs on now, so the reference probes read the speed of the CPU that
/// does the work.
void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  if (cpu < 0 || ::sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "perfbench: could not pin to one CPU; running "
                         "unpinned\n");
  }
}

int run_setup_only(Workload& w, const Args& args) {
  tmg::scenario::TrialArena arena;
  std::printf("%s\n", hex(set_up(w, args.seed, arena)).c_str());
  std::fflush(stdout);
  return 0;
}

int run_untraced(Workload& w, const Args& args) {
  pin_to_current_cpu();
  tmg::scenario::TrialArena arena;
  const std::uint64_t warmup = set_up(w, args.seed, arena);
  const double own_setup = now_s();

  HostSpeed speed;
  SetupSchedule setups{args, warmup, speed};
  PassOptions opt;
  opt.trial.arena = &arena;
  opt.speed = &speed;
  opt.interlude = [&setups](double elapsed) { setups.due(elapsed); };
  Pass pass = timed_pass(w, args.seed, args.seconds, w.digest_trials(), opt);
  const std::vector<double> setup_s = setups.finish();
  std::vector<std::string> notes = check_outcomes(w, args, pass, arena);

  const std::size_t failed = pass.failed();
  std::vector<Metric> metrics = {
      {"trials_per_s", static_cast<double>(pass.trials) / pass.ref_elapsed_s,
       "1/s"},
      {"trial_ms_p50", pass.ref_trial_ms.quantile(0.50), "ms"},
      {"trial_ms_p90", pass.ref_trial_ms.quantile(0.90), "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  for (const std::string& note : notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  std::string setup_line;
  for (const double s : setup_s) {
    setup_line += ' ';
    setup_line += format_number(s);
  }
  std::fprintf(stderr,
               "perfbench: set-ups in fresh processes (reference-host s):%s; "
               "this process's own, host s from its start: %s\n",
               setup_line.c_str(), format_number(own_setup).c_str());
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu trials (p50 from all of them, "
               "%zu beyond p90) in %.2f host s, %.2f reference-host s; "
               "reference kernel median %.3f host ms (%.3f on the reference "
               "host, checksum %s); failed_share %s\n",
               w.name(), static_cast<unsigned long long>(args.seed),
               pass.trials, pass.trials / 10, pass.elapsed_s,
               pass.ref_elapsed_s, speed.median_probe_ms(),
               HostSpeed::kReferenceMs, hex(speed.checksum()).c_str(),
               format_number(static_cast<double>(failed) /
                             static_cast<double>(pass.trials))
                   .c_str());
  return report(failed == 0 && notes.empty(), pass.trials, failed, metrics);
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

std::size_t SpanLog::open(std::string name, std::size_t parent) {
  spans_.push_back({std::move(name), spans_.size() + 1, parent, now_s(), 0.0});
  return spans_.size();
}

void SpanLog::close(std::size_t id) { spans_[id - 1].end_s = now_s(); }

double SpanLog::duration_s(std::size_t id) const {
  const Span& s = at(id);
  return s.end_s - s.start_s;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_s\": "
        << format_number(s.start_s) << ", \"end_s\": "
        << format_number(s.end_s) << "}\n";
  }
  return static_cast<bool>(out);
}

void TimeHistogram::add(double ms) {
  const double pos = (std::log2(ms) - kLowestOctave) * kPerOctave;
  const auto last = static_cast<double>(bins_.size() - 1);
  Bin& bin = bins_[static_cast<std::size_t>(std::clamp(pos, 0.0, last))];
  bin.lo = bin.count == 0 ? ms : std::min(bin.lo, ms);
  bin.hi = bin.count == 0 ? ms : std::max(bin.hi, ms);
  ++bin.count;
  ++count_;
}

double TimeHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;  // samples in the bins below
  const Bin* prev = nullptr;
  for (const Bin& bin : bins_) {
    if (bin.count == 0) continue;
    if (rank < before) {
      // Between the previous bin's largest sample and this one's smallest.
      return prev->hi + (bin.lo - prev->hi) * (rank - (before - 1.0));
    }
    const double n = bin.count;
    if (rank <= before + n - 1.0) {
      // Inside this bin: its samples taken as evenly spread over [lo, hi].
      return n == 1.0 ? bin.lo
                      : bin.lo + (bin.hi - bin.lo) * (rank - before) / (n - 1.0);
    }
    before += n;
    prev = &bin;
  }
  return prev->hi;
}

void HostSpeed::catch_up() {
  if (last_s_ < 0.0) {
    for (std::size_t k = 0; k < kTrail; ++k) probe();
    return;
  }
  const auto due = static_cast<std::size_t>((now_s() - last_s_) / kProbeEvery_s);
  for (std::size_t k = 0; k < std::min(due, kTrail); ++k) probe();
}

double HostSpeed::scale() const {
  const std::size_t n = std::min(kTrail, all_ms_.size());
  if (n == 0) return 1.0;
  return kReferenceMs /
         median({all_ms_.end() - static_cast<std::ptrdiff_t>(n), all_ms_.end()});
}

namespace {

/// The serial TrialRunner path: one worker, no threads, trace-id reset
/// before every trial.
const tmg::scenario::TrialRunner& serial_runner() {
  static const tmg::scenario::TrialRunner runner{{1, false}};
  return runner;
}

/// One trial; exceptions become trial problems, so the runner never
/// sees one. Returns the trial's host milliseconds.
double run_one(Workload& w, std::uint64_t seed, std::size_t index,
               const TrialOptions& opt, const ResultSink& sink, bool keep,
               Pass& pass, SpanLog* spans, std::size_t parent) {
  const std::size_t span =
      spans != nullptr ? spans->open(w.cell_name(index % w.cells()), parent)
                       : 0;
  const double t0 = now_s();
  TrialResult r;
  try {
    r = w.run(seed, index, opt);
  } catch (const std::exception& e) {
    r.problem = std::string("exception: ") + e.what();
  }
  const double ms = (now_s() - t0) * 1e3;
  if (spans != nullptr) spans->close(span);
  if (!r.problem.empty()) pass.fail(pass.trials, r.problem);
  ++pass.trials;
  if (keep) {
    pass.trial_ms.push_back(ms);
    pass.digest.push_back(r.digest);
  }
  if (sink) sink(r);
  return ms;
}

}  // namespace

Pass timed_pass(Workload& w, std::uint64_t seed, double seconds,
                std::size_t min_trials, const PassOptions& options) {
  Pass pass;
  SpanLog* spans = options.spans;
  const std::size_t run_span =
      spans != nullptr ? spans->open(std::string("run.") + w.name()) : 0;
  HostSpeed* speed = options.speed;
  std::vector<double> round_ms;
  for (std::size_t first = 0;; first += w.cells()) {
    if (first >= min_trials && pass.elapsed_s >= seconds) break;
    if (options.interlude) options.interlude(pass.elapsed_s);
    if (speed != nullptr) speed->catch_up();
    const double scale_before = speed != nullptr ? speed->scale() : 1.0;
    round_ms.clear();
    const double start = now_s();
    serial_runner().run_indexed(w.cells(), [&](std::size_t c) {
      const std::size_t i = first + c;
      round_ms.push_back(run_one(w, seed, i, options.trial, options.sink,
                                 options.keep_all || i < min_trials, pass,
                                 spans, run_span));
    });
    const double round_s = now_s() - start;
    // The host speed over the round: probes from just before and just
    // after it (a long fleet round gets fresh probes on both sides).
    if (speed != nullptr) speed->catch_up();
    const double scale =
        speed != nullptr ? 0.5 * (scale_before + speed->scale()) : 1.0;
    for (const double ms : round_ms) pass.ref_trial_ms.add(scale * ms);
    pass.elapsed_s += round_s;
    pass.ref_elapsed_s += scale * round_s;
  }
  if (spans != nullptr) spans->close(run_span);
  pass.run_span = run_span;
  return pass;
}

Pass run_trials(Workload& w, std::uint64_t seed,
                const std::vector<std::size_t>& indices,
                const TrialOptions& options) {
  Pass pass;
  const double start = now_s();
  serial_runner().run_indexed(indices.size(), [&](std::size_t k) {
    run_one(w, seed, indices[k], options, {}, true, pass, nullptr, 0);
  });
  pass.elapsed_s = now_s() - start;
  return pass;
}

std::uint64_t set_up(Workload& w, std::uint64_t seed,
                     tmg::scenario::TrialArena& arena) {
  w.build_inputs(seed, arena);
  std::vector<std::size_t> warm(w.warmup_rounds() * w.cells());
  for (std::size_t j = 0; j < warm.size(); ++j) warm[j] = kWarmupIndexBase + j;
  TrialOptions opt;
  opt.arena = &arena;
  const Pass p = run_trials(w, seed, warm, opt);
  if (p.failed() != 0) {
    throw std::runtime_error("warm-up trial failed: " +
                             p.problems.begin()->second);
  }
  Digest d;
  for (const std::uint64_t v : p.digest) d.add(v);
  return d.value();
}

double child_set_up(const Args& args, std::uint64_t expected,
                    HostSpeed& speed) {
  speed.catch_up();
  const double scale_before = speed.scale();
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("cannot find this executable");
  exe[len] = '\0';
  const std::string seed = std::to_string(args.seed);
  const char* argv[] = {exe,          "--workload", args.workload.c_str(),
                        "--seed",     seed.c_str(), "--setup-only",
                        nullptr};
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const double t0 = now_s();
  pid_t pid = 0;
  const int spawned = ::posix_spawn(&pid, exe, &actions, nullptr,
                                    const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string line;
  char c = 0;
  while (spawned == 0 && ::read(fds[0], &c, 1) == 1 && c != '\n') line += c;
  const double seconds = now_s() - t0;
  ::close(fds[0]);
  int status = 0;
  if (spawned != 0 || ::waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process failed");
  }
  if (line != hex(expected)) {
    throw std::runtime_error("warm-up outcomes differ between set-ups");
  }
  for (std::size_t k = 0; k < HostSpeed::kTrail; ++k) speed.probe();
  return seconds * 0.5 * (scale_before + speed.scale());
}

std::vector<std::string> check_outcomes(Workload& w, const Args& args,
                                        Pass& pass,
                                        tmg::scenario::TrialArena& arena) {
  std::vector<std::string> notes;
  for (const auto& [i, why] : pass.problems) {
    notes.push_back("trial " + std::to_string(i) + " (" +
                    w.cell_name(i % w.cells()) + "): " + why);
  }

  const std::vector<std::uint64_t> committed =
      committed_digests(args.digests, w.name(), args.seed);
  if (!committed.empty() && committed.size() != w.digest_trials()) {
    notes.push_back("digest file holds " + std::to_string(committed.size()) +
                    " digests for this seed, expected " +
                    std::to_string(w.digest_trials()));
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < committed.size() && i < pass.digest.size(); ++i) {
    if (committed[i] != pass.digest[i]) {
      ++mismatches;
      pass.fail(i, "digest mismatch");
    }
  }
  if (mismatches != 0) {
    notes.push_back(std::to_string(mismatches) +
                    " trial digests differ from the committed ones");
  }

  // Replay the first round: same seed, same outcome.
  std::vector<std::size_t> round(w.cells());
  for (std::size_t c = 0; c < round.size(); ++c) round[c] = c;
  TrialOptions opt;
  opt.arena = &arena;
  const Pass replay = run_trials(w, args.seed, round, opt);
  for (std::size_t c = 0; c < round.size(); ++c) {
    if (replay.digest[c] != pass.digest[c]) {
      pass.fail(c, "replay differs");
      notes.push_back("trial " + std::to_string(c) + " replay differs");
    }
  }

  std::string line;
  for (std::size_t i = 0; i < w.digest_trials() && i < pass.digest.size(); ++i) {
    line += ' ';
    line += hex(pass.digest[i]);
  }
  std::fprintf(stderr, "perfbench: digests %s %llu%s (%s)\n", w.name(),
               static_cast<unsigned long long>(args.seed), line.c_str(),
               committed.empty() ? "no committed digests for this seed"
               : mismatches == 0 ? "match committed"
                                 : "MISMATCH");
  return notes;
}

double peak_rss_mb() {
  // getrusage's ru_maxrss also covers the parent's image before exec
  // (run.py's Python), so read this image's own high-water mark.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int report(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const std::unique_ptr<Workload> w = make_workload(args.workload);
  try {
    if (args.setup_only) return run_setup_only(*w, args);
    return args.trace ? run_traced(*w, args) : run_untraced(*w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", w->name(), e.what());
    return 1;
  }
}
