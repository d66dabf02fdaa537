// Offline behavior-profile trainer (DESIGN.md §14).
//
// Reads one or more TraceLog JSONL exports from clean runs (bench
// --trace-out, or obs::TraceLog::to_jsonl written by tests) and emits
// the trained BehaviorProfile as tmg-behavior-profile-v1 JSON. Each
// input file is one clean trial: ProfileTrainer::add_trace_jsonl
// brackets the trial and applies the same featurization contract the
// online IDS uses, so a profile trained here scores identically to one
// trained in-process.
//
// Usage:
//   train_profile [--out PATH] TRACE.jsonl [TRACE.jsonl ...]
//
// Output goes to stdout unless --out is given. Deterministic: the same
// inputs in the same order yield a byte-identical profile. Exit 2 on a
// malformed trace or unreadable file.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ids/behavior_profile.hpp"
#include "obs/observability.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out PATH] TRACE.jsonl [TRACE.jsonl ...]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      usage(argv[0]);
      return 2;
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    usage(argv[0]);
    return 2;
  }

  tmg::ids::ProfileTrainer trainer;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!trainer.add_trace_jsonl(buf.str(), &error)) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
  }

  const std::string json = trainer.finalize().to_json();
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else if (!tmg::obs::write_text_file(out_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "[train_profile] %zu trace(s), %llu events -> profile "
               "(%s)\n",
               inputs.size(),
               static_cast<unsigned long long>(trainer.events()),
               out_path.empty() ? "stdout" : out_path.c_str());
  return 0;
}
