#include "scenario/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace tmg::scenario {

namespace {

[[noreturn]] void usage_error(const std::string& message,
                              const std::vector<CliFlag>& flags) {
  std::string valid;
  for (const CliFlag& f : flags) {
    valid += " " + f.name + (f.value.empty() ? "" : " " + f.value);
  }
  if (flags.empty()) valid = " (none)";
  std::fprintf(stderr, "error: %s\nvalid flags:%s\n", message.c_str(),
               valid.c_str());
  std::exit(2);
}

}  // namespace

CliFlag cli_switch(std::string name, bool& out) {
  return {std::move(name), "", [&out](const std::string&) {
            out = true;
            return std::string{};
          }};
}

CliFlag cli_text(std::string name, std::string value, std::string& out) {
  return {std::move(name), std::move(value), [&out](const std::string& v) {
            out = v;
            return std::string{};
          }};
}

CliFlag cli_count(std::string name, std::size_t& out, std::string zero) {
  return {name, "N", [&out, name, zero](const std::string& v) {
            const std::optional<std::size_t> parsed =
                parse_jobs_value(v.c_str());
            if (!parsed) {
              return "invalid " + name + " value '" + v +
                     "' (expected a non-negative integer; " + zero + ")";
            }
            out = *parsed;
            return std::string{};
          }};
}

CliFlag cli_profile(std::optional<ctrl::ControllerProfile>& out) {
  return {"--profile", "NAME", [&out](const std::string& v) {
            out = ctrl::profile_by_name(v);
            if (out) return std::string{};
            std::string names;
            for (const std::string& n : ctrl::profile_cli_names()) {
              names += " " + n;
            }
            return "unknown --profile '" + v + "' (valid:" + names + ")";
          }};
}

void parse_cli(int argc, char** argv, const std::vector<CliFlag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const CliFlag* flag = nullptr;
    for (const CliFlag& f : flags) {
      if (f.name == name) flag = &f;
    }
    if (flag == nullptr) usage_error("unknown argument '" + arg + "'", flags);
    std::string value;
    if (flag->value.empty()) {
      if (eq != std::string::npos) usage_error(name + " takes no value", flags);
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error(name + " needs a value", flags);
    }
    if (const std::string error = flag->apply(value); !error.empty()) {
      usage_error(error, flags);
    }
  }
}

std::optional<std::size_t> parse_jobs_value(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  // Digits only: reject signs, whitespace and unit suffixes outright
  // (strtoul would accept "-1" by wrapping it into a huge unsigned).
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return std::nullopt;
  if (v > std::numeric_limits<std::size_t>::max()) return std::nullopt;
  return static_cast<std::size_t>(v);
}

}  // namespace tmg::scenario
