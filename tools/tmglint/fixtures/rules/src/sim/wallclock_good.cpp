// fixture: wall-clock negatives. A regex linter flags the string
// literals below; the token engine must not.
namespace fx {

// A comment mentioning std::chrono::steady_clock is documentation.
const char* label() { return "uses system_clock? never"; }

const char* raw() {
  return R"(gettimeofday(&tv, nullptr) inside a raw string)";
}

// `time(x)` with a real argument is someone's own function, not libc.
long sample(long x) { return time_scaled(x); }
long time_scaled(long x) { return x * 2; }

}  // namespace fx
