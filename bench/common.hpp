// Shared utilities for the experiment harnesses (one binary per paper
// table/figure; see DESIGN.md §4 and EXPERIMENTS.md).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace storm::bench {

/// `--fast` runs shortened workloads (same sweep shape, ~10x less
/// simulated work) for smoke-testing the harnesses.
inline bool fast_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) return true;
  }
  return false;
}

/// Scan argv for `<flag> <out-path>` (e.g. `--metrics x.json`,
/// `--trace y.json`). A trailing flag with no path is a usage error
/// (it used to be silently ignored), as is an empty path.
inline const char* parse_out_path(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= argc || argv[i + 1][0] == '\0') {
      std::fprintf(stderr, "%s: %s requires an output path "
                   "(usage: %s <out.json>)\n", argv[0], flag, flag);
      std::exit(2);
    }
    return argv[i + 1];
  }
  return nullptr;
}

/// Scan argv for `<flag> <value>` where value is a positive number,
/// at most `max` and whole when `whole`; 0 when the flag is absent
/// (numeric flags are opt-in). A missing value, trailing garbage or an
/// out-of-range number is a usage error, so a typo cannot silently
/// turn a budget off.
inline double number_flag(int argc, char** argv, const char* flag,
                          double max = 1e15, bool whole = false) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires a value (usage: %s <N>)\n",
                   argv[0], flag, flag);
      std::exit(2);
    }
    char* end = nullptr;
    const double v = std::strtod(argv[i + 1], &end);
    if (end == argv[i + 1] || *end != '\0' || !(v > 0) || v > max ||
        (whole && v != std::floor(v))) {
      std::fprintf(stderr, "%s: %s: '%s' is not a %s in (0, %g] "
                   "(usage: %s <N>)\n", argv[0], flag, argv[i + 1],
                   whole ? "whole number" : "number", max, flag);
      std::exit(2);
    }
    return v;
  }
  return 0;
}

/// `--jobs N`: number of worker threads the SweepRunner
/// (bench/runner.hpp) uses for independent sweep points. Defaults to
/// 1 (serial); output is byte-identical either way.
inline int jobs_flag(int argc, char** argv) {
  const double n = number_flag(argc, argv, "--jobs", 1024, /*whole=*/true);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int col_width = 12)
      : headers_(std::move(headers)), width_(col_width) {}

  void print_header() const {
    for (const auto& h : headers_) std::printf("%*s", width_, h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void cell(const std::string& v) const { std::printf("%*s", width_, v.c_str()); }
  void cell(double v, int precision = 1) const {
    std::printf("%*.*f", width_, precision, v);
  }
  void cell(long long v) const { std::printf("%*lld", width_, v); }
  void cell(int v) const { std::printf("%*d", width_, v); }
  void end_row() const { std::printf("\n"); }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

}  // namespace storm::bench
