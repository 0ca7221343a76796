// Command-line / environment knobs shared by the bench binaries.
//
// Every figure bench accepts:
//   --paper-scale      full Section 8.1 topology and flow counts (slow)
//   --flows=N          override the flow count
//   --seed=S           RNG seed
//   --loads=a,b,c      subset of load points (fig12)
//   --csv              emit CSV instead of aligned tables
//   --threads=N        sweep worker threads (0 = one per core)
//   --json=PATH        dump sweep results as JSON (benches that sweep
//                      ExperimentConfig points)
// plus AMRT_BENCH_SCALE (a float multiplier on flow counts) and
// AMRT_SWEEP_THREADS from the environment, so CI can shrink everything
// uniformly. Every numeric value, here and in the other binaries' flags,
// goes through parse_number.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace amrt::harness {

// Parses `text` as one whole number of type T. Trailing characters ("16x"),
// a fraction for a count ("1.5") and a sign on an unsigned flag ("-1") are
// errors, never a silent prefix parse or a wrap-around to a huge count. The
// std::invalid_argument names `flag`.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(flag + " is out of range: '" + text + "'");
  }
  if (ec != std::errc{} || ptr != end) {
    const char* kind = !std::is_integral_v<T> ? "a number"
                       : std::is_signed_v<T>  ? "an integer"
                                              : "a non-negative integer";
    throw std::invalid_argument(flag + " expects " + kind + ", got '" + text + "'");
  }
  return value;
}

// parse_number, then a range check: a value below `lo` or above `hi`
// throws "<flag> must be at least <lo>" / "<flag> must be at most <hi>".
template <typename T>
T parse_bounded(const std::string& flag, const std::string& text, T lo,
                T hi = std::numeric_limits<T>::max()) {
  const T value = parse_number<T>(flag, text);
  if (value < lo) throw std::invalid_argument(flag + " must be at least " + std::to_string(lo));
  if (value > hi) throw std::invalid_argument(flag + " must be at most " + std::to_string(hi));
  return value;
}

// parse_bounded for a hand-rolled argv loop: a malformed or out-of-range
// value prints "<prog>: <message>" to stderr and exits 2.
template <typename T>
T parse_number_or_exit(const char* prog, const std::string& flag, const std::string& text,
                       T lo = std::numeric_limits<T>::lowest(),
                       T hi = std::numeric_limits<T>::max()) {
  try {
    return parse_bounded<T>(flag, text, lo, hi);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    std::exit(2);
  }
}

struct BenchOptions {
  bool paper_scale = false;
  bool csv = false;
  std::optional<std::size_t> flows;
  std::uint64_t seed = 1;
  std::vector<double> loads;   // empty = bench default
  double scale = 1.0;          // from AMRT_BENCH_SCALE
  unsigned threads = 0;        // sweep workers; 0 = one per core
  std::string json_path;       // empty = no JSON export

  // Applies `scale` to a default count, with a sane floor.
  [[nodiscard]] std::size_t scaled(std::size_t base) const;
};

// Throws std::invalid_argument on a malformed value (and, with the usage
// line, on --help).
[[nodiscard]] BenchOptions parse_bench_options(int argc, char** argv);
// parse_bench_options for a bench's main: a rejected command line prints
// "<argv[0]>: <message>" to stderr and exits 2.
[[nodiscard]] BenchOptions bench_options_or_exit(int argc, char** argv);

}  // namespace amrt::harness
