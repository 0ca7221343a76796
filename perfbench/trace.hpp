// In-memory span tracer for the benchmark's traced pass.
//
// A span covers one call the benchmark forwards into a library layer
// (transport delivery, flow start, dequeue marker, flow observer). Each
// thread records into its own Tracer, so shard worker threads share no
// counters; spans are aggregated on the fly per (name, parent) into count,
// total time and self time (duration minus the time covered by child spans)
// and read back once after the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace perfbench {

enum class SpanName : std::uint8_t { kDeliver, kStartFlow, kMarker, kObserver, kCount };
inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);
// Parent index kSpanNames means "no parent" (a top-level span).
inline constexpr std::size_t kNoParent = kSpanNames;

[[nodiscard]] const char* span_label(std::size_t name);

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void begin(SpanName name) {
    stack_[depth_++] = Frame{name, Clock::now(), 0};
  }
  void end() {
    const Frame f = stack_[--depth_];
    const auto dur = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - f.start).count());
    const std::size_t parent =
        depth_ == 0 ? kNoParent : static_cast<std::size_t>(stack_[depth_ - 1].name);
    SpanTotals& t = totals_[static_cast<std::size_t>(f.name)][parent];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  }

  using Table = std::array<std::array<SpanTotals, kSpanNames + 1>, kSpanNames>;
  [[nodiscard]] const Table& totals() const { return totals_; }

  // The calling thread's tracer, created on first use and kept alive (in a
  // process-wide registry) after its thread exits.
  [[nodiscard]] static Tracer& local();
  // Sum over every thread's tracer. Call only once the traced threads have
  // stopped.
  [[nodiscard]] static Table merged();

 private:
  struct Frame {
    SpanName name;
    Clock::time_point start;
    std::uint64_t child_ns;
  };
  // Spans nest at most a few deep (deliver -> observer, start_flow -> observer).
  std::array<Frame, 16> stack_{};
  std::size_t depth_ = 0;
  Table totals_{};
};

// RAII span on the calling thread's tracer.
class Span {
 public:
  explicit Span(SpanName name) : tracer_{Tracer::local()} { tracer_.begin(name); }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
