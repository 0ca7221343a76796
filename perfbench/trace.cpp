#include "trace.hpp"

#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::vector<std::unique_ptr<Tracer>>& registry() {
  static std::vector<std::unique_ptr<Tracer>> tracers;
  return tracers;
}

}  // namespace

const char* span_label(std::size_t name) {
  switch (name) {
    case static_cast<std::size_t>(SpanName::kDeliver): return "deliver";
    case static_cast<std::size_t>(SpanName::kStartFlow): return "start_flow";
    case static_cast<std::size_t>(SpanName::kMarker): return "marker";
    case static_cast<std::size_t>(SpanName::kObserver): return "observer";
    default: return "none";
  }
}

Tracer& Tracer::local() {
  thread_local Tracer* mine = [] {
    std::lock_guard<std::mutex> lock{registry_mutex()};
    registry().push_back(std::make_unique<Tracer>());
    return registry().back().get();
  }();
  return *mine;
}

Tracer::Table Tracer::merged() {
  std::lock_guard<std::mutex> lock{registry_mutex()};
  Table out{};
  for (const auto& t : registry()) {
    for (std::size_t n = 0; n < kSpanNames; ++n) {
      for (std::size_t p = 0; p <= kSpanNames; ++p) {
        const SpanTotals& s = t->totals()[n][p];
        out[n][p].count += s.count;
        out[n][p].total_ns += s.total_ns;
        out[n][p].self_ns += s.self_ns;
      }
    }
  }
  return out;
}

}  // namespace perfbench
