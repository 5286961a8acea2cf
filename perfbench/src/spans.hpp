// In-memory span recorder for the traced run. Spans wrap calls into the
// system's public API from the benchmark's own code; nothing inside the
// library is instrumented. Each thread appends to its own buffer (no
// contention); buffers are collected after the worker threads have joined
// and written out once at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans {

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;      ///< 1-based, unique per process
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< op / batch id the span belongs to
  std::uint32_t thread = 0;  ///< recording-thread index
};

/// Tracing is off unless enabled; a disabled Scope records nothing.
void enable(bool on);
[[nodiscard]] bool enabled();

/// RAII span: starts at construction, ends at destruction.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t parent = 0,
                 std::uint64_t op = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
};

/// Every span recorded so far, ordered by start time. Call only after the
/// recording threads have joined.
[[nodiscard]] std::vector<Span> collect();

struct NameSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0;  ///< sum of durations
  double self_ms = 0;   ///< durations minus the time child spans cover
};

/// Per-name totals with self time: a span's duration minus the union of
/// its children's intervals (clipped to the span).
[[nodiscard]] std::vector<NameSummary> summarize(const std::vector<Span>& all);

/// Writes the spans as a JSON array of objects. Throws on IO failure.
void write_json(const std::vector<Span>& all, const std::string& path);

}  // namespace perfbench::spans
