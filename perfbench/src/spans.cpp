#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "stats.hpp"
#include "util/timer.hpp"

namespace perfbench::spans {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;  // under mu
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ThreadBuffer {
  std::vector<Span>* spans = nullptr;
  std::uint32_t index = 0;
};

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer tb;
  if (tb.spans == nullptr) {
    Registry& r = registry();
    const std::lock_guard lock(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<Span>>());
    tb.spans = r.buffers.back().get();
    tb.index = static_cast<std::uint32_t>(r.buffers.size() - 1);
  }
  return tb;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t parent, std::uint64_t op) {
  if (!enabled()) return;
  span_.name = name;
  span_.parent = parent;
  span_.op = op;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.start_ns = cpkcore::now_ns();
}

Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end_ns = cpkcore::now_ns();
  ThreadBuffer& tb = thread_buffer();
  span_.thread = tb.index;
  tb.spans->push_back(span_);
}

std::vector<Span> collect() {
  Registry& r = registry();
  const std::lock_guard lock(r.mu);
  std::vector<Span> all;
  for (const auto& b : r.buffers) all.insert(all.end(), b->begin(), b->end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::vector<NameSummary> summarize(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, NameSummary> by_name;
  for (const Span& s : all) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    std::uint64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      // Children arrive start-ordered (collect sorts); merge overlaps.
      std::uint64_t run_lo = 0, run_hi = 0;
      bool open = false;
      for (const Span* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, s.start_ns);
        const std::uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (lo >= hi) continue;
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
    }
    NameSummary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    sum.total_ms += static_cast<double>(dur) * 1e-6;
    sum.self_ms += static_cast<double>(dur - covered) * 1e-6;
  }
  std::vector<NameSummary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

void write_json(const std::vector<Span>& all, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"name\": " << json_string(s.name) << ", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"thread\": " << s.thread << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("error writing span file " + path);
}

}  // namespace perfbench::spans
