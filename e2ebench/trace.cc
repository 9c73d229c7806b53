#include "trace.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace e2e {
namespace {

constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);
constexpr size_t kMaxDepth = 16;
constexpr uint32_t kNoParent = ~0u;

const char* const kSpanNames[kKinds] = {
    "stream.push",
    "metadata.fire_event",
    "metadata.subscribe",
    "metadata.unsubscribe",
    "metadata.get",
    "runtime.monitor_sample",
    "runtime.resource_control",
    "runtime.shedder_control",
    "runtime.advisor_evaluate",
    "scheduler.task",
    "costmodel.register",
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  uint64_t op_id;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t parent;  // index into the same thread's record vector
  SpanKind kind;
};

struct OpenSpan {
  uint64_t op_id;
  SpanKind kind;
  int64_t start_ns;
  int64_t child_ns;
  uint32_t record;  // kNoParent when the record was dropped
};

/// One thread's spans. Owned by the global registry so the records outlive
/// the thread (scheduler workers exit before the totals are collected).
struct ThreadTrace {
  uint32_t thread_index = 0;
  uint64_t next_op = 0;
  std::vector<SpanRecord> records;
  std::array<OpenSpan, kMaxDepth> stack{};
  size_t depth = 0;
  uint64_t dropped = 0;
  std::array<SpanTotals, kKinds> totals{};
};

std::atomic<bool> g_enabled{false};
size_t g_max_spans = 0;
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;

ThreadTrace* LocalTrace() {
  thread_local ThreadTrace* local = nullptr;
  if (local == nullptr) {
    auto trace = std::make_unique<ThreadTrace>();
    trace->records.reserve(g_max_spans);
    std::lock_guard<std::mutex> lock(g_threads_mu);
    trace->thread_index = static_cast<uint32_t>(g_threads.size());
    local = trace.get();
    g_threads.push_back(std::move(trace));
  }
  return local;
}

}  // namespace

const char* SpanName(SpanKind kind) {
  return kSpanNames[static_cast<size_t>(kind)];
}

void EnableTracing(size_t max_spans_per_thread) {
  g_max_spans = max_spans_per_thread;
  g_enabled.store(true, std::memory_order_release);
}

Span::Span(SpanKind kind) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadTrace* t = LocalTrace();
  if (t->depth == kMaxDepth) return;
  OpenSpan& open = t->stack[t->depth];
  open.kind = kind;
  open.child_ns = 0;
  open.record = kNoParent;
  uint32_t parent = kNoParent;
  if (t->depth == 0) {
    open.op_id = (static_cast<uint64_t>(t->thread_index) << 40) | ++t->next_op;
  } else {
    const OpenSpan& up = t->stack[t->depth - 1];
    open.op_id = up.op_id;
    parent = up.record;
  }
  if (t->records.size() < g_max_spans) {
    open.record = static_cast<uint32_t>(t->records.size());
    t->records.push_back(SpanRecord{open.op_id, 0, 0, parent, kind});
  } else {
    ++t->dropped;
  }
  ++t->depth;
  open_ = true;
  open.start_ns = NowNs();  // last, so the bookkeeping stays outside
}

Span::~Span() {
  if (!open_) return;
  int64_t end = NowNs();
  ThreadTrace* t = LocalTrace();
  OpenSpan& open = t->stack[--t->depth];
  int64_t dur = end - open.start_ns;
  SpanTotals& tot = t->totals[static_cast<size_t>(open.kind)];
  ++tot.count;
  tot.busy_us += static_cast<double>(dur) / 1e3;
  tot.self_us += static_cast<double>(dur - open.child_ns) / 1e3;
  if (t->depth > 0) t->stack[t->depth - 1].child_ns += dur;
  if (open.record != kNoParent) {
    t->records[open.record].start_ns = open.start_ns;
    t->records[open.record].end_ns = end;
  }
}

std::vector<SpanTotals> CollectSpanTotals() {
  std::vector<SpanTotals> out(kKinds);
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (size_t k = 0; k < kKinds; ++k) {
      out[k].count += t->totals[k].count;
      out[k].busy_us += t->totals[k].busy_us;
      out[k].self_us += t->totals[k].self_us;
    }
  }
  return out;
}

uint64_t KeptSpans() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  uint64_t n = 0;
  for (const auto& t : g_threads) n += t->records.size();
  return n;
}

uint64_t DroppedSpans() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  uint64_t n = 0;
  for (const auto& t : g_threads) n += t->dropped;
  return n;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op_id,parent_index,thread,name,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (const SpanRecord& r : t->records) {
      std::fprintf(f, "%llu,%lld,%u,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(r.op_id),
                   r.parent == kNoParent ? -1LL
                                         : static_cast<long long>(r.parent),
                   t->thread_index, SpanName(r.kind),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
