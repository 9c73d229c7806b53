/// \file trace.h
/// \brief In-memory span recorder for the traced run.
///
/// A span wraps one call from the benchmark into a module's public function
/// and is named after that call; the part of the name before the first dot
/// is the layer. Spans opened while another span is open on the same thread
/// are its children and share its operation id. With tracing off a span costs
/// one load of a global flag, so end-to-end runs pay nothing measurable.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class SpanKind : uint8_t {
  kStreamPush,
  kMetadataFireEvent,
  kMetadataSubscribe,
  kMetadataUnsubscribe,
  kMetadataGet,
  kRuntimeMonitorSample,
  kRuntimeResourceControl,
  kRuntimeShedderControl,
  kRuntimeAdvisorEvaluate,
  kSchedulerTask,
  kCostmodelRegister,
  kCount,
};

const char* SpanName(SpanKind kind);

/// Turns recording on for the whole process. Call before any thread opens a
/// span; never turned off again.
void EnableTracing(size_t max_spans_per_thread);

/// RAII span. Nested spans on one thread form a parent/child chain.
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool open_ = false;
};

/// Aggregate of every closed span of one name, over all threads.
struct SpanTotals {
  uint64_t count = 0;
  double busy_us = 0.0;  ///< summed span durations
  double self_us = 0.0;  ///< durations minus the time covered by children
};

/// Totals per SpanKind. Call only after every thread that records spans has
/// stopped doing so.
std::vector<SpanTotals> CollectSpanTotals();

/// Spans kept in memory (bounded per thread) and spans dropped past the
/// bound; dropped spans still count in CollectSpanTotals.
uint64_t KeptSpans();
uint64_t DroppedSpans();

/// Writes every kept span as CSV (op_id,parent_index,thread,name,start_ns,
/// end_ns). Same precondition as CollectSpanTotals.
bool WriteSpans(const std::string& path);

}  // namespace e2e
