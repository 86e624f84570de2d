#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into the program's layers (no program
// file is instrumented): name, start, end, the span that caused it, and a
// request id shared by every span of one request. The buffer is
// preallocated; spans past its capacity are counted as dropped.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< static string, e.g. "xar.sab"
  std::int64_t parent = -1;    ///< index of the causing span, -1 at a root
  std::uint64_t request = 0;   ///< shared by all spans of one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;     ///< 0 while open

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Nanoseconds on the steady clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (parallel work) are
/// merged first, so covered time is never counted twice; children are
/// clipped to the parent's interval.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : spans_(capacity) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span as a child of the calling thread's open span (if any) and
  /// makes it the thread's open span. `request` 0 inherits the parent's
  /// request id. Returns the span index, or -1 when the buffer is full.
  std::int64_t Begin(const char* name, std::uint64_t request = 0);
  /// Closes span `index` (from Begin) and restores its parent as the
  /// thread's open span.
  void End(std::int64_t index);

  /// Recorded spans, in Begin order. Call only once every recording thread
  /// has finished.
  std::vector<Span> Spans() const;
  std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes the buffer as CSV (index,parent,request,name,start_ns,end_ns,
  /// self_ns). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
};

/// RAII span; a null recorder records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint64_t request = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
