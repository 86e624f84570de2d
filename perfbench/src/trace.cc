#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

// The calling thread's innermost open span and its request id. A span
// restores its parent on End, so nesting follows the call stack.
thread_local std::int64_t tls_open_span = -1;
thread_local std::uint64_t tls_request = 0;

}  // namespace

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t begin = std::max(s.start_ns, p.start_ns);
    const std::int64_t end = std::min(s.end_ns, p.end_ns);
    if (end > begin) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(begin, end);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_begin = 0, run_end = -1;
    for (const auto& [b, e] : iv) {
      if (run_end < b) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::int64_t SpanRecorder::Begin(const char* name, std::uint64_t request) {
  const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& span = spans_[index];
  span.name = name;
  span.parent = tls_open_span;
  span.request = request != 0 ? request : tls_request;
  span.start_ns = NowNs();
  tls_open_span = static_cast<std::int64_t>(index);
  tls_request = span.request;
  return static_cast<std::int64_t>(index);
}

void SpanRecorder::End(std::int64_t index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = NowNs();
  tls_open_span = span.parent;
  tls_request =
      span.parent >= 0 ? spans_[static_cast<std::size_t>(span.parent)].request
                       : 0;
}

std::vector<Span> SpanRecorder::Spans() const {
  const std::size_t n =
      std::min(next_.load(std::memory_order_acquire), spans_.size());
  return std::vector<Span>(spans_.begin(),
                           spans_.begin() + static_cast<std::ptrdiff_t>(n));
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = Spans();
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::fprintf(f, "index,parent,request,name,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%lld,%llu,%s,%lld,%lld,%lld\n", i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
