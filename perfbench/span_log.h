// In-memory span log for the traced pass: one span per timed call into a
// layer (name, start, end, parent span, request id), written out once the
// run ends as Chrome trace-event JSON — the format ParseChromeTraceSpans and
// tools/trace_dump already read.
#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = 0xffffffffu;

  struct Span {
    const char* name;  // string literal
    uint64_t begin_ns;
    uint64_t end_ns;
    uint32_t parent;  // index into spans(), kNoParent for a root
    uint64_t request_id;
  };

  // Opens a span under the innermost open one; Close ends it. Spans nest
  // strictly (Scope below enforces it).
  uint32_t Open(const char* name, uint64_t request_id = 0);
  void Close(uint32_t index);

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, uint64_t request_id = 0)
        : log_(log), index_(log.Open(name, request_id)) {}
    ~Scope() { log_.Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    uint32_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(uint32_t index) const;

  struct Total {
    double seconds = 0.0;
    size_t count = 0;
  };
  // Summed duration and call count per span name.
  std::map<std::string, Total> Totals() const;

  // Writes every span as a complete ("X") event: ts/dur in microseconds
  // with nanosecond digits, args carrying request_id, span_id and parent.
  // The file is then parsed back with ParseChromeTraceSpans and must
  // return every span.
  iccache::Status WriteChromeTrace(const std::string& path) const;

 private:
  uint64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
