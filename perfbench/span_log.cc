#include "perfbench/span_log.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/timeline.h"

namespace perfbench {

namespace {

// Microseconds with exactly three decimals, so nanosecond ticks survive
// ParseChromeTraceSpans' round-trip.
void AppendMicros(std::ostringstream& out, uint64_t ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out << buffer;
}

}  // namespace

uint64_t SpanLog::NowNs() const {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - origin_)
                                   .count());
}

uint32_t SpanLog::Open(const char* name, uint64_t request_id) {
  const uint32_t index = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, open_.empty() ? kNoParent : open_.back(), request_id});
  open_.push_back(index);
  return index;
}

void SpanLog::Close(uint32_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

double SpanLog::Seconds(uint32_t index) const {
  const Span& span = spans_[index];
  return span.end_ns > span.begin_ns ? 1e-9 * static_cast<double>(span.end_ns - span.begin_ns)
                                     : 0.0;
}

std::map<std::string, SpanLog::Total> SpanLog::Totals() const {
  std::map<std::string, Total> totals;
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    Total& total = totals[spans_[i].name];
    total.seconds += Seconds(i);
    ++total.count;
  }
  return totals;
}

iccache::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ostringstream out;
  out << "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"perfbench\"}}";
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << ",{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"";
    iccache::JsonAppendEscaped(out, span.name);
    out << "\",\"cat\":\"perfbench\",\"ts\":";
    AppendMicros(out, span.begin_ns);
    out << ",\"dur\":";
    AppendMicros(out, span.end_ns > span.begin_ns ? span.end_ns - span.begin_ns : 0);
    out << ",\"args\":{\"request_id\":" << span.request_id << ",\"span_id\":" << i;
    if (span.parent != kNoParent) {
      out << ",\"parent\":" << span.parent;
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  const std::string json = out.str();
  iccache::Status status = iccache::WriteTextFile(path, json);
  if (!status.ok()) {
    return status;
  }
  std::vector<iccache::TimelineSpan> parsed;
  std::string error;
  if (!iccache::ParseChromeTraceSpans(json, &parsed, &error)) {
    return iccache::Status::Internal("trace does not parse back: " + error);
  }
  if (parsed.size() != spans_.size()) {
    return iccache::Status::Internal("trace parse returned " + std::to_string(parsed.size()) +
                                     " of " + std::to_string(spans_.size()) + " spans");
  }
  return iccache::Status::Ok();
}

}  // namespace perfbench
