#include "spans.hpp"

#include <atomic>
#include <fstream>

#include "common/json.hpp"

namespace pb {

namespace {

std::uint32_t threadIndex() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

void SpanLog::record(const char* name, std::uint64_t id,
                     Clock::time_point start, Clock::time_point end) {
  if (!enabled_) {
    return;
  }
  const Span span{name, id, start, end, threadIndex()};
  const std::lock_guard lock{mutex_};
  spans_.push_back(span);
}

std::size_t SpanLog::size() const {
  const std::lock_guard lock{mutex_};
  return spans_.size();
}

bool SpanLog::writeChromeTrace(const std::string& path) const {
  fdd::json::Writer w;
  w.beginObject();
  w.beginArray("traceEvents");
  {
    const std::lock_guard lock{mutex_};
    for (const Span& s : spans_) {
      w.beginObjectEntry();
      w.field("name", s.name);
      w.field("ph", "X");
      w.field("ts", secondsBetween(origin_, s.start) * 1e6);
      w.field("dur", secondsBetween(s.start, s.end) * 1e6);
      w.field("pid", 1);
      w.field("tid", static_cast<int>(s.tid));
      w.beginObjectIn("args");
      w.field("request_id", std::to_string(s.id));
      w.endObject();
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();
  std::ofstream out{path};
  out << w.take() << '\n';
  return static_cast<bool>(out);
}

}  // namespace pb
