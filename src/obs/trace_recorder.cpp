#include "obs/trace_recorder.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"  // JsonEscape, FormatDouble

namespace edc::obs {

std::string FormatTraceTsUs(SimTime ns) {
  bool neg = ns < 0;
  u64 abs = neg ? static_cast<u64>(-ns) : static_cast<u64>(ns);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s%llu.%03llu", neg ? "-" : "",
                static_cast<unsigned long long>(abs / 1000),
                static_cast<unsigned long long>(abs % 1000));
  return buf;
}

namespace {

void AppendArgValue(std::string* out, const TraceArg& arg) {
  struct Visitor {
    std::string* out;
    void operator()(u64 v) { *out += std::to_string(v); }
    void operator()(i64 v) { *out += std::to_string(v); }
    void operator()(double v) { *out += JsonNumber(v); }
    void operator()(const std::string& v) {
      out->append("\"").append(JsonEscape(v)).append("\"");
    }
    void operator()(bool v) { *out += v ? "true" : "false"; }
  };
  std::visit(Visitor{out}, arg.value);
}

std::vector<std::string> ParseFilter(const std::string& filter) {
  std::vector<std::string> cats;
  std::size_t pos = 0;
  while (pos < filter.size()) {
    std::size_t comma = filter.find(',', pos);
    if (comma == std::string::npos) comma = filter.size();
    std::string cat = filter.substr(pos, comma - pos);
    // Trim surrounding spaces.
    while (!cat.empty() && cat.front() == ' ') cat.erase(cat.begin());
    while (!cat.empty() && cat.back() == ' ') cat.pop_back();
    if (!cat.empty()) cats.push_back(std::move(cat));
    pos = comma + 1;
  }
  return cats;
}

}  // namespace

void AppendTraceArgs(std::string* out, const TraceArgs& args) {
  if (args.empty()) return;
  *out += ",\"args\":{";
  bool first = true;
  for (const TraceArg& a : args) {
    if (!first) *out += ',';
    first = false;
    out->append("\"").append(JsonEscape(a.key)).append("\":");
    AppendArgValue(out, a);
  }
  *out += "}";
}

TraceRecorder::TraceRecorder(const std::string& filter)
    : filter_(ParseFilter(filter)) {}

bool TraceRecorder::Enabled(std::string_view cat) const {
  if (filter_.empty()) return true;
  return std::find(filter_.begin(), filter_.end(), cat) != filter_.end();
}

void TraceRecorder::Span(std::string name, std::string_view cat, u32 tid,
                         SimTime start, SimTime end, TraceArgs args) {
  if (tap_ != nullptr) {
    tap_->OnTraceEvent('X', name, cat, tid, start,
                       end >= start ? end - start : 0, args);
  }
  if (!Enabled(cat)) return;
  Event e;
  e.name = std::move(name);
  e.cat = std::string(cat);
  e.phase = 'X';
  e.tid = tid;
  e.ts = start;
  e.dur = end >= start ? end - start : 0;
  e.args = std::move(args);
  sync::MutexLock lock(&mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::Instant(std::string name, std::string_view cat,
                            u32 tid, SimTime ts, TraceArgs args) {
  if (tap_ != nullptr) {
    tap_->OnTraceEvent('i', name, cat, tid, ts, 0, args);
  }
  if (!Enabled(cat)) return;
  Event e;
  e.name = std::move(name);
  e.cat = std::string(cat);
  e.phase = 'i';
  e.tid = tid;
  e.ts = ts;
  e.dur = 0;
  e.args = std::move(args);
  sync::MutexLock lock(&mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::NameThread(u32 tid, std::string name) {
  sync::MutexLock lock(&mu_);
  for (auto& [t, n] : thread_names_) {
    if (t == tid) {
      n = std::move(name);
      return;
    }
  }
  thread_names_.emplace_back(tid, std::move(name));
}

std::vector<std::pair<u32, std::string>> TraceRecorder::ThreadNames()
    const {
  sync::MutexLock lock(&mu_);
  auto names = thread_names_;
  std::sort(names.begin(), names.end());
  return names;
}

std::string TraceRecorder::ToJson() const {
  sync::MutexLock lock(&mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto names = thread_names_;
  std::sort(names.begin(), names.end());
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"edc\"}}";
  first = false;
  for (const auto& [tid, name] : names) {
    out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"" +
           JsonEscape(name) + "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(e.name) + "\",\"cat\":\"" +
           JsonEscape(e.cat) + "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + FormatTraceTsUs(e.ts);
    if (e.phase == 'X') out += ",\"dur\":" + FormatTraceTsUs(e.dur);
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    AppendTraceArgs(&out, e.args);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace edc::obs
