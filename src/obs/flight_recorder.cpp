#include "obs/flight_recorder.hpp"

#include <algorithm>

namespace edc::obs {
namespace {

/// One ring/bundle event in the exact shape the trace exporter emits,
/// so a bundle's "events" load in Perfetto after trivial wrapping.
std::string RenderEvent(char phase, const std::string& name,
                        std::string_view cat, u32 tid, SimTime ts,
                        SimTime dur, const TraceArgs& args) {
  std::string out = "{\"name\":\"" + JsonEscape(name) + "\",\"cat\":\"" +
                    JsonEscape(std::string(cat)) + "\",\"ph\":\"";
  out += phase;
  out += "\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"ts\":" + FormatTraceTsUs(ts);
  if (phase == 'X') out += ",\"dur\":" + FormatTraceTsUs(dur);
  if (phase == 'i') out += ",\"s\":\"t\"";
  AppendTraceArgs(&out, args);
  out += "}";
  return out;
}

void AppendLabels(std::string* out, const LabelSet& labels) {
  *out += "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    out->append("\"").append(JsonEscape(k)).append("\":\"");
    out->append(JsonEscape(v)).append("\"");
  }
  *out += "}";
}

}  // namespace

const std::vector<std::string>& FlightRecorder::DefaultTriggers() {
  static const std::vector<std::string> kTriggers = {
      "breaker.open",       "rais.member_failed", "rais.array_failed",
      "rais.data_loss",     "scrub.unrepairable", "audit.fail",
  };
  return kTriggers;
}

FlightRecorder::FlightRecorder(const FlightRecorderConfig& config,
                               const MetricRegistry* registry,
                               const TimeSeriesSampler* sampler,
                               const TraceRecorder* trace)
    : config_(config),
      registry_(registry),
      sampler_(sampler),
      trace_(trace) {
  if (config_.events_per_lane == 0) config_.events_per_lane = 64;
  if (config_.triggers.empty()) config_.triggers = DefaultTriggers();
}

bool FlightRecorder::IsTrigger(const std::string& name) const {
  return std::find(config_.triggers.begin(), config_.triggers.end(),
                   name) != config_.triggers.end();
}

void FlightRecorder::OnTraceEvent(char phase, const std::string& name,
                                  std::string_view cat, u32 tid,
                                  SimTime ts, SimTime dur,
                                  const TraceArgs& args) {
  std::string rendered = RenderEvent(phase, name, cat, tid, ts, dur, args);
  std::deque<std::string>& lane = lanes_[tid];
  lane.push_back(rendered);
  if (lane.size() > config_.events_per_lane) lane.pop_front();
  if (!IsTrigger(name) || fired_.count(name) != 0) return;
  fired_.insert(name);
  Bundle b;
  b.seq = next_seq_++;
  b.trigger = name;
  b.ts = ts;
  b.json = BuildBundle(b.seq, rendered, name, cat, tid, ts);
  bundles_.push_back(std::move(b));
  if (sink_) sink_(bundles_.back());
}

std::string FlightRecorder::BuildBundle(u64 seq,
                                        const std::string& trigger_json,
                                        const std::string& name,
                                        std::string_view cat, u32 tid,
                                        SimTime ts) const {
  std::string out = "{\"schema\":\"edc-postmortem-v1\",\"seq\":" +
                    std::to_string(seq) + ",\"trigger\":{\"name\":\"" +
                    JsonEscape(name) + "\",\"cat\":\"" +
                    JsonEscape(std::string(cat)) +
                    "\",\"tid\":" + std::to_string(tid) +
                    ",\"ts_ns\":" + std::to_string(ts) +
                    ",\"event\":" + trigger_json + "}";

  // State summary: the breaker / RAIS / journal gauges that tell a
  // responder what mode the stack was in when the trigger fired.
  MetricsSnapshot snap = registry_->Snapshot();
  out += ",\"state\":{";
  bool first = true;
  for (const char* g :
       {"edc_breaker_open", "edc_rais_degraded",
        "edc_rais_rebuild_progress", "edc_journal_lag_records",
        "edc_compression_ratio", "edc_device_waf"}) {
    const Sample* s = snap.Find(g);
    if (s == nullptr || s->type != MetricType::kGauge) continue;
    if (!first) out += ',';
    first = false;
    out += "\"" + std::string(g) + "\":" + JsonNumber(s->gauge_value);
  }
  out += "}";

  // Recent history, one ring per lane, labeled with the lane names the
  // trace exporter uses.
  std::map<u32, std::string> lane_names;
  for (const auto& [lane_tid, lane_name] : trace_->ThreadNames()) {
    lane_names[lane_tid] = lane_name;
  }
  out += ",\"lanes\":[";
  first = true;
  for (const auto& [lane_tid, events] : lanes_) {
    if (!first) out += ',';
    first = false;
    out += "{\"tid\":" + std::to_string(lane_tid);
    auto it = lane_names.find(lane_tid);
    if (it != lane_names.end()) {
      out += ",\"name\":\"" + JsonEscape(it->second) + "\"";
    }
    out += ",\"events\":[";
    bool fe = true;
    for (const std::string& e : events) {
      if (!fe) out += ',';
      fe = false;
      out += e;
    }
    out += "]}";
  }
  out += "]";

  // Last K sampling windows (the temporal run-up to the fault).
  out += ",\"windows\":";
  if (sampler_ != nullptr) {
    out += sampler_->ToJson(config_.bundle_windows);
  } else {
    out += "null";
  }

  // Metric section: counters with their delta since the last completed
  // sampling window (baseline 0 without a sampler), gauges at-value.
  out += ",\"metrics\":{\"counters\":[";
  first = true;
  for (const Sample& s : snap.samples) {
    if (s.type != MetricType::kCounter) continue;
    if (!first) out += ',';
    first = false;
    double baseline = 0;
    if (sampler_ != nullptr) {
      const TimeSeriesSampler::Series* series =
          sampler_->Find(s.name, s.labels);
      if (series != nullptr) baseline = series->cumulative;
    }
    out += "{\"name\":\"" + JsonEscape(s.name) + "\",";
    AppendLabels(&out, s.labels);
    out += ",\"value\":" + std::to_string(s.counter_value) +
           ",\"delta\":" +
           JsonNumber(static_cast<double>(s.counter_value) - baseline);
    out += "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const Sample& s : snap.samples) {
    if (s.type != MetricType::kGauge) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(s.name) + "\",";
    AppendLabels(&out, s.labels);
    out += ",\"value\":" + JsonNumber(s.gauge_value) + "}";
  }
  out += "]}}";
  return out;
}

}  // namespace edc::obs
