#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace edc::obs {
namespace {

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

void SortLabels(LabelSet* labels) {
  std::sort(labels->begin(), labels->end());
}

}  // namespace

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  double integral;
  if (std::modf(v, &integral) == 0.0 && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return std::string("\"").append(FormatDouble(v)).append("\"");
  }
  return FormatDouble(v);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

HistogramMetric::HistogramMetric(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void HistogramMetric::Observe(double v) {
  std::size_t i =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(),
                                                bounds_.end(), v) -
                               bounds_.begin());
  ++counts_[i];
  sum_ += v;
  ++count_;
}

const std::vector<double>& LatencyBoundsUs() {
  static const std::vector<double> kBounds = {
      10,    20,    50,     100,    200,    500,    1000,    2000,
      5000,  10000, 20000,  50000,  100000, 200000, 500000,  1000000};
  return kBounds;
}

const Sample* MetricsSnapshot::Find(const std::string& name,
                                    const LabelSet& labels) const {
  for (const Sample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"schema\":\"edc-metrics-v1\",\"metrics\":[";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(s.name) + "\",\"type\":\"";
    out += TypeName(s.type);
    out += "\",\"labels\":{";
    bool fl = true;
    for (const auto& [k, v] : s.labels) {
      if (!fl) out += ',';
      fl = false;
      out.append("\"").append(JsonEscape(k)).append("\":\"");
      out.append(JsonEscape(v)).append("\"");
    }
    out += "}";
    switch (s.type) {
      case MetricType::kCounter:
        out += ",\"value\":" + std::to_string(s.counter_value);
        break;
      case MetricType::kGauge:
        out += ",\"value\":" + JsonNumber(s.gauge_value);
        break;
      case MetricType::kHistogram: {
        out += ",\"buckets\":[";
        u64 cumulative = 0;
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          if (i != 0) out += ',';
          cumulative += s.bucket_counts[i];
          std::string le = i < s.bounds.size()
                               ? FormatDouble(s.bounds[i])
                               : std::string("+Inf");
          out += "{\"le\":\"" + le + "\",\"count\":" +
                 std::to_string(cumulative) + "}";
        }
        out += "],\"sum\":" + JsonNumber(s.sum) +
               ",\"count\":" + std::to_string(s.count);
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  auto render_labels = [](const LabelSet& labels,
                          const std::string& extra_key = "",
                          const std::string& extra_val = "") {
    if (labels.empty() && extra_key.empty()) return std::string();
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out += ',';
      first = false;
      out += k + "=\"" + JsonEscape(v) + "\"";
    }
    if (!extra_key.empty()) {
      if (!first) out += ',';
      out += extra_key + "=\"" + extra_val + "\"";
    }
    out += "}";
    return out;
  };

  std::string out;
  std::string last_name;
  for (const Sample& s : samples) {
    if (s.name != last_name) {
      last_name = s.name;
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " " + s.help + "\n";
      }
      out += "# TYPE " + s.name + " ";
      out += TypeName(s.type);
      out += "\n";
    }
    switch (s.type) {
      case MetricType::kCounter:
        out += s.name + render_labels(s.labels) + " " +
               std::to_string(s.counter_value) + "\n";
        break;
      case MetricType::kGauge:
        out += s.name + render_labels(s.labels) + " " +
               FormatDouble(s.gauge_value) + "\n";
        break;
      case MetricType::kHistogram: {
        u64 cumulative = 0;
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          cumulative += s.bucket_counts[i];
          std::string le = i < s.bounds.size()
                               ? FormatDouble(s.bounds[i])
                               : std::string("+Inf");
          out += s.name + "_bucket" + render_labels(s.labels, "le", le) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += s.name + "_sum" + render_labels(s.labels) + " " +
               FormatDouble(s.sum) + "\n";
        out += s.name + "_count" + render_labels(s.labels) + " " +
               std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

void SampleList::AddCounter(std::string name, LabelSet labels, u64 value,
                            std::string help) {
  SortLabels(&labels);
  Sample s;
  s.type = MetricType::kCounter;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.help = std::move(help);
  s.counter_value = value;
  out_->push_back(std::move(s));
}

void SampleList::AddGauge(std::string name, LabelSet labels, double value,
                          std::string help) {
  SortLabels(&labels);
  Sample s;
  s.type = MetricType::kGauge;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.help = std::move(help);
  s.gauge_value = value;
  out_->push_back(std::move(s));
}

MetricRegistry::Entry* MetricRegistry::FindOrCreate(
    const std::string& name, LabelSet labels, MetricType type,
    const std::string& help) {
  SortLabels(&labels);
  Key key{name, std::move(labels)};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.type != type) {
      if (error_.empty()) {
        error_ = "metric '" + name + "' registered as " +
                 TypeName(it->second.type) + " and re-requested as " +
                 TypeName(type);
      }
      return nullptr;
    }
    return &it->second;
  }
  Entry e;
  e.type = type;
  e.help = help;
  return &entries_.emplace(std::move(key), std::move(e)).first->second;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    LabelSet labels,
                                    const std::string& help) {
  sync::MutexLock lock(&mu_);
  Entry* e = FindOrCreate(name, std::move(labels), MetricType::kCounter,
                          help);
  if (e == nullptr) return nullptr;
  if (!e->counter) e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name, LabelSet labels,
                                const std::string& help) {
  sync::MutexLock lock(&mu_);
  Entry* e =
      FindOrCreate(name, std::move(labels), MetricType::kGauge, help);
  if (e == nullptr) return nullptr;
  if (!e->gauge) e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

HistogramMetric* MetricRegistry::GetHistogram(const std::string& name,
                                              LabelSet labels,
                                              std::vector<double> bounds,
                                              const std::string& help) {
  sync::MutexLock lock(&mu_);
  Entry* e = FindOrCreate(name, std::move(labels), MetricType::kHistogram,
                          help);
  if (e == nullptr) return nullptr;
  if (!e->histogram) {
    e->histogram = std::make_unique<HistogramMetric>(std::move(bounds));
  }
  return e->histogram.get();
}

u64 MetricRegistry::AddCollector(Collector fn, bool deterministic) {
  sync::MutexLock lock(&mu_);
  u64 id = next_collector_id_++;
  collectors_.push_back(CollectorEntry{std::move(fn), deterministic, id});
  return id;
}

void MetricRegistry::RemoveCollector(u64 handle) {
  sync::MutexLock lock(&mu_);
  collectors_.erase(
      std::remove_if(
          collectors_.begin(), collectors_.end(),
          [handle](const CollectorEntry& c) { return c.id == handle; }),
      collectors_.end());
}

MetricsSnapshot MetricRegistry::Snapshot(bool include_volatile) const {
  MetricsSnapshot snap;
  // Copy the collector functions out so they run with mu_ released: a
  // collector may re-enter the registry or take a coarser-ranked lock
  // (WorkerPool::GetStats), neither of which may happen under mu_.
  std::vector<Collector> to_run;
  {
    sync::MutexLock lock(&mu_);
    for (const auto& [key, entry] : entries_) {
      Sample s;
      s.type = entry.type;
      s.name = key.name;
      s.labels = key.labels;
      s.help = entry.help;
      switch (entry.type) {
        case MetricType::kCounter:
          s.counter_value = entry.counter ? entry.counter->value() : 0;
          break;
        case MetricType::kGauge:
          s.gauge_value = entry.gauge ? entry.gauge->value() : 0;
          break;
        case MetricType::kHistogram:
          if (entry.histogram) {
            s.bounds = entry.histogram->bounds();
            s.bucket_counts = entry.histogram->bucket_counts();
            s.sum = entry.histogram->sum();
            s.count = entry.histogram->count();
          }
          break;
      }
      snap.samples.push_back(std::move(s));
    }
    to_run.reserve(collectors_.size());
    for (const CollectorEntry& c : collectors_) {
      if (!c.deterministic && !include_volatile) continue;
      to_run.push_back(c.fn);
    }
  }
  SampleList list(&snap.samples);
  for (const Collector& fn : to_run) fn(list);
  std::stable_sort(snap.samples.begin(), snap.samples.end(),
                   [](const Sample& a, const Sample& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });
  return snap;
}

}  // namespace edc::obs
