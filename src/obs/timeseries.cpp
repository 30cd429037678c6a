#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace edc::obs {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// CSV cell escaping: quote when the cell contains a comma or a quote,
/// doubling embedded quotes (RFC 4180).
std::string CsvCell(const std::string& s) {
  if (s.find(',') == std::string::npos &&
      s.find('"') == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

double TimeSeriesSampler::Series::LevelAt(std::size_t rel) const {
  if (rel >= values.size()) return kNaN;
  if (!counter) return values[rel];
  // Counters store per-window deltas; the cumulative value at window
  // `rel` is the final cumulative minus every delta after it.
  double level = cumulative;
  for (std::size_t i = rel + 1; i < values.size(); ++i) level -= values[i];
  return level;
}

double TimeSeriesSampler::Series::DeltaAt(std::size_t rel) const {
  if (rel >= values.size()) return kNaN;
  if (counter) return values[rel];
  // Gauge change across the window. The first retained window has no
  // predecessor: treat the pre-history value as 0 so rate rules on
  // gauges that start at 0 behave intuitively.
  return rel == 0 ? values[0] : values[rel] - values[rel - 1];
}

TimeSeriesSampler::TimeSeriesSampler(const SamplerConfig& config,
                                     const MetricRegistry* registry)
    : config_(config), registry_(registry) {
  if (config_.period <= 0) config_.period = 100 * kMillisecond;
}

SimTime TimeSeriesSampler::WindowEnd(u64 w) const {
  if (w < first_retained_) return 0;
  std::size_t rel = static_cast<std::size_t>(w - first_retained_);
  return rel < window_ends_.size() ? window_ends_[rel] : 0;
}

u64 TimeSeriesSampler::AdvanceTo(SimTime now) {
  if (finalized_ || NextBoundary() > now) return 0;
  // One registry snapshot serves every window this call closes: the
  // simulation was idle across a run of boundaries, so all state change
  // since the previous sample lands in the first of them and the rest
  // are replicas (zero deltas, held gauges).
  MetricsSnapshot snap = registry_->Snapshot();
  u64 closed = 0;
  while (NextBoundary() <= now) {
    SimTime end = NextBoundary();
    ++windows_completed_;
    AppendWindow(snap, end, /*empty=*/closed != 0);
    ++closed;
  }
  return closed;
}

bool TimeSeriesSampler::ForceWindow(SimTime now) {
  if (finalized_) return false;
  AdvanceTo(now);
  finalized_ = true;
  SimTime last_end =
      static_cast<SimTime>(windows_completed_) * config_.period;
  if (now <= last_end && windows_completed_ > 0) return false;
  MetricsSnapshot snap = registry_->Snapshot();
  ++windows_completed_;
  AppendWindow(snap, now > last_end ? now : last_end, /*empty=*/false);
  return true;
}

TimeSeriesSampler::Series* TimeSeriesSampler::FindOrCreate(
    const std::string& name, const LabelSet& labels, bool counter,
    bool quantile) {
  Key key{name, labels};
  auto it = series_.find(key);
  if (it != series_.end()) return &it->second;
  Series s;
  s.name = name;
  s.labels = labels;
  s.counter = counter;
  s.quantile = quantile;
  // Backfill windows from before the series first appeared: zero for
  // counters and gauges, NaN for quantile columns (no observations).
  s.values.assign(window_ends_.size(), quantile ? kNaN : 0.0);
  return &series_.emplace(std::move(key), std::move(s)).first->second;
}

void TimeSeriesSampler::AppendWindow(const MetricsSnapshot& snap,
                                     SimTime end, bool empty) {
  window_ends_.push_back(end);
  for (auto& [key, s] : series_) {
    if (s.counter) {
      s.values.push_back(0.0);
    } else if (s.quantile) {
      s.values.push_back(kNaN);
    } else {
      s.values.push_back(s.values.empty() ? 0.0 : s.values.back());
    }
  }
  if (!empty) {
    for (const Sample& sample : snap.samples) {
      switch (sample.type) {
        case MetricType::kCounter: {
          Series* s = FindOrCreate(sample.name, sample.labels, true);
          double v = static_cast<double>(sample.counter_value);
          s->values.back() = v - s->cumulative;
          s->cumulative = v;
          break;
        }
        case MetricType::kGauge: {
          Series* s = FindOrCreate(sample.name, sample.labels, false);
          s->values.back() = sample.gauge_value;
          break;
        }
        case MetricType::kHistogram: {
          Series* cnt =
              FindOrCreate(sample.name + ":count", sample.labels, true);
          Series* sum =
              FindOrCreate(sample.name + ":sum", sample.labels, true);
          std::vector<u64> delta = sample.bucket_counts;
          if (cnt->last_buckets.size() == delta.size()) {
            for (std::size_t i = 0; i < delta.size(); ++i) {
              delta[i] -= cnt->last_buckets[i];
            }
          }
          cnt->values.back() =
              static_cast<double>(sample.count) - cnt->cumulative;
          cnt->cumulative = static_cast<double>(sample.count);
          cnt->last_buckets = sample.bucket_counts;
          sum->values.back() = sample.sum - sum->cumulative;
          sum->cumulative = sample.sum;
          Series* p50 = FindOrCreate(sample.name + ":p50", sample.labels,
                                     false, /*quantile=*/true);
          Series* p99 = FindOrCreate(sample.name + ":p99", sample.labels,
                                     false, /*quantile=*/true);
          p50->values.back() = WindowQuantile(sample.bounds, delta, 0.50);
          p99->values.back() = WindowQuantile(sample.bounds, delta, 0.99);
          break;
        }
      }
    }
  }
  if (config_.retention_windows > 0 &&
      window_ends_.size() > config_.retention_windows) {
    window_ends_.erase(window_ends_.begin());
    for (auto& [key, s] : series_) {
      if (!s.values.empty()) s.values.erase(s.values.begin());
    }
    ++first_retained_;
  }
}

double TimeSeriesSampler::WindowQuantile(
    const std::vector<double>& bounds,
    const std::vector<u64>& delta_counts, double q) {
  u64 total = 0;
  for (u64 c : delta_counts) total += c;
  if (total == 0 || bounds.empty()) return kNaN;
  double rank = q * static_cast<double>(total);
  u64 cumulative = 0;
  for (std::size_t i = 0; i < delta_counts.size(); ++i) {
    u64 prev = cumulative;
    cumulative += delta_counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) return bounds.back();  // +Inf bucket: clamp
    double lower = i == 0 ? 0.0 : bounds[i - 1];
    double upper = bounds[i];
    if (delta_counts[i] == 0) return upper;
    double frac =
        (rank - static_cast<double>(prev)) /
        static_cast<double>(delta_counts[i]);
    return lower + (upper - lower) * frac;
  }
  return bounds.back();
}

const TimeSeriesSampler::Series* TimeSeriesSampler::Find(
    const std::string& name, const LabelSet& labels) const {
  auto it = series_.find(Key{name, labels});
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<const TimeSeriesSampler::Series*>
TimeSeriesSampler::AllSeries() const {
  std::vector<const Series*> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) out.push_back(&s);
  return out;  // map order == (name, labels) order
}

std::string TimeSeriesSampler::ToJson(std::size_t last_n) const {
  std::size_t n = window_ends_.size();
  std::size_t skip = (last_n != 0 && last_n < n) ? n - last_n : 0;
  u64 first = first_retained_ + skip;
  std::string out = "{\"schema\":\"edc-timeseries-v1\",\"period_ns\":" +
                    std::to_string(config_.period) +
                    ",\"first_window\":" + std::to_string(first) +
                    ",\"windows\":" + std::to_string(n - skip) +
                    ",\"window_end_ns\":[";
  for (std::size_t i = skip; i < n; ++i) {
    if (i != skip) out += ',';
    out += std::to_string(window_ends_[i]);
  }
  out += "],\"series\":[";
  bool first_series = true;
  for (const auto& [key, s] : series_) {
    if (!first_series) out += ',';
    first_series = false;
    out += "{\"name\":\"" + JsonEscape(s.name) + "\",\"labels\":{";
    bool fl = true;
    for (const auto& [k, v] : s.labels) {
      if (!fl) out += ',';
      fl = false;
      out.append("\"").append(JsonEscape(k)).append("\":\"");
      out.append(JsonEscape(v)).append("\"");
    }
    out += "},\"kind\":\"";
    out += s.counter ? "counter" : "gauge";
    out += "\",\"values\":[";
    for (std::size_t i = skip; i < s.values.size(); ++i) {
      if (i != skip) out += ',';
      out += JsonNumber(s.values[i]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TimeSeriesSampler::ToCsv() const {
  std::string out = "window,end_ns";
  for (const auto& [key, s] : series_) {
    std::string col = s.name;
    if (!s.labels.empty()) {
      col += "{";
      bool fl = true;
      for (const auto& [k, v] : s.labels) {
        if (!fl) col += ',';
        fl = false;
        col += k + "=" + v;
      }
      col += "}";
    }
    out += ',';
    out += CsvCell(col);
  }
  out += '\n';
  for (std::size_t rel = 0; rel < window_ends_.size(); ++rel) {
    out += std::to_string(first_retained_ + rel);
    out += ',';
    out += std::to_string(window_ends_[rel]);
    for (const auto& [key, s] : series_) {
      out += ',';
      out += rel < s.values.size() ? FormatDouble(s.values[rel])
                                   : std::string("NaN");
    }
    out += '\n';
  }
  return out;
}

}  // namespace edc::obs
