// Trace replay: run any of the paper's workloads (or a real SPC/MSR trace
// file) through a chosen scheme and print the paper's metrics.
//
//   $ ./trace_replay --trace=Fin1 --scheme=edc --seconds=30
//   $ ./trace_replay --trace-file=/path/to/Financial1.spc --scheme=gzip
//
// Schemes: native | lzf | gzip | bzip2 | edc. --threads=N attaches a real
// worker pool: modeled runs calibrate the cost model in parallel,
// functional runs offload the codec work (results are identical either
// way — see docs/simulator.md).
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "codec/backend.hpp"
#include "common/worker_pool.hpp"
#include "obs/observer.hpp"
#include "sim/replay.hpp"
#include "trace/parser.hpp"
#include "trace/synthetic.hpp"

using namespace edc;

namespace {

struct Options {
  std::string trace = "Fin1";
  std::string trace_file;
  std::string scheme = "edc";
  double seconds = 30.0;
  u64 seed = 42;
  bool functional = false;
  u32 threads = 0;  // 0 = hardware concurrency
  std::string metrics_out;   // metrics snapshot as JSON
  std::string metrics_prom;  // metrics snapshot as Prometheus text
  std::string trace_out;     // Chrome trace-event JSON (Perfetto)
  std::string trace_filter;  // comma-separated trace categories

  // Continuous telemetry (docs/observability.md#continuous-telemetry).
  std::string timeseries_out;   // edc-timeseries-v1 JSON
  std::string timeseries_csv;   // same store as CSV
  double sample_period_ms = 0;  // >0 also enables the sampler
  u64 sampler_retention = 0;    // ring size in windows (0 = unbounded)
  std::string postmortem_dir;   // arm the flight recorder, bundles here
  std::string health_rules;     // rules file path, or "default"
  std::string health_out;       // edc-health-v1 report JSON

  // Deterministic fault knobs so CI can provoke flight-recorder
  // triggers without a bespoke harness.
  double inject_program_fail = 0;  // ssd fault p_program_fail
  u32 breaker_budget = 0;          // engine error budget (0 = off)
  // Raw device size in MiB, despite the flag's name.
  u32 device_blocks = 8192;
  bool durable = false;            // durable format + journal + retries

  // Sharded multi-tenant replay (edc/shard.hpp): >1 shard or tenant
  // routes the trace through the async submission fabric.
  u32 shards = 1;
  u32 tenants = 1;
};

// A positive decimal count that fits in u32; anything else (empty, signs,
// trailing characters, zero, overflow) is rejected.
bool ParsePositiveU32(const char* s, u32* out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE || v == 0 || v > UINT32_MAX) {
    return false;
  }
  *out = static_cast<u32>(v);
  return true;
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--trace=", 8) == 0) o.trace = a + 8;
    else if (std::strncmp(a, "--trace-file=", 13) == 0) o.trace_file = a + 13;
    else if (std::strncmp(a, "--scheme=", 9) == 0) o.scheme = a + 9;
    else if (std::strncmp(a, "--seconds=", 10) == 0) o.seconds = std::atof(a + 10);
    else if (std::strncmp(a, "--seed=", 7) == 0) o.seed = static_cast<u64>(std::atoll(a + 7));
    else if (std::strcmp(a, "--functional") == 0) o.functional = true;
    else if (std::strncmp(a, "--threads=", 10) == 0) o.threads = static_cast<u32>(std::atoi(a + 10));
    else if (std::strncmp(a, "--metrics-out=", 14) == 0) o.metrics_out = a + 14;
    else if (std::strncmp(a, "--metrics-prom=", 15) == 0) o.metrics_prom = a + 15;
    else if (std::strncmp(a, "--trace-out=", 12) == 0) o.trace_out = a + 12;
    else if (std::strncmp(a, "--trace-filter=", 15) == 0) o.trace_filter = a + 15;
    else if (std::strncmp(a, "--timeseries-out=", 17) == 0) o.timeseries_out = a + 17;
    else if (std::strncmp(a, "--timeseries-csv=", 17) == 0) o.timeseries_csv = a + 17;
    else if (std::strncmp(a, "--sample-period-ms=", 19) == 0) o.sample_period_ms = std::atof(a + 19);
    else if (std::strncmp(a, "--sampler-retention=", 20) == 0) o.sampler_retention = static_cast<u64>(std::atoll(a + 20));
    else if (std::strncmp(a, "--postmortem-dir=", 17) == 0) o.postmortem_dir = a + 17;
    else if (std::strncmp(a, "--health-rules=", 15) == 0) o.health_rules = a + 15;
    else if (std::strncmp(a, "--health-out=", 13) == 0) o.health_out = a + 13;
    else if (std::strncmp(a, "--inject-program-fail=", 22) == 0) o.inject_program_fail = std::atof(a + 22);
    else if (std::strncmp(a, "--breaker-budget=", 17) == 0) o.breaker_budget = static_cast<u32>(std::atoi(a + 17));
    else if (std::strncmp(a, "--device-blocks=", 16) == 0) {
      if (!ParsePositiveU32(a + 16, &o.device_blocks)) {
        std::fprintf(stderr,
                     "--device-blocks wants a positive MiB count, got '%s'\n",
                     a + 16);
        std::exit(2);
      }
    }
    else if (std::strcmp(a, "--durable") == 0) o.durable = true;
    else if (std::strncmp(a, "--shards=", 9) == 0) o.shards = static_cast<u32>(std::atoi(a + 9));
    else if (std::strncmp(a, "--tenants=", 10) == 0) o.tenants = static_cast<u32>(std::atoi(a + 10));
    else {
      std::fprintf(stderr,
                   "usage: trace_replay [--trace=Fin1|Fin2|Usr_0|Prxy_0] "
                   "[--trace-file=PATH]\n"
                   "                    [--scheme=native|lzf|gzip|bzip2|edc] "
                   "[--seconds=N] [--seed=N] [--functional] [--threads=N]\n"
                   "                    [--metrics-out=PATH.json] "
                   "[--metrics-prom=PATH.prom]\n"
                   "                    [--trace-out=PATH.json] "
                   "[--trace-filter=cat1,cat2,...]\n"
                   "                    [--timeseries-out=PATH.json] "
                   "[--timeseries-csv=PATH.csv]\n"
                   "                    [--sample-period-ms=N] "
                   "[--sampler-retention=N]\n"
                   "                    [--postmortem-dir=DIR] "
                   "[--health-rules=PATH|default] [--health-out=PATH.json]\n"
                   "                    [--inject-program-fail=P] "
                   "[--breaker-budget=N] [--device-blocks=MiB] [--durable]\n"
                   "                    [--shards=N] [--tenants=M]\n");
      std::exit(2);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = Parse(argc, argv);

  // --- Load or synthesize the workload --------------------------------
  trace::Trace t;
  std::string profile = "usr";
  if (!o.trace_file.empty()) {
    std::ifstream in(o.trace_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", o.trace_file.c_str());
      return 1;
    }
    std::string first;
    std::getline(in, first);
    auto format = trace::DetectFormat(first);
    if (!format.ok()) {
      std::fprintf(stderr, "%s\n", format.status().ToString().c_str());
      return 1;
    }
    in.seekg(0);
    auto parsed = trace::ParseTrace(in, *format, o.trace_file);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    t = std::move(*parsed);
  } else {
    auto params = trace::PresetByName(o.trace, o.seconds);
    if (!params.ok()) {
      std::fprintf(stderr, "%s\n", params.status().ToString().c_str());
      return 1;
    }
    t = GenerateSynthetic(*params, o.seed);
    auto p = trace::ContentProfileForTrace(o.trace);
    if (p.ok()) profile = *p;
  }
  trace::TraceStats ts = ComputeStats(t);
  std::printf("trace %s: %llu requests, %.0f s, %.1f%% writes, "
              "%.1f KB avg, burstiness %.1fx\n",
              t.name.c_str(),
              static_cast<unsigned long long>(ts.total_requests),
              ts.duration_s, ts.write_ratio * 100, ts.avg_request_kb,
              ts.burstiness);

  // --- Build the stack --------------------------------------------------
  auto scheme = core::SchemeFromName(o.scheme);
  if (!scheme.ok()) {
    std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
    return 1;
  }
  core::StackConfig cfg;
  cfg.scheme = *scheme;
  cfg.mode = o.functional ? core::ExecutionMode::kFunctional
                          : core::ExecutionMode::kModeled;
  cfg.content_profile = profile;
  cfg.seed = o.seed;
  // Program-failure survival needs the durable on-flash format: retries
  // relocate-and-rewrite extents, which requires store_data + the journal.
  const bool durable = o.durable || o.inject_program_fail > 0;
  cfg.ssd = ssd::MakeX25eConfig(o.device_blocks, /*store_data=*/durable);
  if (o.inject_program_fail > 0) {
    cfg.ssd.fault.p_program_fail = o.inject_program_fail;
    cfg.ssd.fault.seed = o.seed + 1;
  }
  if (durable) cfg.durability.enabled = true;
  cfg.breaker_error_budget = o.breaker_budget;

  // Health rules: a file in the ParseHealthRules grammar, or the
  // built-in set via --health-rules=default.
  std::string health_rules_text;
  if (!o.health_rules.empty()) {
    if (o.health_rules == "default") {
      health_rules_text = obs::DefaultHealthRules();
    } else {
      std::ifstream in(o.health_rules);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", o.health_rules.c_str());
        return 1;
      }
      health_rules_text.assign(std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>());
    }
  }

  // Observability is opt-in: construct the observer only when an export
  // flag asks for it (the null fast path costs nothing otherwise). The
  // sampler rides on metrics, the flight recorder on trace.
  const bool want_sampler = !o.timeseries_out.empty() ||
                            !o.timeseries_csv.empty() ||
                            o.sample_period_ms > 0 ||
                            !health_rules_text.empty() ||
                            !o.postmortem_dir.empty();
  const bool want_flight = !o.postmortem_dir.empty();
  const bool want_metrics = !o.metrics_out.empty() ||
                            !o.metrics_prom.empty() || want_sampler;
  const bool want_trace = !o.trace_out.empty() || want_flight;
  std::unique_ptr<obs::Observer> observer;
  if (want_metrics || want_trace) {
    obs::Observer::Options oo;
    oo.metrics = want_metrics;
    oo.trace = want_trace;
    oo.trace_filter = o.trace_filter;
    oo.sampler = want_sampler;
    if (o.sample_period_ms > 0) {
      oo.sample_period = static_cast<SimTime>(o.sample_period_ms *
                                              kMillisecond);
    }
    oo.sampler_retention = o.sampler_retention;
    oo.flight_recorder = want_flight;
    oo.health_rules = health_rules_text;
    observer = std::make_unique<obs::Observer>(oo);
    if (!observer->ok()) {
      std::fprintf(stderr, "observer: %s\n", observer->error().c_str());
      return 1;
    }
    cfg.obs = observer.get();
  }

  // Stream each postmortem bundle to --postmortem-dir as it fires;
  // names are deterministic (postmortem-<seq>-<trigger>.json).
  bool postmortem_write_failed = false;
  if (observer != nullptr && observer->flight_recorder() != nullptr) {
    std::error_code ec;
    std::filesystem::create_directories(o.postmortem_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", o.postmortem_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
    observer->flight_recorder()->SetSink(
        [&o, &postmortem_write_failed](
            const obs::FlightRecorder::Bundle& b) {
          std::string name = b.trigger;
          for (char& c : name) {
            if (c == '.') c = '-';
          }
          std::string path = o.postmortem_dir + "/postmortem-" +
                             std::to_string(b.seq) + "-" + name + ".json";
          std::ofstream out(path, std::ios::binary);
          if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            postmortem_write_failed = true;
            return;
          }
          out << b.json;
          std::printf("  postmortem         : %s -> %s\n",
                      b.trigger.c_str(), path.c_str());
        });
  }

  u32 threads = o.threads != 0 ? o.threads
                               : std::max(std::thread::hardware_concurrency(),
                                          1u);
  WorkerPool pool(threads);
  std::shared_ptr<const core::CostModel> model;
  if (cfg.mode == core::ExecutionMode::kModeled) {
    std::printf("calibrating cost model (runs the real codecs, "
                "%u threads)...\n", threads);
    auto calibrated = core::Stack::CalibrateCostModel(cfg, &pool);
    if (!calibrated.ok()) {
      std::fprintf(stderr, "%s\n",
                   calibrated.status().ToString().c_str());
      return 1;
    }
    model = *calibrated;
  } else if (threads > 1) {
    cfg.compress_pool = &pool;  // offload functional codec work
  }
  if (observer != nullptr) observer->AttachWorkerPool(&pool);

  // --- Replay and report -----------------------------------------------
  const bool sharded = o.shards > 1 || o.tenants > 1;
  std::unique_ptr<core::Stack> stack;  // single-engine path only
  sim::ReplayResult replayed;
  if (sharded) {
    sim::ShardedReplayOptions so;
    so.shards = o.shards;
    so.tenants = o.tenants;
    auto result = sim::ReplayShardedTrace(cfg, t, so);
    if (!result.ok()) {
      std::fprintf(stderr, "replay: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    replayed = std::move(*result);
  } else {
    auto built = core::Stack::Create(cfg, model);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    stack = std::move(*built);
    auto result = sim::ReplayTrace(*stack, t);
    if (!result.ok()) {
      std::fprintf(stderr, "replay: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    replayed = std::move(*result);
  }
  const sim::ReplayResult* result = &replayed;
  std::printf("\nscheme %s on %s:\n", result->scheme_name.c_str(),
              result->trace_name.c_str());
  std::printf("  codec backend      : %s (pack_flush %s)\n",
              codec::ActiveBackend().name, codec::PackFlushProvenance());
  if (sharded) {
    std::printf("  sharding           : %u shards, %u tenants\n",
                o.shards, o.tenants);
  }
  std::printf("  mean response time : %.3f ms (p50 %.2f / p95 %.2f / "
              "p99 %.2f us)\n",
              result->mean_response_ms(), result->p50_us, result->p95_us,
              result->p99_us);
  std::printf("  write / read mean  : %.2f / %.2f us\n",
              result->write_response_us.mean(),
              result->read_response_us.mean());
  std::printf("  write percentiles  : p50 %.2f / p95 %.2f / p99 %.2f us\n",
              result->write_p50_us, result->write_p95_us,
              result->write_p99_us);
  std::printf("  read percentiles   : p50 %.2f / p95 %.2f / p99 %.2f us\n",
              result->read_p50_us, result->read_p95_us,
              result->read_p99_us);
  std::printf("  compression ratio  : %.3fx (%.1f%% space saved)\n",
              result->compression_ratio, result->space_saving() * 100);
  std::printf("  ratio / time       : %.3f\n", result->ratio_over_time());
  std::printf("  device             : %llu pages written, WAF %.2f, "
              "%llu erases (max wear %u)\n",
              static_cast<unsigned long long>(
                  result->device.host_pages_written),
              result->device.waf,
              static_cast<unsigned long long>(result->device.total_erases),
              result->device.max_erase_count);

  // --- Observability exports -------------------------------------------
  auto write_file = [](const std::string& path,
                       const std::string& body) -> bool {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << body;
    return true;
  };
  if (observer != nullptr) {
    obs::MetricsSnapshot snap = result->metrics;
    if (!o.metrics_out.empty()) {
      if (!write_file(o.metrics_out, snap.ToJson())) return 1;
      std::printf("  metrics            : %zu samples -> %s\n",
                  snap.samples.size(), o.metrics_out.c_str());
    }
    if (!o.metrics_prom.empty()) {
      if (!write_file(o.metrics_prom, snap.ToPrometheus())) return 1;
      std::printf("  metrics (prom)     : -> %s\n", o.metrics_prom.c_str());
    }
    if (!o.trace_out.empty()) {
      const obs::TraceRecorder* rec = observer->trace();
      if (!write_file(o.trace_out, rec->ToJson())) return 1;
      std::printf("  trace              : %zu events -> %s "
                  "(load in ui.perfetto.dev)\n",
                  rec->event_count(), o.trace_out.c_str());
    }
    if (const obs::TimeSeriesSampler* s = observer->sampler()) {
      if (!o.timeseries_out.empty()) {
        if (!write_file(o.timeseries_out, s->ToJson())) return 1;
        std::printf("  timeseries         : %llu windows x %zu series "
                    "-> %s\n",
                    static_cast<unsigned long long>(
                        s->windows_completed()),
                    s->AllSeries().size(), o.timeseries_out.c_str());
      }
      if (!o.timeseries_csv.empty()) {
        if (!write_file(o.timeseries_csv, s->ToCsv())) return 1;
        std::printf("  timeseries (csv)   : -> %s\n",
                    o.timeseries_csv.c_str());
      }
    }
    if (observer->watchdog() != nullptr) {
      const obs::HealthWatchdog::Report& health = result->health;
      std::printf("  health             : %s (%zu events over %llu "
                  "windows)\n",
                  health.healthy() ? "ok" : "ALERTS",
                  health.events.size(),
                  static_cast<unsigned long long>(
                      health.windows_evaluated));
      if (!o.health_out.empty()) {
        if (!write_file(o.health_out, health.ToJson())) return 1;
      }
    }
    if (const obs::FlightRecorder* fr = observer->flight_recorder()) {
      std::printf("  flight recorder    : %zu postmortem bundle(s)\n",
                  fr->bundles().size());
      if (postmortem_write_failed) return 1;
    }
  }
  return 0;
}
