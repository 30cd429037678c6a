// Extension — HDD-based storage (the paper's future-work item #2): the
// same scheme comparison on a simulated 7200 rpm disk. On spinning media
// positioning dominates small random I/O, so compression's transfer-time
// saving matters less and the heavy codecs hurt relatively less than on
// the SSD — but the space-saving column is unchanged.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "trace/transform.hpp"

using namespace edc;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::ParseArgs(argc, argv);
  // An HDD serves ~100 random IOPS; the SSD-class traces would saturate
  // it, so the offered load is scaled down to the disk's operating range.
  const double kLoadScale = 0.05;
  std::printf("Extension — EDC on an HDD (7200 rpm, avg seek 8.5 ms; "
              "offered load x%.2f)\n", kLoadScale);

  bench::Matrix matrix;
  matrix.schemes = core::AllSchemes();
  for (trace::Trace& base : bench::PaperTraces(opt)) {
    trace::Trace t = trace::TimeScale(base, kLoadScale);
    t.name = base.name;  // keep the content-profile mapping
    matrix.traces.push_back(t.name);
    for (core::Scheme scheme : matrix.schemes) {
      auto cell = bench::RunCell(
          t, scheme, opt, [](core::StackConfig& cfg) {
            cfg.device.emplace<ssd::HddConfig>().num_pages =
                1u << 21;  // 8 GiB
          });
      if (!cell.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     cell.status().ToString().c_str());
        return 1;
      }
      matrix.cells[t.name].emplace(scheme, std::move(*cell));
    }
  }
  bench::PrintNormalized(matrix, "Mean response time vs Native (HDD)",
                         [](const sim::ReplayResult& r) {
                           return r.response_us.mean();
                         });
  bench::PrintAbsolute(matrix, "Mean response time (HDD)", "ms",
                       [](const sim::ReplayResult& r) {
                         return r.mean_response_ms();
                       });
  bench::PrintNormalized(matrix, "Compression ratio vs Native (HDD)",
                         [](const sim::ReplayResult& r) {
                           return r.compression_ratio;
                         });
  std::printf("\nExpected shape: scheme gaps shrink versus Fig. 10 — "
              "positioning dominates small\nrandom I/O, so codec latency "
              "matters relatively less — while the space savings match\n"
              "the SSD results.\n");
  return 0;
}
