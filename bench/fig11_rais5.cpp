// Fig. 11 — average response time normalized to Native on a software
// RAIS5 array of five SSDs. Paper shape: same ordering as the single-SSD
// case (Fig. 10), validating EDC across device organizations.
#include <cstdio>

#include "bench_util.hpp"

using namespace edc;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::ParseArgs(argc, argv);
  std::printf("Fig. 11 — average response time on RAIS5 (5 SSDs), "
              "normalized to Native\n");

  auto tweak = [&opt](core::StackConfig& cfg) {
    auto& rais = cfg.device.emplace<ssd::RaisConfig>();
    rais.level = ssd::RaisLevel::kRais5;
    rais.num_disks = 5;
    rais.chunk_pages = 8;
    // Keep total array capacity comparable to the single-SSD runs.
    rais.member =
        ssd::MakeX25eConfig(opt.device_mib / 4, /*store_data=*/false);
  };

  auto matrix = bench::RunMatrix(opt, core::AllSchemes(), tweak);
  if (!matrix.ok()) {
    std::fprintf(stderr, "error: %s\n", matrix.status().ToString().c_str());
    return 1;
  }
  bench::PrintNormalized(*matrix, "Mean response time vs Native (RAIS5)",
                         [](const sim::ReplayResult& r) {
                           return r.response_us.mean();
                         });
  bench::PrintAbsolute(*matrix, "Mean response time (RAIS5)", "ms",
                       [](const sim::ReplayResult& r) {
                         return r.mean_response_ms();
                       });
  std::printf("\nExpected shape: same ordering as Fig. 10 — "
              "Bzip2 >> Gzip >> Lzf ~ Native; EDC best (paper Fig. 11).\n");
  return 0;
}
