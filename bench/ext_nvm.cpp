// Extension — NVM-based storage (the paper's future-work item #2, NVM
// half): the scheme comparison on a storage-class-memory device with
// microsecond latencies. Here the device is faster than every codec, so
// inline compression costs latency on every trace — the crossover the
// paper's own SSD results only hint at. Space savings are unchanged.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"

using namespace edc;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::ParseArgs(argc, argv);
  std::printf("Extension — EDC on NVM (1/3 us read/write latency, "
              "2 GB/s)\n");

  auto matrix = bench::RunMatrix(
      opt, core::AllSchemes(), [](core::StackConfig& cfg) {
        cfg.device.emplace<ssd::NvmConfig>().num_pages = 1u << 21;
      });
  if (!matrix.ok()) {
    std::fprintf(stderr, "error: %s\n", matrix.status().ToString().c_str());
    return 1;
  }
  bench::PrintNormalized(*matrix, "Mean response time vs Native (NVM)",
                         [](const sim::ReplayResult& r) {
                           return r.response_us.mean();
                         });
  bench::PrintAbsolute(*matrix, "Mean response time (NVM)", "ms",
                       [](const sim::ReplayResult& r) {
                         return r.mean_response_ms();
                       });
  bench::PrintNormalized(*matrix, "Compression ratio vs Native (NVM)",
                         [](const sim::ReplayResult& r) {
                           return r.compression_ratio;
                         });
  std::printf("\nExpected shape: the device no longer hides codec latency "
              "— even Lzf costs\nmeasurable response time, Gzip/Bzip2 are "
              "much worse, and EDC approaches Native by\nwriting through "
              "under load; only the space columns still favor "
              "compression.\n");
  return 0;
}
