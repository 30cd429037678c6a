// RAIS array demo: EDC on a software RAIS5 of five simulated SSDs (the
// paper's multi-device configuration), showing striping, parity cost and
// per-member wear.
//
//   $ ./raid_array [--disks=5] [--level=0|5] [--seconds=20]
#include <cstdio>
#include <cstring>

#include "sim/replay.hpp"
#include "trace/synthetic.hpp"

using namespace edc;

int main(int argc, char** argv) {
  u32 disks = 5;
  int level = 5;
  double seconds = 20.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--disks=", 8) == 0) {
      disks = static_cast<u32>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--level=", 8) == 0) {
      level = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
    }
  }
  if (disks < 2 || (level != 0 && level != 5)) {
    std::fprintf(stderr, "need --disks>=2 and --level=0|5\n");
    return 2;
  }

  auto params = trace::PresetByName("Usr_0", seconds);
  if (!params.ok()) return 1;
  trace::Trace t = GenerateSynthetic(*params, 11);

  core::StackConfig cfg;
  cfg.scheme = core::Scheme::kEdc;
  cfg.mode = core::ExecutionMode::kModeled;
  cfg.content_profile = "usr";
  auto& array = cfg.device.emplace<ssd::RaisConfig>();
  array.level = level == 5 ? ssd::RaisLevel::kRais5 : ssd::RaisLevel::kRais0;
  array.num_disks = disks;
  array.chunk_pages = 8;
  array.member = ssd::MakeX25eConfig(2048, /*store_data=*/false);

  std::printf("RAIS%d over %u simulated X25-E SSDs, EDC scheme, "
              "Usr_0 workload (%.0f s)\n",
              level, disks, seconds);
  std::printf("calibrating cost model...\n");
  auto stack = core::Stack::Create(cfg);
  if (!stack.ok()) {
    std::fprintf(stderr, "%s\n", stack.status().ToString().c_str());
    return 1;
  }

  auto result = sim::ReplayTrace(**stack, t);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nmean response time : %.3f ms\n",
              result->mean_response_ms());
  std::printf("compression ratio  : %.3fx\n", result->compression_ratio);
  std::printf("array pages written: %llu (WAF %.2f)\n",
              static_cast<unsigned long long>(
                  result->device.host_pages_written),
              result->device.waf);

  auto* rais = dynamic_cast<ssd::Rais*>(&(*stack)->device());
  if (rais != nullptr) {
    std::printf("\nper-member wear:\n");
    for (u32 i = 0; i < rais->num_disks(); ++i) {
      ssd::DeviceStats m = rais->member(i).stats();
      std::printf("  disk %u: %8llu pages written, %6llu erases, "
                  "max wear %u\n",
                  i,
                  static_cast<unsigned long long>(m.host_pages_written),
                  static_cast<unsigned long long>(m.total_erases),
                  m.max_erase_count);
    }
    if (level == 5) {
      std::printf("\nNote: RAIS5 write traffic includes the rotating-"
                  "parity read-modify-write\n(two programs per data page), "
                  "spread evenly by the left-symmetric layout.\n");
    }
  }
  return 0;
}
