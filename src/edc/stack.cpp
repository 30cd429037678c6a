#include "edc/stack.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <variant>

namespace edc::core {

Result<std::shared_ptr<const CostModel>> Stack::CalibrateCostModel(
    const StackConfig& config, WorkerPool* pool) {
  auto profile = datagen::ProfileByName(config.content_profile);
  if (!profile.ok()) return profile.status();
  datagen::ContentGenerator generator(*profile, config.seed);
  return std::make_shared<const CostModel>(
      CostModel::Calibrate(generator, {}, pool));
}

namespace {

/// One of n equal slices of the configured device: 1/n of its raw
/// capacity, floored at 4 flash blocks (per member) for SSD/RAIS and at
/// 64 pages for HDD/NVM. Sets `*store_data` to whether the device keeps
/// the bytes written to it.
std::unique_ptr<ssd::Device> MakeDeviceSlice(const StackConfig& config,
                                             u32 n, bool* store_data) {
  return std::visit(
      [&](auto kind) -> std::unique_ptr<ssd::Device> {
        using Kind = decltype(kind);
        if constexpr (std::is_same_v<Kind, std::monostate>) {
          ssd::SsdConfig sc = config.ssd;
          sc.geometry.num_blocks =
              std::max<u32>(4, sc.geometry.num_blocks / n);
          *store_data = sc.store_data;
          return std::make_unique<ssd::Ssd>(sc);
        } else if constexpr (std::is_same_v<Kind, ssd::RaisConfig>) {
          kind.member.geometry.num_blocks =
              std::max<u32>(4, kind.member.geometry.num_blocks / n);
          *store_data = kind.member.store_data;
          return std::make_unique<ssd::Rais>(kind);
        } else if constexpr (std::is_same_v<Kind, ssd::HddConfig>) {
          kind.num_pages = std::max<u64>(64, kind.num_pages / n);
          *store_data = kind.store_data;
          return std::make_unique<ssd::Hdd>(kind);
        } else {
          static_assert(std::is_same_v<Kind, ssd::NvmConfig>);
          kind.num_pages = std::max<u64>(64, kind.num_pages / n);
          *store_data = kind.store_data;
          return std::make_unique<ssd::Nvm>(kind);
        }
      },
      config.device);
}

}  // namespace

Result<StackParts> BuildStackParts(
    const StackConfig& config, u32 n,
    std::shared_ptr<const CostModel> shared_cost_model) {
  if (n < 1) n = 1;
  auto profile = datagen::ProfileByName(config.content_profile);
  if (!profile.ok()) return profile.status();
  if (config.durability.enabled &&
      config.mode != ExecutionMode::kFunctional) {
    return Status::InvalidArgument(
        "stack: durable mode requires functional execution");
  }

  StackParts parts;
  bool store_data = false;
  parts.devices.reserve(n);
  // Device tables are sized by capacity: an oversized device must fail
  // this call, not abort the process.
  try {
    for (u32 i = 0; i < n; ++i) {
      parts.devices.push_back(MakeDeviceSlice(config, n, &store_data));
    }
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "stack: not enough memory for the configured device capacity");
  } catch (const std::length_error&) {
    return Status::ResourceExhausted(
        "stack: configured device capacity exceeds addressable memory");
  }
  if (config.durability.enabled && !store_data) {
    return Status::InvalidArgument(
        "stack: durable mode requires a data-retaining device "
        "(store_data = true)");
  }

  parts.generator =
      std::make_unique<datagen::ContentGenerator>(*profile, config.seed);
  if (shared_cost_model != nullptr) {
    parts.cost_model = std::move(shared_cost_model);
  } else if (config.mode == ExecutionMode::kModeled) {
    parts.cost_model = std::make_shared<const CostModel>(
        CostModel::Calibrate(*parts.generator));
  }

  // The stack's engine options as they are, plus the one setting the
  // stack derives: SD merging is for EDC only.
  parts.engine = EngineConfig{
      config, config.scheme == Scheme::kEdc && config.use_seq_detector_for_edc};
  return parts;
}

Result<std::unique_ptr<Stack>> Stack::Create(
    const StackConfig& config,
    std::shared_ptr<const CostModel> shared_cost_model) {
  auto parts = BuildStackParts(config, 1, std::move(shared_cost_model));
  if (!parts.ok()) return parts.status();

  auto stack = std::unique_ptr<Stack>(new Stack());
  stack->config_ = config;
  stack->generator_ = std::move(parts->generator);
  stack->cost_model_ = std::move(parts->cost_model);
  stack->device_ = std::move(parts->devices[0]);
  stack->engine_ = std::make_unique<Engine>(
      parts->engine, stack->device_.get(), stack->generator_.get(),
      stack->cost_model_.get());

  if (config.obs != nullptr) {
    stack->device_->AttachObs(config.obs, obs::kDeviceTid);
    if (obs::MetricRegistry* m = config.obs->metrics()) {
      // One generic collector works for every device type because the
      // Device interface already aggregates (Rais sums its members).
      ssd::Device* dev = stack->device_.get();
      m->AddCollector([dev](obs::SampleList& out) {
        ssd::DeviceStats d = dev->stats();
        out.AddCounter("edc_device_host_pages_read_total", {},
                       d.host_pages_read, "Host pages read from flash");
        out.AddCounter("edc_device_host_pages_written_total", {},
                       d.host_pages_written, "Host pages programmed");
        out.AddCounter("edc_device_gc_pages_copied_total", {},
                       d.gc_pages_copied, "Pages relocated by GC");
        out.AddCounter("edc_device_gc_runs_total", {}, d.gc_runs,
                       "Foreground GC invocations");
        out.AddCounter("edc_device_background_reclaims_total", {},
                       d.background_reclaims, "Idle-time GC reclaims");
        out.AddCounter("edc_device_erases_total", {}, d.total_erases,
                       "Blocks erased");
        out.AddGauge("edc_device_max_erase_count", {},
                     static_cast<double>(d.max_erase_count),
                     "Hottest block's erase count (wear peak)");
        out.AddGauge("edc_device_mean_erase_count", {},
                     d.mean_erase_count, "Mean per-block erase count");
        out.AddGauge("edc_device_waf", {}, d.waf,
                     "Write amplification factor");
        out.AddGauge("edc_device_busy_seconds", {},
                     ToSeconds(d.busy_time),
                     "Simulated time the device spent serving");
        out.AddGauge("edc_device_energy_joules", {}, d.energy_j,
                     "Device energy consumed (flash ops / spindle)");
        out.AddCounter("edc_device_read_faults_total", {}, d.read_faults,
                       "Uncorrectable read errors surfaced");
        out.AddCounter("edc_device_program_faults_total", {},
                       d.program_faults, "Page program failures surfaced");
        out.AddCounter("edc_device_pages_corrupted_total", {},
                       d.pages_corrupted,
                       "Latent bit flips injected into reads");
        out.AddCounter("edc_device_reconstructed_reads_total", {},
                       d.reconstructed_reads,
                       "Pages rebuilt from RAIS-5 parity");
        // Member-failure lifecycle (all zero on single devices).
        out.AddCounter("edc_rais_members_failed_total", {},
                       d.members_failed,
                       "Whole-member fail-stop events observed");
        out.AddCounter("edc_rais_degraded_reads_total", {},
                       d.degraded_reads,
                       "Dead-member pages served via parity reconstruction");
        out.AddCounter("edc_rais_degraded_writes_total", {},
                       d.degraded_writes,
                       "Writes/trims that skipped a dead member");
        out.AddCounter("edc_rais_unrecoverable_reads", {},
                       d.unrecoverable_reads,
                       "Double-fault reads surfaced as kDataLoss");
        out.AddCounter("edc_rais_rebuild_rows_done_total", {},
                       d.rebuild_rows_done,
                       "Stripe rows reconstructed onto a hot spare");
        out.AddCounter("edc_rais_rebuilds_completed_total", {},
                       d.rebuilds_completed, "Hot-spare rebuilds finished");
        out.AddCounter("edc_rais_scrub_rows_total", {}, d.scrub_rows,
                       "Stripe rows scanned by parity scrub");
        out.AddCounter("edc_rais_scrub_parity_mismatches_total", {},
                       d.scrub_parity_mismatches,
                       "Stripe rows whose parity disagreed");
        out.AddCounter("edc_rais_scrub_parity_repaired_total", {},
                       d.scrub_parity_repaired,
                       "Stripe rows whose parity was rewritten");
      });
    }
  }
  return stack;
}

}  // namespace edc::core
