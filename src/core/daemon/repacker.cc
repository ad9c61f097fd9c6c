#include "core/daemon/repacker.h"

#include <algorithm>

#include "common/logging.h"

namespace portus::core {

int Repacker::reclaim_model(const std::string& name, Report& report) {
  auto& allocator = daemon_.allocator();
  auto ref = daemon_.index(name);
  MIndex& index = *ref;
  const bool finished = daemon_.model_table().is_finished(name);
  const auto latest = index.latest_done_slot();

  int cleared = 0;
  for (int i = 0; i < 2; ++i) {
    const auto& slot = index.slot(i);
    if (slot.data_offset == 0) continue;

    const bool crashed_active =
        slot.state == SlotState::kActive && ref.live == nullptr;  // no running ckpt
    const bool outdated = finished && (!latest.has_value() || i != *latest) &&
                          slot.state != SlotState::kActive;

    if (!crashed_active && !outdated) continue;

    allocator.free(slot.data_offset);
    index.clear_slot(i);
    ++cleared;
    ++report.slots_cleared;
    if (crashed_active) {
      report.freed_crashed += index.slot_size();
    } else {
      report.freed_outdated += index.slot_size();
    }
  }

  // A model whose slots are all gone stops holding PMEM: refund its
  // tenant's capacity charge.
  if (cleared > 0 && index.slot(0).data_offset == 0 && index.slot(1).data_offset == 0) {
    daemon_.tenants()->uncharge(name);
  }
  return cleared;
}

int Repacker::repack_batch(std::span<const std::string> names, Report& report) {
  // Synchronous under the Pause (in-flight ops see a consistent table;
  // compact() moves no data). Leaked heap gaps are adopted before
  // compacting, so one next to the tail is reclaimed in the same batch.
  PmemAllocator::Pause pause{daemon_.allocator()};
  int cleared = 0;
  for (const auto& name : names) cleared += reclaim_model(name, report);
  report.gaps_adopted += daemon_.allocator().sweep_gaps();
  report.compacted += daemon_.allocator().compact();
  return cleared;
}

Repacker::Report Repacker::repack() {
  Report report;
  repack_batch(daemon_.model_table().names(), report);
  PLOG_INFO("repacker", "freed {} outdated + {} crashed, adopted {} leaked, compacted {}",
            format_bytes(report.freed_outdated), format_bytes(report.freed_crashed),
            format_bytes(report.gaps_adopted), format_bytes(report.compacted));
  return report;
}

sim::SubTask<Repacker::Report> Repacker::repack_online(OnlineOptions options) {
  PORTUS_CHECK_ARG(options.models_per_pass >= 1, "online repack needs models_per_pass >= 1");
  Report report;
  // Snapshot the model list up front; models registered mid-repack are new
  // and carry no garbage worth chasing this round.
  const auto names = daemon_.model_table().names();

  for (std::size_t begin = 0; begin < names.size();
       begin += static_cast<std::size_t>(options.models_per_pass)) {
    const auto end =
        std::min(names.size(), begin + static_cast<std::size_t>(options.models_per_pass));

    // Relocation barrier: no new checkpoint admissions during the batch.
    daemon_.admission()->pause();
    const int cleared = repack_batch(std::span{names}.subspan(begin, end - begin), report);
    ++report.passes;

    // Charge the window's cost in virtual time while admissions stay
    // barred: this is the latency the fleet actually pays per pass.
    const Duration window{options.pass_cost_base.count() +
                          cleared * options.pass_cost_per_slot.count()};
    report.paused_time += window;
    co_await daemon_.engine().sleep(window);
    daemon_.admission()->resume();

    co_await daemon_.engine().sleep(options.yield);  // let live traffic breathe
  }

  PLOG_INFO("repacker",
            "online: {} passes, freed {} outdated + {} crashed, compacted {}, paused {}",
            report.passes, format_bytes(report.freed_outdated),
            format_bytes(report.freed_crashed), format_bytes(report.compacted),
            format_duration(report.paused_time));
  co_return report;
}

}  // namespace portus::core
