#include "core/daemon/fsck.h"

#include <set>

#include "common/logging.h"
#include "core/daemon/slots.h"

namespace portus::core {

namespace {
constexpr const char* kLog = "fsck";
}

Fsck::Report Fsck::run(bool repair) {
  Report report;
  auto& table = daemon_.model_table();
  auto& allocator = daemon_.allocator();

  // Pass 0: the persistent sharded AllocTable itself. recover() silently
  // skips entries whose CRC fails, so this scrub is the only place a torn
  // entry is ever counted — it explains the heap gaps repair adopts below.
  const auto scrub = allocator.scrub_table();
  report.alloc_header_valid = scrub.header_valid;
  report.shard_tables = scrub.shards;
  report.numa_nodes = scrub.numa_nodes;
  report.torn_entries = scrub.torn_entries;
  if (!scrub.header_valid) {
    PLOG_INFO(kLog, "AllocTable header invalid across {} shards", scrub.shards);
  }
  if (scrub.torn_entries > 0) {
    PLOG_INFO(kLog, "{} torn AllocTable entries across {} shards", scrub.torn_entries,
              scrub.shards);
  }

  // Pass 1: walk every tabled model and scrub its record and slots.
  // Offsets that survive the pass are the reference set for the orphan
  // sweep below (demoted slots deliberately drop out of it).
  std::set<Bytes> referenced;
  for (const auto& name : table.names()) {
    ++report.models_scanned;
    const auto record_offset = table.lookup(name);
    std::optional<MIndex> index;
    try {
      index.emplace(daemon_.load_index(name));
    } catch (const Error& e) {
      ++report.torn_records;
      PLOG_INFO(kLog, "record for {} unreadable: {}", name, e.what());
      if (repair) {
        table.remove(name);
        // The record extent (and any slot extents it referenced) are now
        // unreachable; the orphan sweep reclaims them.
      } else if (record_offset.has_value()) {
        referenced.insert(*record_offset);
      }
      continue;
    }
    referenced.insert(index->record_offset());

    for (int i = 0; i < 2; ++i) {
      const auto& slot = index->slot(i);
      if (slot.data_offset == 0) continue;

      bool demote = false;
      if (slot.state == SlotState::kActive) {
        // fsck runs on a quiescent image: an ACTIVE slot is a checkpoint
        // that lost power mid-flight. Its data is incomplete by definition.
        ++report.active_demoted;
        demote = true;
        PLOG_INFO(kLog, "{} slot {}: ACTIVE crash leftover", name, i);
      } else if (slot.state == SlotState::kDone) {
        if (const auto proof = verify_slot(*index, i); !proof.ok()) {
          ++report.corrupt_demoted;
          report.corrupt_tensors += static_cast<int>(proof.bad_tensors.size());
          demote = true;
          if (proof.block_error != nullptr) {
            PLOG_INFO(kLog, "{} slot {}: payload-CRC block {} at epoch {}", name, i,
                      proof.block_error, slot.epoch);
          } else {
            PLOG_INFO(kLog, "{} slot {}: {} of {} tensors failed payload CRC", name, i,
                      proof.bad_tensors.size(), index->tensors().size());
          }
        }
      }

      if (demote && repair) {
        allocator.free(slot.data_offset);
        index->clear_slot(i);
        report.freed += index->slot_size();
      } else {
        // Verify-only keeps a demoted-worthy slot in place, so its extent
        // is still referenced — it must not double-report as an orphan.
        referenced.insert(slot.data_offset);
      }
    }
  }

  // Pass 2: allocator cross-check. Every LIVE extent must be referenced by
  // a surviving record or slot, and no two LIVE extents may overlap (an
  // overlap means two owners think they hold the same bytes — reported,
  // never auto-repaired: there is no way to pick the rightful owner).
  Bytes prev_end = 0;
  for (const auto& ext : allocator.extents()) {
    if (ext.state != AllocState::kLive) continue;
    if (ext.offset < prev_end) ++report.overlap_violations;
    prev_end = std::max(prev_end, ext.offset + ext.size);
    if (!referenced.contains(ext.offset)) {
      ++report.orphaned_extents;
      if (repair) {
        allocator.free(ext.offset);
        report.freed += ext.size;
      }
    }
  }

  if (repair) {
    report.gaps_adopted = allocator.sweep_gaps();
    report.compacted = allocator.compact();
    report.repaired = true;
  }
  PLOG_INFO(kLog,
            "{} models: {} torn records, {} active + {} corrupt slots demoted "
            "({} bad tensors), {} orphans, {} overlaps{}",
            report.models_scanned, report.torn_records, report.active_demoted,
            report.corrupt_demoted, report.corrupt_tensors, report.orphaned_extents,
            report.overlap_violations, repair ? " [repaired]" : "");
  return report;
}

}  // namespace portus::core
