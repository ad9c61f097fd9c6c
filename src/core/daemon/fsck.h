// Offline integrity checker for a Portus PMEM image (`portusctl fsck`).
//
// Walks the whole on-device structure — ModelTable -> MIndex records ->
// slot headers -> payload-CRC blocks -> TensorData bytes -> AllocTable —
// and cross-checks every layer:
//
//   * records that fail to load (torn/corrupt) are reported, and in repair
//     mode dropped from the ModelTable (their extents fall out as orphans);
//   * ACTIVE slots are crash leftovers by definition and demote to EMPTY;
//   * every DONE slot must pass verify_slot (core/daemon/slots.h) or is
//     demoted — the double-mapping peer stays;
//   * LIVE allocator extents must be referenced by exactly the surviving
//     records/slots and must not overlap; unreferenced ones are orphans;
//   * in repair mode, leaked heap gaps are re-adopted and the tail
//     compacted, leaving an image the daemon can serve from immediately.
//
// Like the repacker, this is a stop-the-world maintenance pass: run it on
// a quiescent daemon (or one freshly constructed over a loaded image).
#pragma once

#include "core/daemon/daemon.h"

namespace portus::core {

class Fsck {
 public:
  struct Report {
    int models_scanned = 0;
    // Sharded AllocTable scrub (pass 0). Torn entries are informational:
    // recover() already dropped them from the DRAM mirror, and the bytes
    // they tracked come back via the gap sweep — but the count explains
    // where adopted gaps came from after a power cut.
    bool alloc_header_valid = true;
    std::uint32_t shard_tables = 0;  // allocator arenas scanned
    std::uint32_t numa_nodes = 0;    // heap partitions per the extended header
    std::uint32_t torn_entries = 0;  // persistent entries failing their CRC
    int torn_records = 0;        // MIndex records that failed to load
    int active_demoted = 0;      // ACTIVE (crash-leftover) slots demoted
    int corrupt_demoted = 0;     // DONE slots failing the payload scrub
    int corrupt_tensors = 0;     // individual tensors failing their CRC
    int orphaned_extents = 0;    // LIVE extents nothing references
    int overlap_violations = 0;  // overlapping LIVE extents
    Bytes freed = 0;             // bytes released by repairs
    Bytes gaps_adopted = 0;      // leaked heap bytes re-tracked (repair)
    Bytes compacted = 0;         // tail bytes returned to bump (repair)
    bool repaired = false;

    // True when the image needed no attention. Housekeeping yields
    // (gaps/compaction) and torn-entry counts do not count against
    // cleanliness — their bytes are re-adopted, not lost.
    bool clean() const {
      return alloc_header_valid && torn_records == 0 && active_demoted == 0 &&
             corrupt_demoted == 0 && corrupt_tensors == 0 &&
             orphaned_extents == 0 && overlap_violations == 0;
    }
  };

  explicit Fsck(PortusDaemon& daemon) : daemon_{daemon} {}

  // Scan (and with repair=true, fix) the image. The daemon's DRAM state
  // must already mirror PMEM (construct + recover() first).
  Report run(bool repair);

 private:
  PortusDaemon& daemon_;
};

}  // namespace portus::core
