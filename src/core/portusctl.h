// Portusctl: management/sharing tool (SS IV-b).
//
//   portusctl view DEVICE            -> list models stored on a PMEM device
//   portusctl dump CHECKPOINT FILE   -> export a checkpoint out of the
//                                       three-level index as a portable
//                                       container ("PTCK", readable by any
//                                       framework-side loader)
//   portusctl repack DEVICE          -> reclaim invalid checkpoint versions
//   portusctl fsck DEVICE            -> scrub the whole image (payload CRCs,
//                                       slot states, allocator consistency)
//                                       and repair it to a restorable state
//
// This header is the library behind the CLI in tools/portusctl_main.cc; the
// admin runs it on the storage node against a (quiesced) daemon.
#pragma once

#include <string>
#include <vector>

#include "core/daemon/daemon.h"
#include "core/daemon/fsck.h"
#include "core/daemon/repacker.h"
#include "storage/filesystem.h"
#include "storage/serializer.h"

namespace portus::core {

class Portusctl {
 public:
  struct SlotInfo {
    SlotState state = SlotState::kEmpty;
    std::uint64_t epoch = 0;
  };
  struct ModelInfo {
    std::string name;
    std::size_t layers = 0;
    Bytes slot_size = 0;
    bool phantom = false;
    SlotInfo slots[2];
    bool restorable = false;  // has at least one DONE version
  };

  explicit Portusctl(PortusDaemon& daemon) : daemon_{daemon} {}

  // `portusctl view`: every model in the ModelTable with its slot states.
  std::vector<ModelInfo> view();
  std::string render_view();  // human-readable table

  // `portusctl stats`: operation counters plus pipelined-datapath
  // observability (window occupancy, chunk mix, queueing delay) of the
  // daemon this tool is attached to.
  std::string render_stats();

  // `portusctl tenants`: the per-tenant quota/usage table (granted quota
  // vs charged capacity, admission/backpressure/pacing counters) plus the
  // admission controller's aggregate line. Tenancy state is DRAM-only, so
  // this renders live daemon state, not anything read from the image.
  std::string render_tenants();

  // `portusctl dump`: read the newest DONE version's TensorData out of PMEM
  // and serialize it into the portable container format. Charges PMEM read
  // + CPU serialization time. Throws Corruption, as restore does, when the
  // slot fails its payload-CRC proof (core/daemon/slots.h).
  sim::SubTask<storage::CheckpointFile> dump(const std::string& model_name);

  // Dump straight into a filesystem file (e.g. for sharing over Lustre).
  sim::SubTask<Bytes> dump_to(const std::string& model_name,
                              storage::CheckpointStorage& storage, std::string path);

  // `portusctl repack`.
  Repacker::Report repack() { return Repacker{daemon_}.repack(); }

  // `portusctl fsck`: scrub payloads against their CRC blocks, demote
  // ACTIVE/corrupt slots, and sweep orphaned extents. repair=false only
  // reports (the CLI's --verify-only).
  Fsck::Report fsck(bool repair = true) { return Fsck{daemon_}.run(repair); }
  std::string render_fsck(const Fsck::Report& r);

 private:
  PortusDaemon& daemon_;
};

}  // namespace portus::core
