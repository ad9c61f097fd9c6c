// Double-mapping checkpoint transaction (SS III-D2, Fig. 6).
//
// Every model keeps two identically-structured checkpoint slots on PMEM.
// A checkpoint writes into the slot that does NOT hold the newest DONE
// version, under this persist ordering:
//
//   begin():  write slot <- ACTIVE flag, persisted     (transmission begun)
//   ... the TensorData lands and is persisted ...
//   commit(): payload-CRC block, then DONE flag + epoch, each persisted
//
// A crash before commit leaves the slot ACTIVE (or torn); recovery treats
// anything not DONE as invalid, so the previous DONE version — untouched by
// construction — remains restorable. This guarantees at least one valid
// version at all times without reallocating PMEM or re-establishing RDMA
// state per checkpoint (the cost the paper's "new file every time"
// alternative would pay; see bench/abl_double_mapping).
//
// CheckpointTxn is the only writer of slot state (daemon checkpoints and
// migrated copies alike) and verify_slot() the only reader of the CRC
// block (restore, fsck, `portusctl dump`, migration): "a DONE header is a
// CRC proof" is written and checked one way everywhere.
//
// Deliberately, an abandoned transaction does NOT roll the flag back: a
// power failure runs no destructors, so the recovery protocol must already
// treat a lingering ACTIVE slot as invalid — and it does. The next
// checkpoint of the model simply overwrites that slot (pick_write_slot
// never selects the newest DONE version).
#pragma once

#include <string>
#include <vector>

#include "core/daemon/mindex.h"

namespace portus::core {

class CheckpointTxn {
 public:
  // Marks the write slot ACTIVE (persisted) for the next epoch. A migrated
  // copy passes the `carried_epoch` it was committed at elsewhere instead:
  // its ACTIVE flag stays at epoch 0 and commit() flips DONE at that epoch.
  // The transaction must be committed or abandoned before another one
  // starts on the same MIndex.
  static CheckpointTxn begin(MIndex& index, std::uint64_t carried_epoch = 0);

  CheckpointTxn(const CheckpointTxn&) = delete;
  CheckpointTxn& operator=(const CheckpointTxn&) = delete;

  int slot() const { return slot_; }
  Bytes data_offset() const { return index_->slot(slot_).data_offset; }
  std::uint64_t epoch() const { return epoch_; }

  // Persist the payload-CRC block (`crcs`, one per tensor; phantom models
  // carry none), then flip to DONE with the epoch (persisted). Only the
  // first call commits. Enforces the persist-before-DONE contract: every
  // dirty byte of the slot's TensorData must already be inside the
  // persistence domain, else the DONE flag would bless data a power
  // failure can still tear. With the pipelined datapath (per-chunk
  // flushes racing ahead of the transfer window) this is the single choke
  // point where the invariant is checked.
  void commit(const std::vector<std::uint32_t>& crcs);

 private:
  CheckpointTxn(MIndex& index, int slot, std::uint64_t epoch)
      : index_{&index}, slot_{slot}, epoch_{epoch} {}

  MIndex* index_;
  int slot_;
  std::uint64_t epoch_;
  bool committed_ = false;
};

// What verify_slot found. Phantom models carry no bytes to prove: their
// slots always verify, with no CRCs.
struct SlotProof {
  const char* block_error = nullptr;     // "missing or torn" / "stale" block
  std::vector<std::uint32_t> crcs;       // the block's per-tensor CRCs
  std::vector<std::size_t> bad_tensors;  // tensors whose bytes fail them

  bool ok() const { return block_error == nullptr && bad_tensors.empty(); }
  // Restore's wording of why a failed proof failed.
  std::string failure(const MIndex& index, int slot) const;
};

// Slot `slot`'s payload-CRC block must be present and stamped with the
// header's epoch, and every tensor's bytes must match it (one CRC pass per
// tensor; `scrub_bytes=false` stops after the block).
SlotProof verify_slot(const MIndex& index, int slot, bool scrub_bytes = true);
// The byte half alone, against a proof read elsewhere: a migration checks
// its destination copy against the source's block.
void scrub(const MIndex& index, int slot, SlotProof& proof);

}  // namespace portus::core
