#include "core/daemon/slots.h"

#include "common/strformat.h"

namespace portus::core {

CheckpointTxn CheckpointTxn::begin(MIndex& index, std::uint64_t carried_epoch) {
  const int slot = index.pick_write_slot();
  const std::uint64_t epoch = carried_epoch != 0 ? carried_epoch : index.max_epoch() + 1;
  // ACTIVE flag first, persisted, before any data lands: recovery must be
  // able to tell "transmission started but did not finish".
  index.set_slot(slot, SlotState::kActive, carried_epoch != 0 ? 0 : epoch);
  return CheckpointTxn{index, slot, epoch};
}

void CheckpointTxn::commit(const std::vector<std::uint32_t>& crcs) {
  if (committed_) return;
  // The CRC block lands BEFORE the DONE flip, so a DONE slot is
  // guaranteed to carry a valid, epoch-matching block.
  if (!index_->phantom()) index_->set_payload_crcs(slot_, epoch_, crcs);
  PORTUS_CHECK(index_->device().is_persisted(data_offset(), index_->slot_size()),
               "commit with unpersisted TensorData in the write slot");
  index_->set_slot(slot_, SlotState::kDone, epoch_);
  committed_ = true;
}

std::string SlotProof::failure(const MIndex& index, int slot) const {
  if (block_error != nullptr) {
    return strf("payload-CRC block for {} slot {} is {} at epoch {}", index.model_name(),
                slot, block_error, index.slot(slot).epoch);
  }
  return strf("tensor {} of {} failed its payload CRC on restore",
              index.tensors()[bad_tensors.at(0)].name, index.model_name());
}

SlotProof verify_slot(const MIndex& index, int slot, bool scrub_bytes) {
  SlotProof proof;
  if (index.phantom()) return proof;
  auto block = index.payload_crcs(slot);
  if (!block.has_value()) {
    proof.block_error = "missing or torn";
  } else if (block->epoch != index.slot(slot).epoch) {
    proof.block_error = "stale";
  } else {
    proof.crcs = std::move(block->crcs);
    if (scrub_bytes) scrub(index, slot, proof);
  }
  return proof;
}

void scrub(const MIndex& index, int slot, SlotProof& proof) {
  if (index.phantom() || proof.block_error != nullptr) return;
  const Bytes base = index.slot(slot).data_offset;
  const auto& tensors = index.tensors();
  for (std::size_t t = 0; t < tensors.size(); ++t) {
    if (index.device().crc(base + tensors[t].offset_in_slot, tensors[t].size) !=
        proof.crcs[t]) {
      proof.bad_tensors.push_back(t);
    }
  }
}

}  // namespace portus::core
