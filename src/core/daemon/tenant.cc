#include "core/daemon/tenant.h"

#include <algorithm>
#include <utility>

#include "common/strformat.h"

namespace portus::core {

const char* to_string(PriorityClass c) {
  switch (c) {
    case PriorityClass::kHigh: return "high";
    case PriorityClass::kNormal: return "normal";
    case PriorityClass::kBatch: return "batch";
  }
  return "?";
}

PriorityClass priority_from_wire(std::uint8_t v) {
  return v <= 2 ? static_cast<PriorityClass>(v) : PriorityClass::kBatch;
}

namespace {

// Clamp a requested quota axis against the policy ceiling. 0 anywhere means
// "no opinion": a zero request takes the ceiling, a zero ceiling grants the
// request verbatim.
Bytes clamp_grant(Bytes requested, Bytes ceiling) {
  if (requested == 0) return ceiling;
  if (ceiling == 0) return requested;
  return std::min(requested, ceiling);
}

}  // namespace

// --- TenantRegistry ---------------------------------------------------------

Tenant& TenantRegistry::admit_tenant(const std::string& id, PriorityClass priority,
                                     Bytes requested_capacity, Bytes requested_rate) {
  auto [it, created] = tenants_.try_emplace(id);
  Tenant& t = it->second;
  if (created) {
    t.id = id;
    t.quota = defaults_.quota;
  }
  t.quota.priority = priority;
  t.quota.capacity_bytes = clamp_grant(requested_capacity, defaults_.quota.capacity_bytes);
  t.quota.rate_bytes_per_sec = clamp_grant(requested_rate, defaults_.quota.rate_bytes_per_sec);
  return t;
}

Tenant* TenantRegistry::find(const std::string& id) {
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second;
}

const Tenant* TenantRegistry::find(const std::string& id) const {
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second;
}

Tenant* TenantRegistry::owner_of(const std::string& model_name) {
  const auto it = model_owner_.find(model_name);
  return it == model_owner_.end() ? nullptr : find(it->second);
}

bool TenantRegistry::charge(Tenant& tenant, const std::string& model_name, Bytes bytes) {
  if (const auto it = model_owner_.find(model_name); it != model_owner_.end()) {
    if (it->second == tenant.id) return false;  // re-registration
    throw InvalidArgument(strf("model {} is charged to tenant {}; tenant {} may not register it",
                               model_name, it->second, tenant.id));
  }
  if (tenant.quota.capacity_bytes != 0 &&
      tenant.usage.charged_bytes + bytes > tenant.quota.capacity_bytes) {
    ++tenant.usage.quota_rejects;
    throw ResourceExhausted(
        strf("tenant {} over PMEM capacity quota: {} held + {} requested > {} granted",
             tenant.id, format_bytes(tenant.usage.charged_bytes), format_bytes(bytes),
             format_bytes(tenant.quota.capacity_bytes)));
  }
  tenant.usage.charged_bytes += bytes;
  ++tenant.usage.models;
  tenant.models.emplace(model_name, bytes);
  model_owner_[model_name] = tenant.id;
  return true;
}

void TenantRegistry::uncharge(const std::string& model_name) {
  const auto it = model_owner_.find(model_name);
  if (it == model_owner_.end()) return;
  Tenant& t = tenants_.at(it->second);
  const auto billed = t.models.find(model_name);
  t.usage.charged_bytes -= billed->second;
  --t.usage.models;
  t.models.erase(billed);
  model_owner_.erase(it);
}

std::vector<const Tenant*> TenantRegistry::tenants() const {
  std::vector<const Tenant*> out;
  out.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) out.push_back(&t);
  return out;  // std::map iterates id-sorted
}

// --- AdmissionController ----------------------------------------------------

AdmissionController::AdmissionController(sim::Engine& engine, Config config)
    : engine_{engine}, config_{config} {
  PORTUS_CHECK_ARG(config_.max_inflight >= 1, "admission max_inflight must be >= 1");
  engine.register_resettable(this);
}

AdmissionController::~AdmissionController() { engine_.deregister_resettable(this); }

void AdmissionController::reset_waiters() noexcept {
  for (auto& q : queues_) q.clear();
  // Tickets held by destroyed coroutine frames release through finish(),
  // which tolerates the post-reset state (counts clamp at zero).
  inflight_ = 0;
}

std::size_t AdmissionController::queued() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

bool AdmissionController::can_grant_now() const {
  return !paused_ && inflight_ < config_.max_inflight && queued() == 0;
}

double AdmissionController::stamp(Tenant& tenant, Bytes bytes) {
  const double start = std::max(vtime_, tenant.vfinish);
  tenant.vfinish = start + static_cast<double>(bytes);
  return tenant.vfinish;
}

void AdmissionController::finish() {
  if (inflight_ > 0) --inflight_;
  dispatch();
}

void AdmissionController::Ticket::release() {
  if (ctrl_ != nullptr) std::exchange(ctrl_, nullptr)->finish();
}

void AdmissionController::dispatch() {
  while (!paused_ && inflight_ < config_.max_inflight) {
    // Strict priority across classes; start-time-fair (min virtual finish
    // tag, FIFO on ties) within a class.
    const auto q = std::ranges::find_if(queues_, [](const auto& q) { return !q.empty(); });
    if (q == std::ranges::end(queues_)) return;
    const auto best = std::ranges::min_element(
        *q, {}, [](const Waiter& w) { return std::pair{w.vft, w.seq}; });
    vtime_ = std::max(vtime_, best->vft);
    ++inflight_;
    const auto handle = best->handle;
    q->erase(best);
    engine_.resume_later(handle);
  }
}

struct AdmissionController::WaitAwaitable {
  AdmissionController& ctrl;
  int cls;
  double vft;

  bool await_ready() const noexcept {
    if (!ctrl.can_grant_now()) return false;
    ctrl.vtime_ = std::max(ctrl.vtime_, vft);
    ++ctrl.inflight_;
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) {
    ctrl.queues_[cls].push_back(Waiter{.handle = h, .vft = vft, .seq = ctrl.next_seq_++});
  }
  void await_resume() const noexcept {}  // slot transferred by dispatch()
};

sim::SubTask<AdmissionController::Ticket> AdmissionController::admit(Tenant& tenant,
                                                                     Bytes bytes) {
  const int cls = static_cast<int>(tenant.quota.priority);
  // Bounded queue: reject instead of building unbounded backlog. Checked
  // before pacing so a rejected op costs the client one cheap roundtrip.
  if (!can_grant_now() && queues_[cls].size() >= config_.queue_depth) {
    ++stats_.rejected;
    ++tenant.usage.rejected;
    throw Backpressure(strf("tenant {} {} admission queue full ({} deep)", tenant.id,
                            to_string(tenant.quota.priority), config_.queue_depth));
  }

  // Token-bucket pacing: burn the tenant's own time before competing for a
  // slot, so a paced tenant never occupies WR budget while throttled. The
  // bucket holds one op's bytes, so an idle tenant banks no burst.
  if (tenant.quota.rate_bytes_per_sec > 0) {
    const double rate = static_cast<double>(tenant.quota.rate_bytes_per_sec);
    const Time now = engine_.now();
    tenant.tokens = std::min(static_cast<double>(bytes),
                             tenant.tokens + rate * to_seconds(now - tenant.bucket_at));
    tenant.bucket_at = now;
    tenant.tokens -= static_cast<double>(bytes);
    if (tenant.tokens < 0.0) {
      const auto debt = from_seconds(-tenant.tokens / rate);
      ++stats_.paced;
      tenant.usage.paced_total += debt;
      co_await engine_.sleep(debt);
    }
  }

  const double vft = stamp(tenant, bytes);
  const Time t0 = engine_.now();
  co_await WaitAwaitable{*this, cls, vft};
  const auto waited = engine_.now() - t0;
  ++stats_.admitted;
  stats_.queue_wait_total += waited;
  stats_.queue_wait_max = std::max(stats_.queue_wait_max, waited);
  ++tenant.usage.admitted;
  tenant.usage.queue_wait_total += waited;
  tenant.usage.queue_wait_max = std::max(tenant.usage.queue_wait_max, waited);
  tenant.usage.admitted_bytes += bytes;
  co_return Ticket{this};
}

void AdmissionController::pause() {
  if (paused_) return;
  paused_ = true;
  pause_began_ = engine_.now();
  ++stats_.pauses;
}

void AdmissionController::resume() {
  if (!paused_) return;
  paused_ = false;
  stats_.paused_total += engine_.now() - pause_began_;
  dispatch();
}

}  // namespace portus::core
