#include "core/daemon/tenant.h"

#include <algorithm>

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
  if (tenant.models.contains(model_name)) return false;  // re-registration
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
  tenant.models.insert(model_name);
  model_owner_[model_name] = tenant.id;
  return true;
}

void TenantRegistry::uncharge(const std::string& model_name, Bytes bytes) {
  const auto it = model_owner_.find(model_name);
  if (it == model_owner_.end()) return;
  Tenant* t = find(it->second);
  if (t == nullptr || !t->models.erase(model_name)) return;
  t->usage.charged_bytes -= std::min(t->usage.charged_bytes, bytes);
  if (t->usage.models > 0) --t->usage.models;
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

bool AdmissionController::can_grant_now(const Tenant& tenant) const {
  return !paused_ && inflight_ < config_.max_inflight && queued() == 0 &&
         !tenant_capped(tenant);
}

double AdmissionController::stamp(Tenant& tenant, Bytes bytes) {
  const double weight = std::max(tenant.quota.share, 1e-9);
  const double start = std::max(vtime_, tenant.vfinish);
  tenant.vfinish = start + static_cast<double>(bytes) / weight;
  return tenant.vfinish;
}

void AdmissionController::grant(Tenant& tenant) {
  ++inflight_;
  ++tenant.inflight;
  ++tenant.usage.admitted;
  ++stats_.admitted;
}

void AdmissionController::finish(Tenant* tenant) {
  if (inflight_ > 0) --inflight_;
  if (tenant != nullptr && tenant->inflight > 0) --tenant->inflight;
  dispatch();
}

void AdmissionController::Ticket::release() {
  if (ctrl_ == nullptr) return;
  std::exchange(ctrl_, nullptr)->finish(std::exchange(tenant_, nullptr));
}

void AdmissionController::dispatch() {
  while (!paused_ && inflight_ < config_.max_inflight) {
    // Strict priority across classes; start-time-fair (min virtual finish
    // tag, FIFO on ties) within a class. Waiters whose tenant is at its
    // per-tenant WR-slot cap are passed over, not starved — they become
    // eligible again when that tenant's ticket releases.
    Waiter* best = nullptr;
    std::deque<Waiter>* best_q = nullptr;
    std::size_t best_i = 0;
    for (auto& q : queues_) {
      for (std::size_t i = 0; i < q.size(); ++i) {
        Waiter& w = q[i];
        if (tenant_capped(*w.tenant)) continue;
        if (best == nullptr || w.vft < best->vft ||
            (w.vft == best->vft && w.seq < best->seq)) {
          best = &w;
          best_q = &q;
          best_i = i;
        }
      }
      if (best != nullptr) break;  // higher class wins outright
    }
    if (best == nullptr) return;
    vtime_ = std::max(vtime_, best->vft);
    grant(*best->tenant);
    const auto handle = best->handle;
    best_q->erase(best_q->begin() + static_cast<std::ptrdiff_t>(best_i));
    engine_.resume_later(handle);
  }
}

struct AdmissionController::WaitAwaitable {
  AdmissionController& ctrl;
  Tenant& tenant;
  double vft;

  bool await_ready() const noexcept {
    if (!ctrl.can_grant_now(tenant)) return false;
    ctrl.vtime_ = std::max(ctrl.vtime_, vft);
    ctrl.grant(tenant);
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) {
    const int cls = static_cast<int>(tenant.quota.priority);
    ctrl.queues_[cls].push_back(
        Waiter{.handle = h, .tenant = &tenant, .vft = vft, .seq = ctrl.next_seq_++});
  }
  void await_resume() const noexcept {}  // slot transferred by dispatch()
};

sim::SubTask<AdmissionController::Ticket> AdmissionController::admit(Tenant& tenant,
                                                                     Bytes bytes) {
  const int cls = static_cast<int>(tenant.quota.priority);
  // Bounded queue: reject instead of building unbounded backlog. Checked
  // before pacing so a rejected op costs the client one cheap roundtrip.
  if (!can_grant_now(tenant) && queues_[cls].size() >= config_.queue_depth) {
    ++stats_.rejected;
    ++tenant.usage.rejected;
    throw Backpressure(strf("tenant {} {} admission queue full ({} deep)", tenant.id,
                            to_string(tenant.quota.priority), config_.queue_depth));
  }

  // Token-bucket pacing: burn the tenant's own time before competing for a
  // slot, so a paced tenant never occupies WR budget while throttled.
  if (tenant.quota.rate_bytes_per_sec > 0) {
    const double rate = static_cast<double>(tenant.quota.rate_bytes_per_sec);
    const double burst = static_cast<double>(
        tenant.quota.burst_bytes > 0 ? tenant.quota.burst_bytes : bytes);
    const Time now = engine_.now();
    tenant.tokens = std::min(burst, tenant.tokens + rate * to_seconds(now - tenant.bucket_at));
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
  co_await WaitAwaitable{*this, tenant, vft};
  const auto waited = engine_.now() - t0;
  stats_.queue_wait_total += waited;
  stats_.queue_wait_max = std::max(stats_.queue_wait_max, waited);
  tenant.usage.queue_wait_total += waited;
  tenant.usage.queue_wait_max = std::max(tenant.usage.queue_wait_max, waited);
  tenant.usage.admitted_bytes += bytes;
  co_return Ticket{this, &tenant};
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
