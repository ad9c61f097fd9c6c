#include "sim/engine.h"

#include "common/logging.h"

namespace portus::sim {

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  drain_retired();
  // Destroy any still-live (suspended) coroutine frames, in spawn order.
  // Coroutine destruction runs pending local destructors (e.g. an aborting
  // CheckpointTxn), so callers should shut down while the objects those
  // destructors touch are still alive. Popping from the head keeps this
  // safe when such a destructor spawns or deregisters.
  while (!live_.empty()) {
    auto* promise = live_.front();
    live_.erase(promise);
    std::coroutine_handle<Process::promise_type>::from_promise(*promise).destroy();
  }
  drain_retired();
  // Drop pending events in firing order; a callback is destroyed out of its
  // slot, so its captures may schedule without invalidating the slot vector.
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    if (!ev.resume) {
      auto dropped = std::move(callbacks_[ev.slot]);
    }
  }
  callbacks_.clear();
  free_slots_.clear();
  // Clear waiter registrations pointing at the frames just destroyed.
  resettables_.for_each([](Resettable* r) { r->reset_waiters(); });
}

void Engine::push(Duration delay, std::coroutine_handle<> resume, std::uint32_t slot) {
  PORTUS_CHECK_ARG(delay >= kZeroDuration, "cannot schedule events in the past");
  queue_.push(Event{now_ + delay, next_seq_++, resume, slot});
}

void Engine::schedule(Duration delay, std::function<void()> fn) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  push(delay, nullptr, slot);
}

Process Engine::spawn(Process p) {
  PORTUS_CHECK_ARG(p.valid(), "cannot spawn an empty process");
  auto state = p.state();
  state->engine = this;
  auto handle = p.release_handle_for_spawn();
  live_.push_back(&handle.promise());
  push(kZeroDuration, handle, 0);
  return p;
}

void Engine::resume_later(std::coroutine_handle<> h, Duration delay) {
  PORTUS_CHECK_ARG(h != nullptr, "cannot resume an empty coroutine handle");
  push(delay, h, 0);
}

void Engine::retire_process(std::coroutine_handle<Process::promise_type> h,
                            std::shared_ptr<Process::State> state) {
  live_.erase(&h.promise());
  retired_.push_back(h);
  if (state && state->error) {
    error_states_.push_back(std::move(state));
  }
}

void Engine::drain_retired() {
  for (auto h : retired_) h.destroy();
  retired_.clear();
}

bool Engine::step() {
  if (queue_.empty()) return false;
  const Event ev = queue_.top();
  queue_.pop();
  now_ = ev.at;
  if (ev.resume) {
    ev.resume.resume();
  } else {
    // Free the slot before the call: the callback may schedule again.
    auto fn = std::move(callbacks_[ev.slot]);
    callbacks_[ev.slot] = nullptr;
    free_slots_.push_back(ev.slot);
    fn();
  }
  ++events_processed_;
  drain_retired();
  return true;
}

Time Engine::run() {
  while (step()) {
  }
  return now_;
}

bool Engine::run_until(Time t) {
  while (!queue_.empty() && queue_.top().at <= t) {
    step();
  }
  if (queue_.empty()) return true;
  now_ = t;
  return false;
}

int Engine::failed_process_count() const {
  int n = 0;
  for (const auto& s : error_states_) {
    if (!s->observed) ++n;
  }
  return n;
}

}  // namespace portus::sim
