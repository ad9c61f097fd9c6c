// Deterministic discrete-event simulation engine.
//
// The whole Portus reproduction runs on virtual time: every device and
// network operation moves real bytes immediately but advances this clock
// through a calibrated cost model. Concurrency (async checkpointing,
// concurrent shard pulls, daemon worker pools) is expressed as coroutine
// `Process`es (see process.h) scheduled by this engine.
//
// Determinism: events fire in (time, insertion-sequence) order, processes
// are resumed only from the run loop (never recursively), and nothing reads
// wall-clock time or ambient entropy.
//
// Bookkeeping is O(1) per event: live processes and registered Resettables
// sit on intrusive lists (hooks in Process::promise_type and Resettable),
// and an event is a plain record that resumes a coroutine handle directly
// or names the slot that parks a callback.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "sim/intrusive_list.h"
#include "sim/process.h"

namespace portus::sim {

// Synchronization primitives and channels register themselves here so that
// Engine::shutdown() can clear their waiter lists: destroyed coroutine
// frames must never be resumed through stale registrations when the
// simulation world is reused after a simulated machine failure.
class Resettable {
 public:
  virtual void reset_waiters() noexcept = 0;

 protected:
  Resettable() = default;
  Resettable(const Resettable&) = delete;
  Resettable& operator=(const Resettable&) = delete;
  ~Resettable() = default;

 private:
  friend class IntrusiveList<Resettable>;
  // Hooks of the engine's registration list.
  Resettable* list_prev = nullptr;
  Resettable* list_next = nullptr;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  // Current virtual time.
  Time now() const { return now_; }

  // Schedule a callback `delay` from now (delay must be >= 0).
  void schedule(Duration delay, std::function<void()> fn);
  void schedule_now(std::function<void()> fn) { schedule(kZeroDuration, std::move(fn)); }

  // Start a coroutine process. The engine owns the coroutine frame from this
  // point; the returned handle object can be awaited (join) or queried.
  Process spawn(Process p);

  // Run until the event queue drains. Returns the final virtual time.
  Time run();

  // Destroy every live coroutine process and drop pending events. Call this
  // before tearing down objects that running processes reference (daemons,
  // clusters): coroutine destruction runs pending local destructors, which
  // may touch that state. Engine::~Engine calls it as a last resort.
  void shutdown();

  // Run until virtual time reaches `t` (events at exactly `t` are executed).
  // Returns true if the queue drained before `t`.
  bool run_until(Time t);

  // Convenience: run for `d` beyond the current time.
  bool run_for(Duration d) { return run_until(now_ + d); }

  // Awaitable: suspend the calling process for `d` of virtual time.
  // Usage inside a Process coroutine: `co_await engine.sleep(d);`
  auto sleep(Duration d);

  // Number of processes that terminated with an exception nobody has
  // observed (joined or check()ed). Healthy simulations report zero.
  int failed_process_count() const;

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return queue_.size(); }

  // --- internal (used by process/sync machinery) ---
  void resume_later(std::coroutine_handle<> h, Duration delay = kZeroDuration);
  void retire_process(std::coroutine_handle<Process::promise_type> h,
                      std::shared_ptr<Process::State> state);
  void register_resettable(Resettable* r) { resettables_.push_back(r); }
  void deregister_resettable(Resettable* r) { resettables_.erase(r); }

 private:
  // Resumes `resume`, or, when it is null, runs the callback parked in
  // callbacks_[slot].
  struct Event {
    Time at;
    std::uint64_t seq;
    std::coroutine_handle<> resume;
    std::uint32_t slot;
    friend bool operator>(const Event& a, const Event& b) {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void push(Duration delay, std::coroutine_handle<> resume, std::uint32_t slot);
  void drain_retired();
  bool step();  // execute one event; returns false when queue empty

  Time now_ = Time{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  IntrusiveList<Process::promise_type> live_;  // spawn order
  std::vector<std::coroutine_handle<Process::promise_type>> retired_;
  std::vector<std::shared_ptr<Process::State>> error_states_;
  IntrusiveList<Resettable> resettables_;  // registration order
};

}  // namespace portus::sim

#include "sim/engine_inl.h"  // IWYU pragma: keep
