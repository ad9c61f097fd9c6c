// Coroutine process type for the simulation engine.
//
// A Process is the unit of concurrency in the simulation: a coroutine that
// suspends on engine awaitables (sleep, channel recv, bandwidth transfers,
// mutexes) and is resumed by the engine's run loop. Processes start
// suspended; Engine::spawn schedules the first resume, after which the
// engine owns the coroutine frame and destroys it once it finishes.
//
//   sim::Process train(sim::Engine& eng, ...) {
//     co_await eng.sleep(10ms);
//     ...
//   }
//   auto p = eng.spawn(train(eng, ...));
//   ...
//   co_await p.join();   // from another process
//
// Exceptions escaping a process are captured; join() rethrows them. A
// process that fails without ever being joined increments
// Engine::failed_process_count().
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace portus::sim {

class Engine;

class Process {
 public:
  struct State {
    bool spawned = false;
    bool done = false;
    bool observed = false;  // someone joined (or checked the error)
    std::exception_ptr error;
    std::vector<std::coroutine_handle<>> joiners;
    Engine* engine = nullptr;
  };

  struct promise_type {
    std::shared_ptr<State> state = std::make_shared<State>();
    // Hooks of the engine's live-process list (sim/intrusive_list.h).
    promise_type* list_prev = nullptr;
    promise_type* list_next = nullptr;

    Process get_return_object() {
      return Process{std::coroutine_handle<promise_type>::from_promise(*this), state};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { state->error = std::current_exception(); }
  };

  Process() = default;
  Process(Process&& other) noexcept
      : handle_{std::exchange(other.handle_, nullptr)}, state_{std::move(other.state_)} {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy_if_owned();
      handle_ = std::exchange(other.handle_, nullptr);
      state_ = std::move(other.state_);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy_if_owned(); }

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ && state_->done; }

  // Rethrows the process's failure, if any; marks the error observed.
  void check() const {
    if (!state_) return;
    state_->observed = true;
    if (state_->error) std::rethrow_exception(state_->error);
  }

  // Awaitable that completes when the process finishes; rethrows its error.
  struct JoinAwaitable {
    std::shared_ptr<State> state;
    bool await_ready() const noexcept { return state == nullptr || state->done; }
    void await_suspend(std::coroutine_handle<> h) const { state->joiners.push_back(h); }
    void await_resume() const {
      if (!state) return;
      state->observed = true;
      if (state->error) std::rethrow_exception(state->error);
    }
  };
  JoinAwaitable join() const { return JoinAwaitable{state_}; }

  // --- internal (Engine) ---
  std::coroutine_handle<promise_type> release_handle_for_spawn() {
    PORTUS_CHECK_ARG(handle_ && !state_->spawned, "process already spawned or empty");
    state_->spawned = true;
    return std::exchange(handle_, nullptr);
  }
  const std::shared_ptr<State>& state() const { return state_; }

 private:
  Process(std::coroutine_handle<promise_type> h, std::shared_ptr<State> s)
      : handle_{h}, state_{std::move(s)} {}

  void destroy_if_owned() {
    if (handle_ && state_ && !state_->spawned) handle_.destroy();
    handle_ = nullptr;
  }

  std::coroutine_handle<promise_type> handle_;
  std::shared_ptr<State> state_;
};

}  // namespace portus::sim
