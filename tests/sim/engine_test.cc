#include "sim/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/process.h"

namespace portus::sim {
namespace {

using namespace std::chrono_literals;

TEST(EngineTest, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), Time{0});
}

TEST(EngineTest, CallbacksFireInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(30ns, [&] { order.push_back(3); });
  eng.schedule(10ns, [&] { order.push_back(1); });
  eng.schedule(20ns, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time{30ns});
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule(10ns, [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, SchedulingInPastThrows) {
  Engine eng;
  EXPECT_THROW(eng.schedule(Duration{-1}, [] {}), InvalidArgument);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  eng.schedule(10ns, [&] { ++fired; });
  eng.schedule(20ns, [&] { ++fired; });
  eng.schedule(30ns, [&] { ++fired; });
  EXPECT_FALSE(eng.run_until(Time{20ns}));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), Time{20ns});
  EXPECT_TRUE(eng.run_until(Time{100ns}));
  EXPECT_EQ(fired, 3);
}

TEST(EngineTest, NestedSchedulingAdvancesClock) {
  Engine eng;
  Time inner_fire_time{};
  eng.schedule(5ns, [&] {
    eng.schedule(7ns, [&] { inner_fire_time = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(inner_fire_time, Time{12ns});
}

Process sleeper(Engine& eng, Duration d, Time& woke_at) {
  co_await eng.sleep(d);
  woke_at = eng.now();
}

TEST(ProcessTest, SleepAdvancesVirtualTime) {
  Engine eng;
  Time woke{};
  auto p = eng.spawn(sleeper(eng, 1500ns, woke));
  eng.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(woke, Time{1500ns});
}

Process multi_sleeper(Engine& eng, std::vector<Time>& marks) {
  marks.push_back(eng.now());
  co_await eng.sleep(10ns);
  marks.push_back(eng.now());
  co_await eng.sleep(0ns);  // zero sleep must not suspend forever
  marks.push_back(eng.now());
  co_await eng.sleep(5ns);
  marks.push_back(eng.now());
}

TEST(ProcessTest, SequentialSleepsAccumulate) {
  Engine eng;
  std::vector<Time> marks;
  eng.spawn(multi_sleeper(eng, marks));
  eng.run();
  ASSERT_EQ(marks.size(), 4u);
  EXPECT_EQ(marks[0], Time{0ns});
  EXPECT_EQ(marks[1], Time{10ns});
  EXPECT_EQ(marks[2], Time{10ns});
  EXPECT_EQ(marks[3], Time{15ns});
}

Process parent(Engine& eng, bool& child_done_first) {
  Time child_end{};
  auto child = eng.spawn(sleeper(eng, 100ns, child_end));
  co_await child.join();
  child_done_first = (child_end == Time{100ns}) && eng.now() >= Time{100ns};
}

TEST(ProcessTest, JoinWaitsForChild) {
  Engine eng;
  bool ok = false;
  eng.spawn(parent(eng, ok));
  eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(eng.failed_process_count(), 0);
}

Time g_ignored_time{};

Process joins_completed(Engine& eng, bool& resumed) {
  auto child = eng.spawn(sleeper(eng, 1ns, g_ignored_time));
  co_await eng.sleep(50ns);
  EXPECT_TRUE(child.done());
  co_await child.join();  // join after completion must be immediate
  resumed = true;
}

TEST(ProcessTest, JoinAfterCompletionIsImmediate) {
  Engine eng;
  bool resumed = false;
  eng.spawn(joins_completed(eng, resumed));
  eng.run();
  EXPECT_TRUE(resumed);
}

Process thrower(Engine& eng) {
  co_await eng.sleep(10ns);
  throw Error("boom");
}

Process join_thrower(Engine& eng, bool& caught) {
  auto child = eng.spawn(thrower(eng));
  try {
    co_await child.join();
  } catch (const Error& e) {
    caught = std::string_view{e.what()} == "boom";
  }
}

TEST(ProcessTest, JoinRethrowsChildException) {
  Engine eng;
  bool caught = false;
  eng.spawn(join_thrower(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(eng.failed_process_count(), 0);  // error was observed
}

TEST(ProcessTest, UnobservedFailureIsCounted) {
  Engine eng;
  eng.spawn(thrower(eng));
  eng.run();
  EXPECT_EQ(eng.failed_process_count(), 1);
}

TEST(ProcessTest, CheckRethrowsAndMarksObserved) {
  Engine eng;
  auto p = eng.spawn(thrower(eng));
  eng.run();
  EXPECT_THROW(p.check(), Error);
  EXPECT_EQ(eng.failed_process_count(), 0);
}

TEST(ProcessTest, UnspawnedProcessIsDestroyedCleanly) {
  Engine eng;
  {
    auto p = sleeper(eng, 10ns, g_ignored_time);
    EXPECT_TRUE(p.valid());
    // dropped without spawn: frame must be freed without running the body
  }
  eng.run();
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(ProcessTest, EngineDestructionWithLiveProcessesIsClean) {
  Time woke{};
  {
    Engine eng;
    eng.spawn(sleeper(eng, 1h, woke));
    eng.run_until(Time{100ns});
    // Engine destroyed with the sleeper still suspended.
  }
  EXPECT_EQ(woke, Time{});
}

Process fan_out_root(Engine& eng, int& sum) {
  std::vector<Process> children;
  for (int i = 1; i <= 10; ++i) {
    children.push_back(eng.spawn([](Engine& e, int& s, int v) -> Process {
      co_await e.sleep(Duration{v});
      s += v;
    }(eng, sum, i)));
  }
  for (auto& c : children) co_await c.join();
}

TEST(ProcessTest, FanOutFanIn) {
  Engine eng;
  int sum = 0;
  eng.spawn(fan_out_root(eng, sum));
  eng.run();
  EXPECT_EQ(sum, 55);
}

// --- bookkeeping: live list, resettable list, callback slots ---------------

// Appends its id to a log when destroyed: records when a frame's locals die.
struct DestructionMark {
  std::vector<int>* log;
  int id;
  ~DestructionMark() { log->push_back(id); }
};

Process parked(Engine& eng, std::vector<int>& log, int id) {
  DestructionMark mark{&log, id};
  co_await eng.sleep(1h);
}

Process short_lived(Engine& eng, std::vector<int>& log, int id) {
  DestructionMark mark{&log, id};
  co_await eng.sleep(1ns);
}

TEST(EngineBookkeepingTest, ShutdownDestroysSuspendedFramesInSpawnOrder) {
  Engine eng;
  std::vector<int> parked_log;
  std::vector<int> finished_log;
  for (int id = 0; id < 6; ++id) {
    eng.spawn(parked(eng, parked_log, id));
    // Finishers retire from between the parked frames.
    eng.spawn(short_lived(eng, finished_log, 100 + id));
  }
  eng.run_until(Time{10ns});
  EXPECT_EQ(finished_log, (std::vector<int>{100, 101, 102, 103, 104, 105}));
  EXPECT_TRUE(parked_log.empty());

  eng.spawn(parked(eng, parked_log, 6));  // spawned, never started
  eng.spawn(parked(eng, parked_log, 7));
  eng.run_until(Time{20ns});
  eng.shutdown();
  EXPECT_EQ(parked_log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(eng.pending_events(), 0u);
}

// Its destructor spawns: shutdown must destroy the new frame too.
struct SpawnOnDestroy {
  Engine* eng;
  std::vector<int>* log;
  ~SpawnOnDestroy() { eng->spawn(parked(*eng, *log, 99)); }
};

Process parked_spawner(Engine& eng, std::vector<int>& log) {
  SpawnOnDestroy spawner{&eng, &log};
  co_await eng.sleep(1h);
}

TEST(EngineBookkeepingTest, ShutdownDestroysFramesSpawnedByDestructors) {
  Engine eng;
  std::vector<int> log;
  eng.spawn(parked(eng, log, 1));
  eng.spawn(parked_spawner(eng, log));
  eng.spawn(parked(eng, log, 2));
  eng.run_until(Time{1ns});
  eng.shutdown();
  // The frame spawned during shutdown never started, so it has no mark.
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_EQ(eng.failed_process_count(), 0);
}

class Probe final : public Resettable {
 public:
  Probe(Engine& eng, std::vector<int>& log, int id) : eng_{eng}, log_{log}, id_{id} {
    eng.register_resettable(this);
  }
  ~Probe() { eng_.deregister_resettable(this); }
  void reset_waiters() noexcept override { log_.push_back(id_); }

 private:
  Engine& eng_;
  std::vector<int>& log_;
  int id_;
};

TEST(EngineBookkeepingTest, DeregisteredResettablesAreNotResetAtShutdown) {
  Engine eng;
  std::vector<int> log;
  std::vector<std::unique_ptr<Probe>> probes;
  for (int id = 0; id < 100; ++id) probes.push_back(std::make_unique<Probe>(eng, log, id));
  // Destroyed from the head, the middle and the tail of the list.
  for (int id : {0, 50, 99}) probes[id].reset();
  // Deregistered but alive; its destructor deregisters a second time.
  eng.deregister_resettable(probes[10].get());

  eng.shutdown();
  std::vector<int> want;
  for (int id = 1; id < 99; ++id) {
    if (id != 10 && id != 50) want.push_back(id);
  }
  EXPECT_EQ(log, want);  // registration order, each survivor once
}

TEST(EngineBookkeepingTest, CallbackThatSchedulesReusesItsSlot) {
  Engine eng;
  std::vector<std::string> seen;
  // Heap-allocated captures: a slot reused while its callback still ran in
  // place would free `first` under the running call.
  eng.schedule(1ns, [&eng, &seen, first = std::string(64, 'a')] {
    eng.schedule(1ns, [&eng, &seen, second = std::string(64, 'b')] {
      seen.push_back(second);
      eng.schedule_now([&seen] { seen.push_back("c"); });
    });
    seen.push_back(first);
  });
  eng.run();
  EXPECT_EQ(seen, (std::vector<std::string>{std::string(64, 'a'), std::string(64, 'b'), "c"}));
  EXPECT_EQ(eng.now(), Time{2ns});
  EXPECT_EQ(eng.events_processed(), 3u);

  // A long chain through one reused slot keeps time order.
  int fired = 0;
  std::function<void()> next = [&] {
    if (++fired < 1000) eng.schedule(1ns, next);
  };
  eng.schedule_now(next);
  eng.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(eng.now(), Time{2ns + 999ns});
}

Process tie_marker(Engine& eng, std::vector<int>& order) {
  co_await eng.sleep(5ns);
  order.push_back(2);
}

TEST(EngineBookkeepingTest, ResumesAndCallbacksShareOneSequence) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(5ns, [&] { order.push_back(0); });
  eng.spawn(tie_marker(eng, order));  // its sleep is queued at t=0, after both
  eng.schedule(5ns, [&] { order.push_back(1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EngineBookkeepingTest, EngineRunsNormallyAfterShutdown) {
  Engine eng;
  std::vector<int> log;
  eng.spawn(parked(eng, log, 1));
  int stale = 0;
  eng.schedule(1h, [&] { ++stale; });
  eng.run_until(Time{10ns});
  eng.shutdown();
  ASSERT_EQ(log, (std::vector<int>{1}));

  // The crash-walk reuse path: the same engine hosts the next world.
  Time woke{};
  auto p = eng.spawn(sleeper(eng, 5ns, woke));
  int fresh = 0;
  eng.schedule(2ns, [&] { ++fresh; });
  eng.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(woke, Time{15ns});
  EXPECT_EQ(fresh, 1);
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(eng.failed_process_count(), 0);
}

Process churn_driver(Engine& eng, int spawns, int& finished) {
  for (int i = 0; i < spawns; ++i) {
    eng.spawn([](Engine& e, int& done) -> Process {
      co_await e.sleep(1ns);
      ++done;
    }(eng, finished));
    if (i % 1000 == 999) co_await eng.sleep(1ns);
  }
}

TEST(EngineBookkeepingTest, ShortLivedSpawnsBesideLongLivedOnes) {
  Engine eng;
  std::vector<int> parked_log;
  for (int id = 0; id < 10'000; ++id) eng.spawn(parked(eng, parked_log, id));
  int finished = 0;
  auto driver = eng.spawn(churn_driver(eng, 100'000, finished));
  eng.run_until(Time{1ms});
  EXPECT_TRUE(driver.done());
  EXPECT_EQ(finished, 100'000);
  EXPECT_EQ(eng.failed_process_count(), 0);
  EXPECT_TRUE(parked_log.empty());
  eng.shutdown();
  ASSERT_EQ(parked_log.size(), 10'000u);
  EXPECT_EQ(parked_log.front(), 0);
  EXPECT_EQ(parked_log.back(), 9'999);
  EXPECT_EQ(eng.failed_process_count(), 0);
}

}  // namespace
}  // namespace portus::sim
