#include "sim/sim_scheduler.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/epoch.h"

namespace mvcc {
namespace sim {

namespace {

// Thrown through a task body when the scheduler tears the run down
// (deadlock, step cap, or WAL crash). Task bodies in this codebase are
// exception-safe: Transaction destructors abort in-flight work.
struct SimKilled {};

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

}  // namespace

thread_local SimScheduler::Task* SimScheduler::tls_task_ = nullptr;

std::string SimReport::Summary() const {
  std::ostringstream out;
  out << "seed=" << seed << " steps=" << steps << " hash=" << std::hex
      << schedule_hash << std::dec << " commits=" << commits
      << " aborts=" << aborts;
  if (deadlock) out << " DEADLOCK";
  if (wal_crashed) out << " wal-crash";
  if (env_crashed) out << " env-crash";
  if (!violations.empty()) {
    out << " violations=" << violations.size() << " [";
    for (size_t i = 0; i < violations.size(); ++i) {
      if (i > 0) out << "; ";
      out << violations[i];
    }
    out << "]";
  }
  return out.str();
}

SimScheduler::SimScheduler(const Options& options)
    : options_(options),
      rng_(options.seed),
      // Independent stream so adding a schedule decision does not shift
      // every later fault decision (and vice versa).
      fault_rng_(options.seed ^ 0xF4017A1EC7ED5EEDULL) {
  report_.seed = options.seed;
  report_.schedule_hash = kFnvOffset;
}

SimScheduler::~SimScheduler() {
  // Run() joins everything; guard against a scheduler that was
  // constructed but never run.
  for (auto& task : tasks_) {
    if (task->thread.joinable()) {
      {
        std::lock_guard<std::mutex> guard(lock_);
        kill_all_.store(true, std::memory_order_release);
        current_ = task->index;
      }
      cv_.notify_all();
      task->thread.join();
    }
  }
  if (InstalledSimHook() == this) InstallSimHook(nullptr);
}

void SimScheduler::Spawn(std::string name, bool expect_wait_free,
                         std::function<void()> body) {
  MVCC_CHECK(!ran_);
  auto task = std::make_unique<Task>();
  task->name = std::move(name);
  task->expect_wait_free = expect_wait_free;
  task->body = std::move(body);
  task->index = static_cast<int>(tasks_.size());
  tasks_.push_back(std::move(task));
}

void SimScheduler::AddViolation(std::string violation) {
  std::lock_guard<std::mutex> guard(lock_);
  report_.violations.push_back(std::move(violation));
}

void SimScheduler::HashMix(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    report_.schedule_hash ^= (v >> (8 * i)) & 0xFF;
    report_.schedule_hash *= kFnvPrime;
  }
}

void SimScheduler::HashMixString(const char* s) {
  for (; *s != '\0'; ++s) {
    report_.schedule_hash ^= static_cast<unsigned char>(*s);
    report_.schedule_hash *= kFnvPrime;
  }
}

void SimScheduler::TaskMain(Task* task) {
  tls_task_ = task;
  {
    std::unique_lock<std::mutex> lock(lock_);
    cv_.wait(lock, [&] { return current_ == task->index; });
    if (kill_all_.load(std::memory_order_acquire)) task->killed = true;
  }
  if (!task->killed) {
    try {
      task->body();
    } catch (const SimKilled&) {
      // Teardown requested mid-body; destructors already ran.
    }
  }
  {
    std::lock_guard<std::mutex> guard(lock_);
    task->done = true;
    last_yield_blocked_ = false;  // finishing counts as progress
    current_ = kNoTask;
  }
  cv_.notify_all();
}

void SimScheduler::YieldFromTask(const char* where, bool blocked) {
  Task* task = tls_task_;
  if (task == nullptr) {
    // A non-simulated thread hit a hook point while a simulation is
    // installed (should not happen in practice; be safe, not wedged).
    std::this_thread::yield();
    return;
  }
  if (task->killed) return;  // unwinding — run destructors to completion
  std::unique_lock<std::mutex> lock(lock_);
  task->last_where = where;
  if (blocked && task->expect_wait_free && !task->wait_free_violated) {
    task->wait_free_violated = true;
    report_.violations.push_back("wait-freedom: read-only task '" +
                                 task->name + "' blocked at " + where);
  }
  HashMix(static_cast<uint64_t>(task->index));
  HashMixString(where);
  HashMix(blocked ? 1 : 2);
  last_yield_blocked_ = blocked;
  current_ = kNoTask;
  cv_.notify_all();
  cv_.wait(lock, [&] { return current_ == task->index; });
  if (kill_all_.load(std::memory_order_acquire)) {
    task->killed = true;
    throw SimKilled{};
  }
}

void SimScheduler::SchedulePoint(const char* where) {
  YieldFromTask(where, /*blocked=*/false);
}

void SimScheduler::BlockedPoint(const char* where) {
  YieldFromTask(where, /*blocked=*/true);
}

void SimScheduler::Observe(const void* source, const char* what, uint64_t a,
                           uint64_t b) {
  // Runs in the (single) currently-executing task, possibly under module
  // locks — never yields. Successive Observe calls from different task
  // threads are ordered by the lock_ handoffs between turns, so plain
  // member access is race-free. `source` is a pointer and varies across
  // runs, so it must never feed the schedule hash.
  HashMixString(what);
  HashMix(a);
  HashMix(b);
  const bool vc_event = what[0] == 'v' && what[1] == 'c' && what[2] == '.';
  if (vc_event && b != 0 && a >= b) {
    std::ostringstream out;
    out << "vtnc invariant: " << what << " reported number " << a
        << " >= counter " << b;
    report_.violations.push_back(out.str());
  }
  if (vc_event && what[3] == 'v') {  // "vc.vtnc"
    uint64_t& last = last_vtnc_[source];
    if (a < last) {
      std::ostringstream out;
      out << "vtnc monotonicity: advanced backwards from " << last << " to "
          << a;
      report_.violations.push_back(out.str());
    }
    last = a;
  }
  if (options_.observe_listener) {
    options_.observe_listener(source, what, a, b);
  }
}

bool SimScheduler::ShouldDropMessage(int from_site, int to_site) {
  (void)from_site;
  (void)to_site;
  if (options_.faults.message_drop_probability <= 0.0) return false;
  const bool drop = fault_rng_.Bernoulli(options_.faults.message_drop_probability);
  HashMix(drop ? 0xD0D0 : 0xACCE);
  return drop;
}

uint32_t SimScheduler::MessageDelaySteps(int from_site, int to_site) {
  (void)from_site;
  (void)to_site;
  if (options_.faults.message_delay_max_steps == 0) return 0;
  const uint32_t steps = static_cast<uint32_t>(
      fault_rng_.Uniform(options_.faults.message_delay_max_steps + 1));
  HashMix(0xDE1A00ULL | steps);
  return steps;
}

bool SimScheduler::OnWalAppend(uint64_t tn) {
  HashMix(0x3A1000ULL);
  HashMix(tn);
  const int64_t index =
      wal_appends_.fetch_add(1, std::memory_order_relaxed);
  if (options_.faults.crash_at_wal_append >= 0 &&
      index >= options_.faults.crash_at_wal_append) {
    wal_crash_pending_.store(true, std::memory_order_release);
    return true;
  }
  return false;
}

bool SimScheduler::OnEnvOp(const char* op, uint64_t index) {
  HashMix(0x3A2000ULL);
  HashMixString(op);
  HashMix(index);
  if (options_.faults.crash_at_env_op >= 0 &&
      (env_crashed_.load(std::memory_order_relaxed) ||
       index >= static_cast<uint64_t>(options_.faults.crash_at_env_op))) {
    env_crashed_.store(true, std::memory_order_relaxed);
    report_.env_crashed = true;
    return true;
  }
  return false;
}

void SimScheduler::RunTaskOnce(std::unique_lock<std::mutex>& lock,
                               Task* task) {
  current_ = task->index;
  cv_.notify_all();
  cv_.wait(lock, [&] { return current_ == kNoTask; });
}

void SimScheduler::KillRemaining(std::unique_lock<std::mutex>& lock) {
  kill_all_.store(true, std::memory_order_release);
  // Resume each live task until it unwinds and finishes. A task may
  // still hit hook points while unwinding; those no-op (task->killed).
  while (true) {
    Task* alive = nullptr;
    for (auto& task : tasks_) {
      if (!task->done) {
        alive = task.get();
        break;
      }
    }
    if (alive == nullptr) break;
    RunTaskOnce(lock, alive);
  }
}

void SimScheduler::Run() {
  MVCC_CHECK(!ran_);
  ran_ = true;
  MVCC_CHECK(InstalledSimHook() == nullptr);
  // Start from an empty reclamation backlog. The epoch manager is
  // process-global and auto-advances on backlog size, so a backlog left
  // by earlier work in the process would move every observed
  // "ebr.advance" and make same-seed runs hash apart. Nothing is pinned
  // between runs, so a few advances age every retired object out.
  EpochManager& ebr = EpochManager::Global();
  for (int i = 0; i < 3 && ebr.retired_count() > 0; ++i) ebr.Advance();
  InstallSimHook(this);
  for (auto& task : tasks_) {
    task->thread = std::thread(&SimScheduler::TaskMain, this, task.get());
  }

  {
    std::unique_lock<std::mutex> lock(lock_);
    uint64_t blocked_streak = 0;
    std::vector<Task*> runnable;
    while (true) {
      runnable.clear();
      for (auto& task : tasks_) {
        if (!task->done) runnable.push_back(task.get());
      }
      if (runnable.empty()) break;

      if (wal_crash_pending_.load(std::memory_order_acquire)) {
        report_.wal_crashed = true;
        KillRemaining(lock);
        break;
      }
      if (report_.steps >= options_.max_steps) {
        report_.violations.push_back("step cap exceeded (livelock?)");
        KillRemaining(lock);
        break;
      }
      if (blocked_streak >= options_.blocked_streak_limit &&
          blocked_streak >= runnable.size()) {
        report_.deadlock = true;
        std::ostringstream out;
        out << "deadlock: no task progressed in " << blocked_streak
            << " yields:";
        for (Task* task : runnable) {
          out << " " << task->name << "@" << task->last_where;
        }
        report_.violations.push_back(out.str());
        KillRemaining(lock);
        break;
      }

      Task* pick = runnable[rng_.Uniform(runnable.size())];
      RunTaskOnce(lock, pick);
      ++report_.steps;
      blocked_streak = last_yield_blocked_ ? blocked_streak + 1 : 0;
    }
  }

  for (auto& task : tasks_) task->thread.join();
  InstallSimHook(nullptr);
}

}  // namespace sim
}  // namespace mvcc
