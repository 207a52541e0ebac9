//===- support/ThreadPool.h - Work-stealing worker pool with task groups --===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate of the parallel analysis engine (`--jobs N`).
/// A `ThreadPool` owns a fixed set of worker threads; work is submitted
/// through `TaskGroup`s, which scope a batch of tasks so the submitter can
/// wait for exactly its own work.
///
/// Two scheduling disciplines (`--schedule`):
///
///  * `Steal` (default): each worker owns a deque in the Chase-Lev style —
///    the owner pushes and pops at the back (LIFO, so a task's children run
///    while their working set is hot), thieves take from the front (FIFO,
///    so the oldest — typically largest — subtree migrates). Tasks spawned
///    from outside the pool land in a shared inbox that idle workers drain
///    before stealing; steal victims are visited in a per-worker randomized
///    order to avoid convoying.
///  * `Fifo`: the legacy single shared FIFO queue (the inbox), kept as an
///    escape hatch and as the baseline the scheduling bench compares
///    against.
///
/// Group semantics are identical in both modes:
///
///  * `spawn` never blocks — tasks queue and run as workers free up;
///  * `wait` is a *helping* wait: while its group has pending tasks, the
///    waiting thread pops and runs queued tasks inline instead of idling.
///    This makes nested waits deadlock-free — a task running on the last
///    worker can spawn subtasks into a fresh group and wait on them (the
///    reentrancy guard the scheduler and the checker fan-out rely on).
///    While a shutdown is pending (`requestStop`), helping narrows to the
///    waiter's *own* group: running another group's backlog inline would
///    delay the cancel drain (the SIGINT path wants each waiter to finish
///    just its own stragglers and return);
///  * the first exception thrown by a task of a group is captured and
///    rethrown from that group's `wait()`; remaining tasks still run
///    (analysis tasks isolate their own failures — a group-level throw is
///    an engine bug, not a degradation path).
///
/// Scheduling order is best-effort and completion order is always
/// nondeterministic; callers that need deterministic output write results
/// into pre-sized slots indexed by task and merge after `wait()` (see
/// svfa/Pipeline.cpp and tools/PinpointTool.cpp). Priority is the caller's
/// job, encoded in spawn order: the pipeline dispatches ready SCCs ordered
/// by upward rank (DESIGN.md section 14) and the pool preserves that order
/// where its discipline allows.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_THREADPOOL_H
#define PINPOINT_SUPPORT_THREADPOOL_H

#include "support/Interrupt.h"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pinpoint {

class ThreadPool {
public:
  /// Scheduling discipline for queued tasks.
  enum class Schedule {
    Fifo, ///< One shared FIFO queue (legacy; `--schedule=fifo`).
    Steal ///< Per-worker LIFO deques with randomized stealing (default).
  };

  /// Starts \p Workers worker threads (at least one).
  explicit ThreadPool(unsigned Workers, Schedule Mode = Schedule::Steal);
  /// Joins the workers. All TaskGroups must have completed their waits.
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workers() const { return static_cast<unsigned>(Threads.size()); }
  Schedule schedule() const { return Mode; }

  /// True when the calling thread is one of this pool's workers. Spawns
  /// from a worker land on its own LIFO deque (steal mode) while external
  /// spawns queue FIFO in the inbox, so a caller ordering sibling spawns by
  /// priority needs to know which discipline will receive them.
  bool currentThreadIsWorker() const;

  /// std::thread::hardware_concurrency(), never 0.
  static unsigned hardwareConcurrency();

  /// Cancels the shutdown token and wakes every worker — the single drain
  /// path shared by destructor teardown and explicit cancellation. Workers
  /// exit at their next task boundary; queued tasks still drain through
  /// helping waits (`TaskGroup::wait`), so pending groups complete — each
  /// waiter running only its own group's tasks once the stop is pending.
  void requestStop();

  /// The token the worker loops observe. Exposed so lifecycle tests can
  /// assert the drain path; cancelling it directly is equivalent to
  /// `requestStop()` minus the wakeup (prefer `requestStop`).
  const CancelToken &shutdownToken() const { return Shutdown; }

  /// Scheduling counters, monotone over the pool's lifetime. All of them
  /// reflect nondeterministic interleaving and are exempt from the
  /// cross-run determinism contract; they feed the `[sched]` stats line.
  struct SchedStats {
    uint64_t LocalPops = 0; ///< Owner popped its own deque (LIFO hit).
    uint64_t InboxPops = 0; ///< Popped from the shared inbox.
    uint64_t Steals = 0;    ///< Took the front of another worker's deque.
  };
  SchedStats schedStats() const;

  /// A batch of tasks that can be waited on together. Not thread-safe
  /// itself: spawn/wait from one owner thread (tasks may spawn into their
  /// own group's pool via a nested TaskGroup).
  class TaskGroup {
  public:
    explicit TaskGroup(ThreadPool &Pool) : Pool(Pool) {}
    /// Waits for stragglers; exceptions are swallowed here — call wait()
    /// explicitly to observe them.
    ~TaskGroup();
    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /// Enqueues \p Fn; never blocks. Safe to call from inside a task.
    void spawn(std::function<void()> Fn);

    /// Blocks until every task spawned into this group has finished,
    /// helping to drain queued tasks meanwhile (restricted to this group's
    /// tasks while a pool shutdown is pending). Rethrows the first
    /// exception any task of this group threw.
    void wait();

  private:
    friend class ThreadPool;
    ThreadPool &Pool;
    size_t Pending = 0;     ///< Guarded by Pool.Mu.
    std::exception_ptr Err; ///< Guarded by Pool.Mu; first failure wins.
  };

private:
  struct Task {
    std::function<void()> Fn;
    TaskGroup *Group;
  };

  /// One worker's deque. Own mutex so local pushes/pops and steals never
  /// touch the pool-wide lock; the global Mu/Cv pair is only for sleeping
  /// and for the Pending/Err ledgers.
  struct WorkerDeque {
    std::mutex Mu;
    std::deque<Task> Deque;
    // Per-worker steal counters, aggregated by schedStats(). Guarded by
    // this->Mu (bumped only by the owning worker right after a pop).
    uint64_t LocalPops = 0;
    uint64_t Steals = 0;
    uint64_t InboxPops = 0;
    uint64_t RngState = 0; ///< Victim-shuffle state; owner-thread only.
  };

  void workerLoop(size_t Index);
  void runTask(Task T);
  /// Enqueues \p T: a worker of this pool pushes the back of its own deque
  /// (steal mode); everything else goes to the shared inbox.
  void push(Task T);
  /// Dequeues any runnable task for worker \p Index: own back, inbox
  /// front, then randomized steal. Returns false when everything is empty.
  bool popForWorker(size_t Index, Task &Out);
  /// Dequeues a task for a helping waiter. When \p Only is non-null, only
  /// tasks of that group qualify (the shutdown-pending restriction).
  bool popForHelper(TaskGroup *Only, Task &Out);
  bool allQueuesEmpty();

  Schedule Mode;
  std::mutex Mu;               ///< Guards Pending/Err/Epoch; sleep lock.
  std::condition_variable Cv;
  uint64_t Epoch = 0; ///< Bumped (under Mu) after every push; wakeup token.
  mutable std::mutex InboxMu;
  std::deque<Task> Inbox; ///< External spawns and all fifo-mode tasks.
  uint64_t HelperPops = 0; ///< Inbox pops by helping waiters; guarded by InboxMu.
  std::vector<std::unique_ptr<WorkerDeque>> Deques; ///< One per worker.
  std::vector<std::thread> Threads;
  /// Worker shutdown signal. A CancelToken instead of a plain flag so
  /// teardown reuses the same cancellation primitive the rest of the
  /// lifecycle layer polls; it is still flipped under Mu (and observed
  /// under Mu in the wait predicate) to keep the no-missed-wakeup protocol.
  CancelToken Shutdown;
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_THREADPOOL_H
