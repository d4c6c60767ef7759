// Deterministic fixed-size thread pool for the batch-assignment hot path.
//
// Design constraints (why this is NOT a general work-stealing executor):
//
//   * Determinism first. Every parallel construct in this codebase must
//     produce bit-identical results for 1 vs N threads, so each experiment
//     table stays reproducible and every existing test doubles as a
//     determinism oracle. The pool therefore offers only *statically
//     sharded* data parallelism: an index range is split into contiguous
//     shards in a fixed order, each index writes to its own disjoint output
//     slot, and any reduction is performed by the caller in shard order.
//     There is no work stealing, no task reordering, and no
//     scheduler-dependent result anywhere.
//
//   * One thread means zero overhead. A pool constructed with
//     num_threads <= 1 spawns no workers at all; ParallelFor degenerates to
//     a plain loop on the calling thread, byte-identical to the
//     pre-threading code path.
//
// RNG note: the hot paths parallelized so far (order-graph edge weights,
// FOODGRAPH edge fill, route rebuilds) are RNG-free. Code that
// does need randomness inside a ParallelFor must derive one Rng per *shard
// index* (e.g. Rng(seed ^ shard)) — never share a generator across shards —
// so the stream consumed by shard i is independent of the thread count.
#ifndef FOODMATCH_COMMON_THREAD_POOL_H_
#define FOODMATCH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fm {

/// \brief Fixed-size pool of worker threads executing statically sharded
/// jobs.
///
/// Thread safety: RunShards() may be called from one thread at a time (it is
/// a blocking, non-reentrant fork-join primitive); construction and
/// destruction must happen on a single thread. The shard function runs
/// concurrently on the workers and the calling thread and must only touch
/// shard-disjoint state.
///
/// Complexity: RunShards dispatches n shards with O(n) lock operations and
/// joins with one condition-variable wait; there is no per-element
/// synchronization.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total execution lanes (including the
  /// calling thread). Values <= 1 create an inline pool with no workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread); always >= 1.
  int num_threads() const { return num_threads_; }

  /// Runs fn(shard) for every shard in [0, num_shards), blocking until all
  /// complete. Shards are claimed from a shared counter, so the assignment
  /// of shards to threads is nondeterministic — correctness (and
  /// determinism) requires fn to write only shard-private state. The calling
  /// thread participates, so an inline pool simply runs the loop serially in
  /// ascending shard order.
  void RunShards(int num_shards, const std::function<void(int)>& fn);

  /// Resolves a thread-count request: n >= 1 is taken literally; n <= 0
  /// means "use the hardware concurrency" (at least 1).
  static int ResolveThreadCount(int requested);

 private:
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  // Current job, valid while next_shard_ < job_shards_.
  const std::function<void(int)>* job_ = nullptr;
  int job_shards_ = 0;
  int next_shard_ = 0;
  int shards_in_flight_ = 0;
  std::uint64_t job_epoch_ = 0;
  bool shutdown_ = false;
};

/// \brief Deterministic parallel loop: runs body(i) for every i in [0, n).
///
/// The range is split into at most `pool->num_threads()` contiguous shards
/// of near-equal size. Results are bit-identical for any thread count
/// provided body(i) depends only on i and writes only to position i (the
/// contract every caller in this codebase follows). `pool == nullptr` or an
/// inline pool runs the plain serial loop.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& body);

/// \brief Sharded variant for loops that carry per-shard accumulators.
///
/// Splits [0, n) into exactly `ShardCount(pool, n)` contiguous shards and
/// calls body(shard, begin, end) once per shard. Callers that accumulate
/// (counters, partial minima) do so into a per-shard slot and reduce over
/// shards in ascending order afterwards — the reduction order is then fixed
/// regardless of thread count, which keeps integer sums and floating-point
/// reductions bit-stable.
void ParallelForShards(
    ThreadPool* pool, std::size_t n,
    const std::function<void(int shard, std::size_t begin, std::size_t end)>&
        body);

/// Number of shards ParallelForShards will use for a range of length n with
/// this pool (min(num_threads, n), at least 1 when n > 0).
int ShardCount(const ThreadPool* pool, std::size_t n);

}  // namespace fm

#endif  // FOODMATCH_COMMON_THREAD_POOL_H_
