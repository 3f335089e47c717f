// Lock-contention microbenchmark: hot-hit throughput of the sharded Data
// Store and Page Space Manager against the single-lock (shards = 1)
// configuration, swept over worker-thread counts 1 -> 128 (DESIGN.md §10).
//
//   micro_contention [--threads 1,2,4,8,16,32,64,128] [--shards 16]
//                    [--ops 200000] [--trials 3] [--pages 256] [--blobs 256]
//                    [--json-dir DIR] [--smoke]
//
// Every data point performs a fixed total number of hot-hit operations
// (`--ops`, split evenly over the threads, so each point costs the same
// work) and reports the best of `--trials` runs, with the median, min and
// max over the trials in a second table: PS = read-through fetch()
// of already-resident pages, DS = noteReuse() recency touches of resident
// blobs. Both are pure lock-protected fast paths — no I/O, no eviction —
// so the sweep isolates lock acquisition cost. Each thread sums what it
// reads locally and publishes once after its loop, so no shared counter
// sits inside the timed loop. The third table reports
// the contended-acquisition counts from mqs::lockstats (the same counters
// the server emits as LOCK_WAIT_* trace events).
//
// --smoke runs only the 8-thread PS point (sharded vs single lock) and
// exits nonzero if sharding falls behind the single lock beyond noise;
// the CI matrices run it as a guardrail test.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/lock_stats.hpp"
#include "datastore/data_store.hpp"
#include "index/chunk_layout.hpp"
#include "pagespace/page_space_manager.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

using namespace mqs;

namespace {

struct RunResult {
  double opsPerSec = 0.0;
  std::uint64_t contended = 0;  ///< blocked lock acquisitions during the run
};

/// One data point over its trials: the best run (with its contention
/// count) plus the spread of throughput across all runs.
struct TrialStats {
  RunResult best;
  double median = 0.0;  ///< ops/s
  double min = 0.0;
  double max = 0.0;
};

TrialStats summarize(std::vector<RunResult> runs) {
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.opsPerSec < b.opsPerSec;
  });
  const std::size_t n = runs.size();
  TrialStats s;
  s.best = runs.back();
  s.median = n % 2 == 1 ? runs[n / 2].opsPerSec
                        : (runs[n / 2 - 1].opsPerSec + runs[n / 2].opsPerSec) / 2;
  s.min = runs.front().opsPerSec;
  s.max = runs.back().opsPerSec;
  return s;
}

std::uint64_t contendedSum(lockorder::Rank shardRank, lockorder::Rank bigRank) {
  return lockstats::countsFor(shardRank).contended +
         lockstats::countsFor(bigRank).contended;
}

/// Run `totalOps` calls of op(threadIndex, i) split over `threads` threads,
/// all released together off a spin barrier; returns hot-op throughput and
/// the contended-acquisition delta on the subsystem's two lock ranks. Each
/// thread sums op's results locally and adds the sum to `sink` once, after
/// its timed loop, so the result is used without a shared write per op.
template <typename Op>
RunResult hammer(int threads, std::uint64_t totalOps,
                 lockorder::Rank shardRank, lockorder::Rank bigRank,
                 std::atomic<std::uint64_t>& sink, Op op) {
  const std::uint64_t per =
      std::max<std::uint64_t>(1, totalOps / static_cast<std::uint64_t>(threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  const std::uint64_t before = contendedSum(shardRank, bigRank);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_relaxed);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t local = 0;
      for (std::uint64_t i = 0; i < per; ++i) local += op(t, i);
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  while (ready.load(std::memory_order_relaxed) < threads) {
    std::this_thread::yield();
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  RunResult r;
  r.opsPerSec = static_cast<double>(per) * threads / wall;
  r.contended = contendedSum(shardRank, bigRank) - before;
  return r;
}

/// Cheap per-thread mixer so every thread walks its own key sequence.
std::uint64_t mix(std::uint64_t t, std::uint64_t i) {
  std::uint64_t x = (t + 1) * 0x9e3779b97f4a7c15ULL + i * 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// Page Space hot hits: fetch() of pages that are all resident (capacity
/// far above the working set, prewarmed before the clock starts).
TrialStats runPs(int threads, int shards, std::uint64_t totalOps, int pages,
                 int trials) {
  const index::ChunkLayout layout(64 * pages, 64, 64);
  const storage::SyntheticSlideSource slide(layout, /*seed=*/7);
  std::vector<RunResult> runs;
  for (int trial = 0; trial < trials; ++trial) {
    pagespace::PageSpaceManager ps(1ULL << 30, /*ioThreads=*/0,
                                   pagespace::RetryPolicy{}, shards);
    ps.attach(0, &slide);
    for (std::uint64_t p = 0; p < layout.chunkCount(); ++p) {
      (void)ps.fetch({0, p});
    }
    std::atomic<std::uint64_t> sink{0};
    const std::uint64_t nPages = layout.chunkCount();
    runs.push_back(hammer(threads, totalOps, lockorder::Rank::kPageSpaceShard,
                          lockorder::Rank::kPageSpace, sink,
                          [&](std::uint64_t t, std::uint64_t i) {
                            const storage::PageKey key{0, mix(t, i) % nPages};
                            return ps.fetch(key)->size();
                          }));
  }
  return summarize(std::move(runs));
}

/// Data Store hot hits: noteReuse() recency touches of resident blobs
/// (ids hash across shards; no lookup scan, no eviction).
TrialStats runDs(int threads, int shards, std::uint64_t totalOps, int blobs,
                 int trials) {
  vm::VMSemantics sem;
  const storage::DatasetId dataset =
      sem.addDataset(index::ChunkLayout(8192, 8192, 64));
  std::vector<RunResult> runs;
  for (int trial = 0; trial < trials; ++trial) {
    datastore::DataStore ds(1ULL << 30, &sem, datastore::EvictionPolicy::Lru,
                            shards);
    std::vector<datastore::BlobId> ids;
    for (int b = 0; b < blobs; ++b) {
      auto pred = std::make_unique<vm::VMPredicate>(
          dataset, Rect::ofSize((b % 64) * 128, (b / 64) * 128, 64, 64),
          /*zoom=*/2, vm::VMOp::Subsample);
      const std::uint64_t bytes = vm::asVM(*pred).outBytes();
      const auto id = ds.insert(std::move(pred), {}, bytes);
      if (id.has_value()) ids.push_back(*id);
    }
    std::atomic<std::uint64_t> sink{0};
    runs.push_back(hammer(threads, totalOps, lockorder::Rank::kDataStoreShard,
                          lockorder::Rank::kDataStore, sink,
                          [&](std::uint64_t t, std::uint64_t i) {
                            ds.noteReuse(ids[mix(t, i) % ids.size()], 1.0);
                            return std::uint64_t{0};
                          }));
  }
  return summarize(std::move(runs));
}

double mops(const RunResult& r) { return r.opsPerSec / 1e6; }
double mops(double opsPerSec) { return opsPerSec / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  bench::Context ctx(argc, argv, "contention");
  const Options& opts = ctx.options();
  const int shards = static_cast<int>(opts.getInt("shards", 16));
  const std::uint64_t ops =
      static_cast<std::uint64_t>(opts.getInt("ops", 200000));
  const int trials = std::max(1, static_cast<int>(opts.getInt("trials", 3)));
  const int pages = static_cast<int>(opts.getInt("pages", 256));
  const int blobs = static_cast<int>(opts.getInt("blobs", 256));

  if (opts.getBool("smoke", false)) {
    // Guardrail, not a speedup assertion: on a loaded or single-core CI
    // box the sharded path must simply not be slower than the single lock
    // beyond noise (best of `trials`, 15% margin).
    const int threads = static_cast<int>(opts.getInt("smoke-threads", 8));
    const RunResult single = runPs(threads, 1, ops, pages, trials).best;
    const RunResult sharded = runPs(threads, shards, ops, pages, trials).best;
    const double ratio = sharded.opsPerSec / single.opsPerSec;
    std::cout << "# smoke: ps hot-hit @" << threads << " threads: single "
              << formatDouble(mops(single), 3) << " Mops/s (contended "
              << single.contended << "), sharded x" << shards << " "
              << formatDouble(mops(sharded), 3) << " Mops/s (contended "
              << sharded.contended << "), ratio "
              << formatDouble(ratio, 3) << "\n";
    if (ratio < 0.85) {
      std::cout << "# FAIL: sharded path slower than the single lock\n";
      return 1;
    }
    return 0;
  }

  ctx.printHeader();
  // The scaling gap is a function of real hardware parallelism: on a
  // single-core host every thread count serializes and both configs
  // converge, so record the host width next to the sweep.
  std::cout << "# host hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";
  const auto threadList =
      opts.getIntList("threads", {1, 2, 4, 8, 16, 32, 64, 128});

  Table tput("hot_hit_mops");
  tput.setColumns({"threads", "ps_single", "ps_sharded", "ps_speedup",
                   "ds_single", "ds_sharded", "ds_speedup"});
  // Median [min, max] over the trials for each best figure above: a wide
  // spread means the best alone is not a trustworthy point.
  Table spread("hot_hit_mops_spread");
  spread.setColumns({"threads", "ps_single_med", "ps_single_min",
                     "ps_single_max", "ps_sharded_med", "ps_sharded_min",
                     "ps_sharded_max", "ds_single_med", "ds_single_min",
                     "ds_single_max", "ds_sharded_med", "ds_sharded_min",
                     "ds_sharded_max"});
  Table cont("contended_acquisitions");
  cont.setColumns({"threads", "ps_single", "ps_sharded", "ds_single",
                   "ds_sharded"});
  for (std::int64_t t : threadList) {
    const int threads = static_cast<int>(t);
    const TrialStats ps1s = runPs(threads, 1, ops, pages, trials);
    const TrialStats psNs = runPs(threads, shards, ops, pages, trials);
    const TrialStats ds1s = runDs(threads, 1, ops, blobs, trials);
    const TrialStats dsNs = runDs(threads, shards, ops, blobs, trials);
    const RunResult& ps1 = ps1s.best;
    const RunResult& psN = psNs.best;
    const RunResult& ds1 = ds1s.best;
    const RunResult& dsN = dsNs.best;
    std::vector<double> spreadRow;
    for (const TrialStats* st : {&ps1s, &psNs, &ds1s, &dsNs}) {
      spreadRow.insert(spreadRow.end(),
                       {mops(st->median), mops(st->min), mops(st->max)});
    }
    spread.addRow(std::to_string(threads), spreadRow);
    tput.addRow(std::to_string(threads),
                {mops(ps1), mops(psN), psN.opsPerSec / ps1.opsPerSec,
                 mops(ds1), mops(dsN), dsN.opsPerSec / ds1.opsPerSec});
    cont.addRow(std::to_string(threads),
                {static_cast<double>(ps1.contended),
                 static_cast<double>(psN.contended),
                 static_cast<double>(ds1.contended),
                 static_cast<double>(dsN.contended)},
                /*precision=*/0);
  }
  ctx.emit(tput);
  ctx.emit(spread);
  ctx.emit(cont);
  return 0;
}
