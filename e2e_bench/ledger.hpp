// The traced run's per-layer ledger.
//
// Sums gathered over the timed part of one round: span times from the
// server's own tracer (ServerConfig::traceSink), component stats() and
// lockstats deltas, and the benchmark's timing wrappers. layerMetrics()
// turns them into per-completed-query means and ratios; a run reports each
// metric's median over its rounds. Within a round the level-0 stages add up
// to the client's mean latency by construction:
//   client = net.wire + QUEUED + PLAN + PROJECT + COMPUTE + DELIVER
//            + server.unattributed
// and the run checks that server.unattributed stays under
// kMaxUnattributedShare of it, so the named stages explain the latency.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace e2e {

inline constexpr double kMaxUnattributedShare = 0.10;

struct LayerTotals {
  std::uint64_t completed = 0;     ///< completed timed queries
  double clientLatencySec = 0.0;   ///< sum of client-observed latencies
  double responseSec = 0.0;        ///< sum of QueryRecord response times
  // Top-level (nesting level 0) span time per kind.
  double queuedSec = 0.0;
  double planSec = 0.0;
  double projectSec = 0.0;
  double computeSec = 0.0;
  double deliverSec = 0.0;
  // Span time at any level.
  double waitSourceSec = 0.0;
  double ioStallSec = 0.0;
  double cachedProjectSec = 0.0;  ///< PROJECT flagged cached-source
  double computeSelfSec = 0.0;    ///< COMPUTE minus its child spans
  std::uint64_t malformedQueries = 0;  ///< span trees not well nested
  // QueryRecord sums.
  std::uint64_t reuseSources = 0;
  std::uint64_t bytesReused = 0;
  std::uint64_t outputBytes = 0;
  // Component stats() and lockstats deltas.
  std::uint64_t lockWaitServerNs = 0;
  std::uint64_t lockWaitSchedNs = 0;
  std::uint64_t lockWaitDsNs = 0;
  std::uint64_t lockWaitPsNs = 0;
  std::uint64_t rankEvaluations = 0;
  std::uint64_t dsLookups = 0;
  std::uint64_t dsFullHits = 0;
  std::uint64_t dsEvictions = 0;
  std::uint64_t psHits = 0;
  std::uint64_t psMisses = 0;
  std::uint64_t psMerged = 0;
  std::uint64_t psBytesRead = 0;
  std::uint64_t prefetchIssued = 0;
  std::uint64_t prefetchWasted = 0;
  std::uint64_t foldHits = 0;
  // Timing wrappers: calls and nanoseconds.
  std::uint64_t executeCalls = 0, executeNs = 0;
  std::uint64_t projectCalls = 0, projectNs = 0;
  std::uint64_t readPageCalls = 0, readPageNs = 0;
  std::uint64_t decodeCalls = 0, decodeNs = 0;
};

/// Add the span times of the queries in `completedIds` from a drained
/// trace stream.
void addSpans(LayerTotals& totals, const std::vector<mqs::trace::Event>& events,
              const std::unordered_set<std::uint64_t>& completedIds);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric, in BENCHMARK.json order.
[[nodiscard]] std::vector<Metric> layerMetrics(const LayerTotals& t);

}  // namespace e2e
