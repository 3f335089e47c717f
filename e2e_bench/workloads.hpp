// The benchmark's workloads, generated from a seed.
//
// A workload is a list of rounds. Each round runs against a fresh server
// (so the server's per-query bookkeeping never grows with throughput) and
// issues a fixed set of queries over loopback TCP:
//   * hot_views   — closed loop, 4 clients, Zipf draws over a prefilled
//                   set of views; every query is a full Data Store hit.
//   * cold_tiles  — closed loop, 4 clients pulling from one shared cyclic
//                   order of disjoint tiles; every query computes from raw
//                   pages.
//   * paper_batch — the paper's client-emulator batch (driver::
//                   WorkloadGenerator), pipelined over 4 connections;
//                   paper_batch_nowait runs it with waits on executing
//                   queries (and folding) off.
// A run repeats whole cycles of its rounds, so every run attempts the same
// operations in the same proportions whatever its length.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vm/vm_predicate.hpp"

namespace e2e {

/// The three 8192^2 synthetic slides every workload runs on (the slides
/// `mqs serve` attaches by default): pixel seeds 11, 22, 33, 146-pixel
/// chunks.
inline constexpr std::int64_t kSlideSide = 8192;
inline constexpr std::int64_t kChunkSide = 146;
inline constexpr int kSlides = 3;
[[nodiscard]] std::uint64_t slideSeed(mqs::storage::DatasetId dataset);

/// Connections (one client thread each) every workload uses.
inline constexpr int kConnections = 4;

enum class Mode {
  ClosedLanes,   ///< each connection issues its own lane, one query at a time
  ClosedShared,  ///< connections pull the next query from one shared order
  Pipelined,     ///< each connection sends its whole lane, then reads it back
};

struct Round {
  Mode mode = Mode::ClosedLanes;
  /// ServerConfig::allowWaitOnExecuting (and with it folding) for the
  /// round's server; every other setting is `mqs serve`'s default.
  bool waitOnExecuting = true;
  /// Executed in-process before timing starts (part of set-up).
  std::vector<mqs::vm::VMPredicate> prefill;
  /// Distinct predicates of the round; lanes index into this table.
  std::vector<mqs::vm::VMPredicate> queries;
  /// Per-connection query order (ClosedShared uses lanes[0] as the shared
  /// order).
  std::vector<std::vector<std::uint32_t>> lanes;

  [[nodiscard]] std::size_t queryCount() const;
};

struct Workload {
  std::string name;
  std::vector<Round> rounds;  ///< one cycle; a run repeats whole cycles
};

/// Known names: hot_views, cold_tiles, paper_batch, paper_batch_nowait.
/// Throws on others.
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed);

}  // namespace e2e
