#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "driver/workload.hpp"
#include "vm/vm_semantics.hpp"

namespace e2e {

using mqs::Rect;
using mqs::Rng;
using mqs::vm::VMOp;
using mqs::vm::VMPredicate;

namespace {

constexpr std::int64_t kOutputSide = 256;  ///< every query renders 256^2 RGB

// --- hot_views ---------------------------------------------------------
// 24 views of 256^2 output: the first 18 are every (slide, operator, zoom)
// combination over zooms 2/4/8, the last 6 repeat the first six. Each view
// sits alone in one 2048^2 cell of its slide, so no two views overlap: each
// prefill computes and caches its own result, and every later query on a
// view is an equal-zoom copy of that result (exact for both operators).
// Each client draws from its own 6 views with Zipf(1) popularity. Clients
// do not share views: two clients asking for the same view at the same
// moment trip the planner race named in the README, which fails a varying
// number of queries per run.
constexpr int kViews = 24;
constexpr std::array<std::uint32_t, 3> kViewZooms = {2, 4, 8};
constexpr std::int64_t kCellSide = 2048;
constexpr double kZipfS = 1.0;
constexpr int kHotQueriesPerClient = 1500;

Round hotViews(std::uint64_t seed) {
  Rng rng(seed ^ 0x686f745f76696577ULL);
  constexpr std::int64_t cellsPerSide = kSlideSide / kCellSide;
  std::array<std::vector<std::int64_t>, kSlides> cells;
  for (auto& c : cells) {
    c.resize(static_cast<std::size_t>(cellsPerSide * cellsPerSide));
    std::iota(c.begin(), c.end(), 0);
    std::shuffle(c.begin(), c.end(), rng);
  }
  std::array<std::size_t, kSlides> usedCells{};

  Round round;
  round.mode = Mode::ClosedLanes;
  for (int v = 0; v < kViews; ++v) {
    const int combo = v % 18;
    const auto dataset = static_cast<mqs::storage::DatasetId>(combo % kSlides);
    const VMOp op = (combo / 3) % 2 == 0 ? VMOp::Subsample : VMOp::Average;
    const std::uint32_t zoom = kViewZooms[static_cast<std::size_t>(combo / 6)];
    const std::int64_t side = kOutputSide * zoom;
    const std::int64_t cell = cells[dataset][usedCells[dataset]++];
    const std::int64_t slack = (kCellSide - side) / 32;
    const std::int64_t x0 =
        (cell % cellsPerSide) * kCellSide + 32 * rng.uniformInt(0, slack);
    const std::int64_t y0 =
        (cell / cellsPerSide) * kCellSide + 32 * rng.uniformInt(0, slack);
    round.queries.emplace_back(dataset, Rect::ofSize(x0, y0, side, side), zoom,
                               op);
  }
  round.prefill = round.queries;

  std::vector<double> zipf;
  for (int i = 0; i < kViews / kConnections; ++i) {
    zipf.push_back(1.0 / std::pow(static_cast<double>(i + 1), kZipfS));
  }
  for (int c = 0; c < kConnections; ++c) {
    std::vector<std::uint32_t> mine;  // popularity rank -> view index
    for (int v = c; v < kViews; v += kConnections) {
      mine.push_back(static_cast<std::uint32_t>(v));
    }
    std::shuffle(mine.begin(), mine.end(), rng);
    std::vector<std::uint32_t> lane;
    lane.reserve(kHotQueriesPerClient);
    for (int q = 0; q < kHotQueriesPerClient; ++q) {
      lane.push_back(mine[rng.weightedIndex(zipf)]);
    }
    round.lanes.push_back(std::move(lane));
  }
  return round;
}

// --- cold_tiles --------------------------------------------------------
// Zoom 2, 512^2 tiles on a 512 grid: 16x16 disjoint tiles per slide, 768 in
// all, in one seeded order; position p uses subsampling when p is even and
// averaging when odd. A round walks the order twice. 768 results of 192 KiB
// are ~2.3x the 64 MiB Data Store, so a tile's second visit finds its
// first result evicted: every query computes from raw pages.
constexpr std::int64_t kTileSide = kOutputSide * 2;
constexpr int kColdCycles = 2;

Round coldTiles(std::uint64_t seed) {
  Rng rng(seed ^ 0x636f6c645f74696cULL);
  constexpr std::int64_t perSide = kSlideSide / kTileSide;
  std::vector<std::int64_t> tiles(
      static_cast<std::size_t>(kSlides * perSide * perSide));
  std::iota(tiles.begin(), tiles.end(), 0);
  std::shuffle(tiles.begin(), tiles.end(), rng);

  Round round;
  round.mode = Mode::ClosedShared;
  for (std::size_t p = 0; p < tiles.size(); ++p) {
    const std::int64_t t = tiles[p];
    const auto dataset =
        static_cast<mqs::storage::DatasetId>(t / (perSide * perSide));
    const std::int64_t cell = t % (perSide * perSide);
    round.queries.emplace_back(
        dataset,
        Rect::ofSize((cell % perSide) * kTileSide, (cell / perSide) * kTileSide,
                     kTileSide, kTileSide),
        2, p % 2 == 0 ? VMOp::Subsample : VMOp::Average);
  }
  std::vector<std::uint32_t> order;
  for (int cycle = 0; cycle < kColdCycles; ++cycle) {
    for (std::uint32_t i = 0; i < round.queries.size(); ++i) {
      order.push_back(i);
    }
  }
  round.lanes.push_back(std::move(order));
  return round;
}

// --- paper_batch -------------------------------------------------------
// The paper's batch (§5, Figure 7) as `mqs experiment` builds it: 16
// clients split 8/6/2 over the slides, 16 queries each, 256^2 outputs at
// zooms 2/4/8/16 (weights 2/3/2/1) with hotspots, subsampling, interleaved
// round-robin as ServerExperiment::runBatch submits it. Query i goes down
// connection i mod 4. A cycle holds 24 batches drawn from 24 seeds
// derived from the run's seed, which evens out how much reuse one draw
// happens to contain.
//
// paper_batch_nowait is the same batches on a server with
// allowWaitOnExecuting off, which also turns folding off. Waiting on an
// executing query is the path that trips the planner race (README.md,
// "Known effects"): paper_batch fails a few queries per thousand, a
// different number each run, while paper_batch_nowait fails none.
constexpr int kBatchesPerCycle = 24;

Round paperBatch(std::uint64_t batchSeed) {
  mqs::driver::WorkloadConfig wl;
  wl.datasets = {mqs::driver::DatasetSpec{kSlideSide, kSlideSide, kChunkSide,
                                          slideSeed(0)},
                 mqs::driver::DatasetSpec{kSlideSide, kSlideSide, kChunkSide,
                                          slideSeed(1)},
                 mqs::driver::DatasetSpec{kSlideSide, kSlideSide, kChunkSide,
                                          slideSeed(2)}};
  wl.clientsPerDataset = {8, 6, 2};
  wl.queriesPerClient = 16;
  wl.outputSide = kOutputSide;
  wl.zoomLevels = {2, 4, 8, 16};
  wl.zoomWeights = {2, 3, 2, 1};
  wl.alignGrid = 32;
  wl.op = VMOp::Subsample;
  wl.seed = batchSeed;
  mqs::vm::VMSemantics scratch;  // generate() registers the slides here
  Round round;
  round.mode = Mode::Pipelined;
  round.queries = mqs::driver::WorkloadGenerator::interleave(
      mqs::driver::WorkloadGenerator::generate(wl, scratch));
  round.lanes.resize(kConnections);
  for (std::uint32_t i = 0; i < round.queries.size(); ++i) {
    round.lanes[i % kConnections].push_back(i);
  }
  return round;
}

}  // namespace

std::uint64_t slideSeed(mqs::storage::DatasetId dataset) {
  return 11ULL * (dataset + 1);
}

std::size_t Round::queryCount() const {
  std::size_t n = 0;
  for (const auto& lane : lanes) n += lane.size();
  return n;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "hot_views") {
    w.rounds.push_back(hotViews(seed));
  } else if (name == "cold_tiles") {
    w.rounds.push_back(coldTiles(seed));
  } else if (name == "paper_batch" || name == "paper_batch_nowait") {
    mqs::SplitMix64 sm(seed ^ 0x70617065725f6261ULL);
    for (int b = 0; b < kBatchesPerCycle; ++b) {
      w.rounds.push_back(paperBatch(sm.next()));
      w.rounds.back().waitOnExecuting = name == "paper_batch";
    }
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (hot_views, cold_tiles, paper_batch, paper_batch_nowait)");
  }
  return w;
}

}  // namespace e2e
