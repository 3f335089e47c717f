// End-to-end benchmark: a server built the way `mqs serve` builds it,
// driven over loopback TCP by net::NetClient connections from this process.
//
//   e2e_bench --workload hot_views|cold_tiles|paper_batch_nowait|paper_batch
//             --seed N --seconds S --trace 0|1
//
// One warm-up round, then whole cycles of the workload's rounds until the
// timed parts of the rounds the host did not disturb add up to S seconds.
// Every response is checked against an independent render after the clock
// stops. The last line of stdout is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; the metrics are the end-to-end ones,
// or with --trace 1 the per-layer ledger of a traced run. See README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/lock_stats.hpp"
#include "ledger.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "probes.hpp"
#include "render.hpp"
#include "server/query_server.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/vm_executor.hpp"
#include "vm/vm_semantics.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using mqs::net::NetClient;
using mqs::vm::VMPredicate;

/// The one failure a run may count instead of failing: the planner race
/// between QueryScheduler::executingSources() and predicateOf() on a node
/// that retired in between (see README.md, "Known effects").
constexpr std::string_view kPlannerRaceMessage =
    "unknown scheduling-graph node";

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Jiffies the hypervisor gave to other guests ("steal") and all jiffies,
/// summed over the host's CPUs, from /proc/stat. A round whose timed part
/// has a high steal share was slowed by a busy host, not by the program
/// (see kMaxStealShare).
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuJiffies hostJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuJiffies j;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Linear interpolation between closest ranks; `sorted` is non-empty.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

struct Sample {
  std::uint32_t query = 0;  ///< index into Round::queries
  double latencySec = 0.0;
  NetClient::Outcome::Status status = NetClient::Outcome::Status::Result;
  Digest digest;
  std::string message;  ///< failures only
};

struct RoundOutcome {
  double setupSec = 0.0;
  double timedSec = 0.0;
  double cpuSec = 0.0;
  double stealShare = 0.0;  ///< host steal share during the timed part
  std::vector<Sample> samples;
  std::vector<Metric> layers;  ///< traced runs: the round's per-layer ledger
  std::uint64_t malformedQueries = 0;  ///< traced runs: unnested span trees
  std::vector<std::string> errors;  ///< broken properties and transport errors
};

/// What one client connection saw, merged after its thread joins.
struct ClientLog {
  std::vector<Sample> samples;
  std::string error;
};

Sample classify(std::uint32_t query, double latencySec,
                const NetClient::Outcome& outcome) {
  Sample s;
  s.query = query;
  s.latencySec = latencySec;
  s.status = outcome.status;
  if (outcome.status == NetClient::Outcome::Status::Result) {
    s.digest = digestOf(outcome.bytes);
  } else {
    s.message = outcome.message;
  }
  return s;
}

void closedLoop(NetClient& client, const Round& round,
                const std::vector<std::uint32_t>& lane,
                std::atomic<std::size_t>* shared, ClientLog& log) {
  try {
    for (std::size_t i = 0;; ++i) {
      const std::size_t pos = shared != nullptr ? shared->fetch_add(1) : i;
      if (pos >= lane.size()) break;
      const std::uint32_t q = lane[pos];
      const auto t0 = Clock::now();
      const std::uint64_t id = client.send(round.queries[q]);
      NetClient::Outcome outcome = client.receiveAny();
      const double latency = secondsSince(t0);
      if (outcome.requestId != id) {
        throw std::runtime_error("response for request " +
                                 std::to_string(outcome.requestId) +
                                 " arrived for request " + std::to_string(id));
      }
      log.samples.push_back(classify(q, latency, outcome));
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

void pipelined(NetClient& client, const Round& round,
               const std::vector<std::uint32_t>& lane, ClientLog& log) {
  try {
    std::vector<Clock::time_point> sent;
    std::vector<std::uint64_t> ids;
    sent.reserve(lane.size());
    for (const std::uint32_t q : lane) {
      sent.push_back(Clock::now());
      ids.push_back(client.send(round.queries[q]));
    }
    for (std::size_t i = 0; i < lane.size(); ++i) {
      NetClient::Outcome outcome = client.receiveAny();
      const double latency =
          std::chrono::duration<double>(Clock::now() - sent[i]).count();
      if (outcome.requestId != ids[i]) {
        throw std::runtime_error("response out of request order");
      }
      log.samples.push_back(classify(lane[i], latency, outcome));
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

class Rig {
 public:
  explicit Rig(bool traced)
      : traced_(traced), clientCodecs_(mqs::net::CodecRegistry::standard()) {
    for (int d = 0; d < kSlides; ++d) {
      const auto id = semantics_.addDataset(
          mqs::index::ChunkLayout(kSlideSide, kSlideSide, kChunkSide));
      slides_.push_back(std::make_unique<mqs::storage::SyntheticSlideSource>(
          semantics_.layout(id), slideSeed(id)));
      timedSlides_.push_back(
          std::make_unique<TimedSource>(*slides_.back(), probes_));
    }
    const mqs::server::ServerConfig defaults;
    executor_ = std::make_unique<mqs::vm::VMExecutor>(
        &semantics_, /*intraQueryThreads=*/1, defaults.prefetchPages);
    timedExecutor_ = std::make_unique<TimedExecutor>(*executor_, probes_);
    if (traced_) {
      serverCodecs_.add(timedCodec(mqs::net::makeVmCodec(), probes_));
      serverCodecs_.add(mqs::net::makeVolCodec());
    } else {
      serverCodecs_ = mqs::net::CodecRegistry::standard();
    }
  }

  /// Set up a fresh server, run `round` over TCP, check the server-side
  /// properties, tear down. A traced rig also gathers the round's ledger.
  RoundOutcome run(const Round& round);

 private:
  bool traced_;
  mqs::vm::VMSemantics semantics_;
  std::vector<std::unique_ptr<mqs::storage::SyntheticSlideSource>> slides_;
  Probes probes_;
  std::vector<std::unique_ptr<TimedSource>> timedSlides_;
  std::unique_ptr<mqs::vm::VMExecutor> executor_;
  std::unique_ptr<TimedExecutor> timedExecutor_;
  mqs::net::CodecRegistry serverCodecs_;
  mqs::net::CodecRegistry clientCodecs_;
};

RoundOutcome Rig::run(const Round& round) {
  RoundOutcome out;
  LayerTotals t;
  const auto setupStart = Clock::now();

  // The configuration `mqs serve` runs with by default.
  mqs::server::ServerConfig cfg;
  cfg.policy = "CF";
  cfg.allowWaitOnExecuting = round.waitOnExecuting;
  if (traced_) cfg.traceSink = std::make_shared<mqs::trace::Tracer>();
  const mqs::query::QueryExecutor& exec =
      traced_ ? static_cast<const mqs::query::QueryExecutor&>(*timedExecutor_)
              : *executor_;
  mqs::server::QueryServer server(&semantics_, &exec, cfg);
  for (int d = 0; d < kSlides; ++d) {
    const mqs::storage::DataSource* src =
        traced_ ? static_cast<const mqs::storage::DataSource*>(
                      timedSlides_[static_cast<std::size_t>(d)].get())
                : slides_[static_cast<std::size_t>(d)].get();
    server.attach(static_cast<mqs::storage::DatasetId>(d), src);
  }
  mqs::net::NetServer net(server, &serverCodecs_);

  std::unordered_set<std::uint64_t> prefillIds;
  {
    std::vector<std::future<mqs::server::QueryResult>> futures;
    for (const VMPredicate& p : round.prefill) {
      futures.push_back(server.submit(p.clone()));
    }
    for (auto& f : futures) prefillIds.insert(f.get().record.queryId);
  }
  const mqs::net::NetClientConfig clientCfg{.connectTimeoutSec = 10.0,
                                            .ioTimeoutSec = 60.0};
  std::vector<std::unique_ptr<NetClient>> clients;
  const std::size_t connections =
      round.mode == Mode::ClosedShared ? kConnections : round.lanes.size();
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<NetClient>("127.0.0.1", net.port(),
                                                  &clientCodecs_, clientCfg));
  }
  out.setupSec = secondsSince(setupStart);

  mqs::trace::Tracer* tracer = server.tracer();
  if (tracer != nullptr) (void)tracer->drain();  // drop the prefill's spans
  auto lockNs = [](mqs::lockorder::Rank rank) {
    return mqs::lockstats::countsFor(rank).waitNanos;
  };
  using mqs::lockorder::Rank;
  struct Snap {
    mqs::datastore::DataStore::Stats ds;
    mqs::pagespace::PageSpaceManager::Stats ps;
    mqs::sched::QueryScheduler::Stats sched;
    std::uint64_t foldHits = 0;
    std::uint64_t lockServer = 0, lockSched = 0, lockDs = 0, lockPs = 0;
    CallStats::Snapshot execute, project, readPage, decode;
  };
  auto snap = [&] {
    Snap s;
    s.ds = server.dataStore().stats();
    s.ps = server.pageSpace().stats();
    s.sched = server.scheduler().stats();
    s.foldHits = server.pageSpace().scanRegistry().stats().foldHits;
    s.lockServer = lockNs(Rank::kQueryServer);
    s.lockSched = lockNs(Rank::kScheduler);
    s.lockDs = lockNs(Rank::kDataStore) + lockNs(Rank::kDataStoreShard);
    s.lockPs = lockNs(Rank::kPageSpace) + lockNs(Rank::kPageSpaceShard);
    s.execute = probes_.execute.snapshot();
    s.project = probes_.project.snapshot();
    s.readPage = probes_.readPage.snapshot();
    s.decode = probes_.decode.snapshot();
    return s;
  };
  const Snap before = snap();

  // --- timed part ---------------------------------------------------------
  std::vector<ClientLog> logs(clients.size());
  const double cpu0 = cpuSeconds();
  const CpuJiffies jiffies0 = hostJiffies();
  const auto timedStart = Clock::now();
  {
    std::atomic<std::size_t> cursor{0};
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        switch (round.mode) {
          case Mode::ClosedLanes:
            closedLoop(*clients[c], round, round.lanes[c], nullptr, logs[c]);
            break;
          case Mode::ClosedShared:
            closedLoop(*clients[c], round, round.lanes[0], &cursor, logs[c]);
            break;
          case Mode::Pipelined:
            pipelined(*clients[c], round, round.lanes[c], logs[c]);
            break;
        }
      });
    }
  }
  out.timedSec = secondsSince(timedStart);
  out.cpuSec = cpuSeconds() - cpu0;
  const CpuJiffies jiffies1 = hostJiffies();
  if (jiffies1.total > jiffies0.total) {
    out.stealShare = static_cast<double>(jiffies1.steal - jiffies0.steal) /
                     static_cast<double>(jiffies1.total - jiffies0.total);
  }
  const Snap after = snap();

  // --- server-side properties ---------------------------------------------
  std::size_t clientFailures = 0;
  for (ClientLog& log : logs) {
    if (!log.error.empty()) out.errors.push_back("client: " + log.error);
    for (Sample& s : log.samples) {
      if (s.status != NetClient::Outcome::Status::Result) ++clientFailures;
      out.samples.push_back(std::move(s));
    }
  }
  const std::vector<mqs::metrics::QueryRecord> records =
      server.collector().records();
  if (records.size() != prefillIds.size() + out.samples.size()) {
    out.errors.push_back(
        "collector holds " + std::to_string(records.size()) + " records for " +
        std::to_string(prefillIds.size()) + " prefill + " +
        std::to_string(out.samples.size()) + " attempted queries");
  }
  if (server.scheduler().waitingCount() != 0 ||
      server.scheduler().executingCount() != 0) {
    out.errors.push_back("scheduler still holds waiting or executing queries");
  }
  if (server.dataStore().pinnedBlobs() != 0) {
    out.errors.push_back("data store still holds pinned blobs");
  }
  std::size_t serverFailures = 0;
  std::unordered_set<std::uint64_t> completedIds;
  for (const auto& r : records) {
    if (prefillIds.contains(r.queryId)) continue;
    if (r.failed || r.shed) {
      ++serverFailures;
      continue;
    }
    completedIds.insert(r.queryId);
    t.responseSec += r.responseTime();
    t.reuseSources += static_cast<std::uint64_t>(r.reuseSources);
    t.bytesReused += r.bytesReused;
    t.outputBytes += r.outputBytes;
  }
  if (serverFailures != clientFailures) {
    out.errors.push_back("server recorded " + std::to_string(serverFailures) +
                         " failures, clients saw " +
                         std::to_string(clientFailures));
  }

  if (traced_) {
    t.completed += completedIds.size();
    for (const Sample& s : out.samples) {
      if (s.status == NetClient::Outcome::Status::Result) {
        t.clientLatencySec += s.latencySec;
      }
    }
    addSpans(t, tracer->drain(), completedIds);
    t.lockWaitServerNs += after.lockServer - before.lockServer;
    t.lockWaitSchedNs += after.lockSched - before.lockSched;
    t.lockWaitDsNs += after.lockDs - before.lockDs;
    t.lockWaitPsNs += after.lockPs - before.lockPs;
    t.rankEvaluations += after.sched.rankEvaluations - before.sched.rankEvaluations;
    t.dsLookups += after.ds.lookups - before.ds.lookups;
    t.dsFullHits += after.ds.fullHits - before.ds.fullHits;
    t.dsEvictions += after.ds.evictions - before.ds.evictions;
    t.psHits += after.ps.hits - before.ps.hits;
    t.psMisses += after.ps.misses - before.ps.misses;
    t.psMerged += after.ps.merged - before.ps.merged;
    t.psBytesRead += after.ps.bytesRead - before.ps.bytesRead;
    t.prefetchIssued += after.ps.prefetchIssued - before.ps.prefetchIssued;
    t.prefetchWasted += after.ps.prefetchWasted - before.ps.prefetchWasted;
    t.foldHits += after.foldHits - before.foldHits;
    t.executeCalls += after.execute.calls - before.execute.calls;
    t.executeNs += after.execute.nanos - before.execute.nanos;
    t.projectCalls += after.project.calls - before.project.calls;
    t.projectNs += after.project.nanos - before.project.nanos;
    t.readPageCalls += after.readPage.calls - before.readPage.calls;
    t.readPageNs += after.readPage.nanos - before.readPage.nanos;
    t.decodeCalls += after.decode.calls - before.decode.calls;
    t.decodeNs += after.decode.nanos - before.decode.nanos;
    out.layers = layerMetrics(t);
    out.malformedQueries = t.malformedQueries;
  }

  for (auto& c : clients) c->close();
  net.stop();
  server.shutdown();
  return out;
}

/// Runs `round` and then hands the memory it freed back to the kernel, so
/// that peak_rss_mb is the peak of one round however many rounds fit in a
/// run (glibc otherwise keeps each worker thread's arena heap around).
RoundOutcome runTrimmed(Rig& rig, const Round& round) {
  RoundOutcome out = rig.run(round);
  malloc_trim(0);
  return out;
}

/// Checks every Result sample of every round against the independent
/// render (rendered once per distinct predicate, on a few threads).
/// Returns one message per mismatching predicate.
std::vector<std::string> checkOutputs(
    const std::vector<std::pair<const Round*, const RoundOutcome*>>& runs) {
  // describe() -> (predicate, expected digest)
  std::map<std::string, std::pair<const VMPredicate*, Digest>> expected;
  for (const auto& [round, outcome] : runs) {
    for (const Sample& s : outcome->samples) {
      if (s.status != NetClient::Outcome::Status::Result) continue;
      const VMPredicate& q = round->queries[s.query];
      expected.emplace(q.describe(), std::make_pair(&q, Digest{}));
    }
  }
  std::vector<std::pair<const VMPredicate*, Digest>*> work;
  for (auto& entry : expected) work.push_back(&entry.second);
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> threads;
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < work.size(); i = next++) {
          work[i]->second = digestOf(render(*work[i]->first));
        }
      });
    }
  }
  std::unordered_set<std::string> bad;
  std::vector<std::string> errors;
  for (const auto& [round, outcome] : runs) {
    for (const Sample& s : outcome->samples) {
      if (s.status != NetClient::Outcome::Status::Result) continue;
      const VMPredicate& q = round->queries[s.query];
      const std::string key = q.describe();
      if (s.digest == expected.at(key).second || !bad.insert(key).second) {
        continue;
      }
      errors.push_back(s.digest.size != q.outBytes()
                           ? key + ": " + std::to_string(s.digest.size) +
                                 " bytes, expected " +
                                 std::to_string(q.outBytes())
                           : key + ": bytes differ from the independent render");
    }
  }
  return errors;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || argc % 2 == 0) {
    throw std::invalid_argument(
        "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return a;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A round whose timed part saw the hypervisor give more than this share of
/// the host's CPU time to other guests is left out of the run's medians (see
/// README.md, "A shared host"). A run measures until its counted rounds add
/// up to --seconds or all its timed rounds add up to twice that; with fewer
/// than kMinCountedRounds counted rounds, every timed round counts.
constexpr double kMaxStealShare = 0.02;
constexpr std::size_t kMinCountedRounds = 3;

int run(const Args& args) {
  const Workload workload = makeWorkload(args.workload, args.seed);
  Rig rig(args.trace);

  // One warm-up round (checked and counted, not timed), then whole cycles.
  std::vector<std::pair<const Round*, RoundOutcome>> done;
  done.emplace_back(&workload.rounds.front(),
                    runTrimmed(rig, workload.rounds.front()));
  const std::size_t measuredFrom = done.size();
  double countedSec = 0.0;
  double timedSec = 0.0;
  while (countedSec < args.seconds && timedSec < 2.0 * args.seconds) {
    for (const Round& r : workload.rounds) {
      const RoundOutcome& o = done.emplace_back(&r, runTrimmed(rig, r)).second;
      timedSec += o.timedSec;
      if (o.stealShare <= kMaxStealShare) countedSec += o.timedSec;
    }
  }
  const double peakRss = peakRssMiB();

  // --- correctness ----------------------------------------------------------
  std::vector<std::pair<const Round*, const RoundOutcome*>> views;
  std::vector<std::string> errors;
  std::map<std::string, std::size_t> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t malformed = 0;
  for (const auto& [round, outcome] : done) {
    views.emplace_back(round, &outcome);
    attempted += outcome.samples.size();
    malformed += outcome.malformedQueries;
    if (outcome.samples.size() != round->queryCount()) {
      errors.push_back("a round completed " +
                       std::to_string(outcome.samples.size()) + " of " +
                       std::to_string(round->queryCount()) + " queries");
    }
    errors.insert(errors.end(), outcome.errors.begin(), outcome.errors.end());
    for (const Sample& s : outcome.samples) {
      if (s.status == NetClient::Outcome::Status::Result) continue;
      ++failed;
      ++failures[s.message];
      if (s.status != NetClient::Outcome::Status::Failed ||
          s.message.find(kPlannerRaceMessage) == std::string::npos) {
        errors.push_back("query failed: " + s.message);
      }
    }
  }
  if (malformed > 0) {
    errors.push_back(std::to_string(malformed) +
                     " queries left span trees that do not nest");
  }
  const std::vector<std::string> wrong = checkOutputs(views);
  errors.insert(errors.end(), wrong.begin(), wrong.end());

  // --- metrics --------------------------------------------------------------
  // Each counted round gives its own percentiles, throughput, CPU per query
  // and ledger; a run reports their medians, so one disturbed round does
  // not move the run's figures. Set-up time is the median over every
  // round, the warm-up included.
  std::cout << "workload " << workload.name << " seed " << args.seed
            << " trace " << (args.trace ? 1 : 0) << "\n";
  std::size_t countedRounds = 0;
  for (std::size_t i = measuredFrom; i < done.size(); ++i) {
    countedRounds += done[i].second.stealShare <= kMaxStealShare ? 1 : 0;
  }
  const bool countAll = countedRounds < kMinCountedRounds;
  std::vector<double> p50s, p90s, rates, cpus, setups, all;
  std::map<std::string, std::vector<double>> layerValues;
  std::map<std::string, std::string> layerUnits;
  std::vector<std::string> layerOrder;
  for (std::size_t i = 0; i < done.size(); ++i) {
    const RoundOutcome& o = done[i].second;
    setups.push_back(o.setupSec);
    if (i < measuredFrom) continue;
    std::vector<double> ms;
    for (const Sample& s : o.samples) {
      if (s.status == NetClient::Outcome::Status::Result) {
        ms.push_back(s.latencySec * 1e3);
      }
    }
    if (ms.empty()) continue;
    std::sort(ms.begin(), ms.end());
    const bool counted = countAll || o.stealShare <= kMaxStealShare;
    std::cout << "  round " << i - measuredFrom << ": " << ms.size()
              << " queries, p50 " << quantile(ms, 0.50) << " ms, "
              << static_cast<double>(ms.size()) / o.timedSec
              << " q/s, host steal " << o.stealShare
              << (counted ? "" : " (left out)") << "\n";
    if (!counted) continue;
    p50s.push_back(quantile(ms, 0.50));
    p90s.push_back(quantile(ms, 0.90));
    const auto n = static_cast<double>(ms.size());
    rates.push_back(n / o.timedSec);
    cpus.push_back(o.cpuSec * 1e3 / n);
    all.insert(all.end(), ms.begin(), ms.end());
    for (const Metric& m : o.layers) {
      if (layerUnits.emplace(m.name, m.unit).second) {
        layerOrder.push_back(m.name);
      }
      layerValues[m.name].push_back(m.value);
    }
  }
  if (all.empty()) {
    errors.push_back("no query completed");
    p50s = p90s = rates = cpus = all = {0.0};
  }
  std::sort(all.begin(), all.end());
  double meanMs = 0.0;
  for (double l : all) meanMs += l;
  meanMs /= static_cast<double>(all.size());

  std::vector<Metric> metrics;
  if (args.trace) {
    for (const std::string& name : layerOrder) {
      metrics.push_back({name, median(layerValues[name]), layerUnits[name]});
    }
    const double share =
        layerValues.contains("ledger.unattributed_share")
            ? median(layerValues["ledger.unattributed_share"])
            : 0.0;
    if (share > kMaxUnattributedShare) {
      errors.push_back("server.unattributed_ms is " + jsonNumber(share) +
                       " of the client mean latency (limit " +
                       jsonNumber(kMaxUnattributedShare) + ")");
    }
  } else {
    metrics = {
        {"latency_p50_ms", median(p50s), "ms"},
        {"latency_p90_ms", median(p90s), "ms"},
        {"throughput_qps", median(rates), "1/s"},
        {"cpu_ms_per_query", median(cpus), "ms"},
        {"peak_rss_mb", peakRss, "MiB"},
        {"setup_s", median(setups), "s"},
    };
  }

  std::cout << "  " << all.size() << " timed queries counted, from "
            << (countAll ? done.size() - measuredFrom : countedRounds) << " of "
            << done.size() - measuredFrom << " timed rounds\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "  reference, all timed queries pooled: latency_mean_ms = "
            << meanMs << " ms, latency_p99_ms = " << quantile(all, 0.99)
            << " ms\n";
  std::cout << "  attempted = " << attempted << ", failed = " << failed << "\n";
  for (const auto& [msg, count] : failures) {
    std::cout << "  failure x" << count << ": " << msg << "\n";
  }
  for (const std::string& e : errors) std::cout << "  ERROR: " << e << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (errors.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << jsonNumber(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(e2e::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
