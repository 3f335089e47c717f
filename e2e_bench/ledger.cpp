#include "ledger.hpp"

#include <unordered_map>

#include "trace/analysis.hpp"

namespace e2e {

using mqs::trace::Event;
using mqs::trace::EventType;
using mqs::trace::SpanKind;

void addSpans(LayerTotals& totals, const std::vector<Event>& events,
              const std::unordered_set<std::uint64_t>& completedIds) {
  std::unordered_map<std::uint64_t, std::vector<Event>> byQuery;
  for (const Event& e : events) {
    if (e.type != EventType::Counter && completedIds.contains(e.queryId)) {
      byQuery[e.queryId].push_back(e);
    }
  }
  for (const auto& [id, own] : byQuery) {
    // eventsForQuery() orders one query's events (ties: QUEUED begin first).
    const mqs::trace::SpanTree tree =
        mqs::trace::buildSpanTree(mqs::trace::eventsForQuery(own, id));
    if (!tree.wellNested) {
      ++totals.malformedQueries;
      continue;
    }
    // Spans are in begin order, so a span's direct children are the spans
    // one level deeper that follow it before the next span at its level.
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      const mqs::trace::Span& s = tree.spans[i];
      double children = 0.0;
      for (std::size_t j = i + 1;
           j < tree.spans.size() && tree.spans[j].level > s.level; ++j) {
        if (tree.spans[j].level == s.level + 1) {
          children += tree.spans[j].duration();
        }
      }
      const double d = s.duration();
      if (s.level == 0) {
        switch (s.kind) {
          case SpanKind::Queued: totals.queuedSec += d; break;
          case SpanKind::Plan: totals.planSec += d; break;
          case SpanKind::Project: totals.projectSec += d; break;
          case SpanKind::Compute: totals.computeSec += d; break;
          case SpanKind::Deliver: totals.deliverSec += d; break;
          default: break;  // lands in server.unattributed
        }
      }
      switch (s.kind) {
        case SpanKind::WaitSource: totals.waitSourceSec += d; break;
        case SpanKind::IoStall: totals.ioStallSec += d; break;
        case SpanKind::Compute: totals.computeSelfSec += d - children; break;
        case SpanKind::Project:
          if ((s.flags & mqs::trace::kFlagCachedSource) != 0) {
            totals.cachedProjectSec += d;
          }
          break;
        default: break;
      }
    }
  }
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> layerMetrics(const LayerTotals& t) {
  const auto n = static_cast<double>(t.completed);
  auto perQueryMs = [n](double sec) { return ratio(sec * 1e3, n); };
  auto perQueryNsMs = [n](std::uint64_t ns) {
    return ratio(static_cast<double>(ns) * 1e-6, n);
  };
  auto perQuery = [n](std::uint64_t count) {
    return ratio(static_cast<double>(count), n);
  };
  auto perCall = [](std::uint64_t ns, std::uint64_t calls, double scale) {
    return ratio(static_cast<double>(ns) * scale, static_cast<double>(calls));
  };

  const double clientMs = perQueryMs(t.clientLatencySec);
  const double staged = t.queuedSec + t.planSec + t.projectSec + t.computeSec +
                        t.deliverSec;
  const double unattributedMs = perQueryMs(t.responseSec - staged);
  const auto psLookups =
      static_cast<double>(t.psHits + t.psMisses + t.psMerged);

  return {
      {"net.wire_ms", perQueryMs(t.clientLatencySec - t.responseSec), "ms"},
      {"net.decode_us", perCall(t.decodeNs, t.decodeCalls, 1e-3), "us"},
      {"server.deliver_ms", perQueryMs(t.deliverSec), "ms"},
      {"server.unattributed_ms", unattributedMs, "ms"},
      {"server.lock_wait_ms", perQueryNsMs(t.lockWaitServerNs), "ms"},
      {"sched.queued_ms", perQueryMs(t.queuedSec), "ms"},
      {"sched.rank_evals_per_query", perQuery(t.rankEvaluations), "count"},
      {"sched.lock_wait_ms", perQueryNsMs(t.lockWaitSchedNs), "ms"},
      {"query.plan_ms", perQueryMs(t.planSec), "ms"},
      {"query.reuse_sources_per_query", perQuery(t.reuseSources), "count"},
      {"query.wait_source_ms", perQueryMs(t.waitSourceSec), "ms"},
      {"datastore.full_hit_ratio",
       ratio(static_cast<double>(t.dsFullHits),
             static_cast<double>(t.dsLookups)),
       "ratio"},
      {"datastore.reused_byte_ratio",
       ratio(static_cast<double>(t.bytesReused),
             static_cast<double>(t.outputBytes)),
       "ratio"},
      {"datastore.project_ms", perQueryMs(t.cachedProjectSec), "ms"},
      {"datastore.evictions_per_query", perQuery(t.dsEvictions), "count"},
      {"datastore.lock_wait_ms", perQueryNsMs(t.lockWaitDsNs), "ms"},
      {"pagespace.hit_ratio", ratio(static_cast<double>(t.psHits), psLookups),
       "ratio"},
      {"pagespace.io_stall_ms", perQueryMs(t.ioStallSec), "ms"},
      {"pagespace.device_mb_per_query",
       ratio(static_cast<double>(t.psBytesRead) / (1024.0 * 1024.0), n),
       "MiB"},
      {"pagespace.prefetch_waste_ratio",
       ratio(static_cast<double>(t.prefetchWasted),
             static_cast<double>(t.prefetchIssued)),
       "ratio"},
      {"pagespace.fold_hits_per_query", perQuery(t.foldHits), "count"},
      {"pagespace.lock_wait_ms", perQueryNsMs(t.lockWaitPsNs), "ms"},
      {"vm.compute_ms", perQueryMs(t.computeSelfSec), "ms"},
      {"vm.execute_ms", perCall(t.executeNs, t.executeCalls, 1e-6), "ms"},
      {"vm.project_ms", perCall(t.projectNs, t.projectCalls, 1e-6), "ms"},
      {"storage.read_page_us", perCall(t.readPageNs, t.readPageCalls, 1e-3),
       "us"},
      {"storage.pages_read_per_query", perQuery(t.readPageCalls), "count"},
      {"ledger.client_mean_ms", clientMs, "ms"},
      {"ledger.unattributed_share", ratio(unattributedMs, clientMs), "ratio"},
  };
}

}  // namespace e2e
