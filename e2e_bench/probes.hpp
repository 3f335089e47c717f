// Timing wrappers the traced run puts around the program's own extension
// points: the executor the QueryServer is built with, the data sources it
// attaches, and the predicate codec the NetServer decodes with. Nothing in
// src/ is instrumented for the benchmark; the wrappers only add a clock
// read on each side of the call they forward.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "net/codecs.hpp"
#include "query/executor.hpp"
#include "storage/data_source.hpp"

namespace e2e {

/// Calls and wall nanoseconds of one wrapped function.
class CallStats {
 public:
  struct Snapshot {
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;
  };

  void add(std::chrono::steady_clock::duration d) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    nanos_.fetch_add(static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                             .count()),
                     std::memory_order_relaxed);
  }
  [[nodiscard]] Snapshot snapshot() const {
    return {calls_.load(std::memory_order_relaxed),
            nanos_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> nanos_{0};
};

struct Probes {
  CallStats execute;   ///< QueryExecutor::execute
  CallStats project;   ///< QueryExecutor::project
  CallStats readPage;  ///< DataSource::readPage
  CallStats decode;    ///< PredicateCodec::decode (server side)
};

class TimedExecutor final : public mqs::query::QueryExecutor {
 public:
  TimedExecutor(const mqs::query::QueryExecutor& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}

  [[nodiscard]] std::vector<std::byte> execute(
      const mqs::query::Predicate& pred,
      mqs::pagespace::PageSpaceManager& ps) const override;
  void project(const mqs::query::Predicate& cached,
               std::span<const std::byte> cachedPayload,
               const mqs::query::Predicate& out,
               std::span<std::byte> outBuffer) const override;

 private:
  const mqs::query::QueryExecutor& inner_;
  Probes& probes_;
};

class TimedSource final : public mqs::storage::DataSource {
 public:
  TimedSource(const mqs::storage::DataSource& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}

  [[nodiscard]] mqs::storage::PageId pageCount() const override {
    return inner_.pageCount();
  }
  [[nodiscard]] std::size_t pageBytes(mqs::storage::PageId page) const override {
    return inner_.pageBytes(page);
  }
  void readPage(mqs::storage::PageId page,
                std::span<std::byte> out) const override;

 private:
  const mqs::storage::DataSource& inner_;
  Probes& probes_;
};

/// `inner` with its decode() timed into probes.decode.
[[nodiscard]] std::unique_ptr<mqs::net::PredicateCodec> timedCodec(
    std::unique_ptr<mqs::net::PredicateCodec> inner, Probes& probes);

}  // namespace e2e
