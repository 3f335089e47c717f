#include "probes.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

class TimedCodec final : public mqs::net::PredicateCodec {
 public:
  TimedCodec(std::unique_ptr<mqs::net::PredicateCodec> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  [[nodiscard]] std::string_view kind() const override {
    return inner_->kind();
  }
  void encode(const mqs::query::Predicate& pred,
              mqs::net::Writer& out) const override {
    inner_->encode(pred, out);
  }
  [[nodiscard]] mqs::query::PredicatePtr decode(
      mqs::net::Reader& in) const override {
    const auto t0 = Clock::now();
    mqs::query::PredicatePtr p = inner_->decode(in);
    probes_.decode.add(Clock::now() - t0);
    return p;
  }

 private:
  std::unique_ptr<mqs::net::PredicateCodec> inner_;
  Probes& probes_;
};

}  // namespace

std::vector<std::byte> TimedExecutor::execute(
    const mqs::query::Predicate& pred,
    mqs::pagespace::PageSpaceManager& ps) const {
  const auto t0 = Clock::now();
  std::vector<std::byte> out = inner_.execute(pred, ps);
  probes_.execute.add(Clock::now() - t0);
  return out;
}

void TimedExecutor::project(const mqs::query::Predicate& cached,
                            std::span<const std::byte> cachedPayload,
                            const mqs::query::Predicate& out,
                            std::span<std::byte> outBuffer) const {
  const auto t0 = Clock::now();
  inner_.project(cached, cachedPayload, out, outBuffer);
  probes_.project.add(Clock::now() - t0);
}

void TimedSource::readPage(mqs::storage::PageId page,
                           std::span<std::byte> out) const {
  const auto t0 = Clock::now();
  inner_.readPage(page, out);
  probes_.readPage.add(Clock::now() - t0);
}

std::unique_ptr<mqs::net::PredicateCodec> timedCodec(
    std::unique_ptr<mqs::net::PredicateCodec> inner, Probes& probes) {
  return std::make_unique<TimedCodec>(std::move(inner), probes);
}

}  // namespace e2e
