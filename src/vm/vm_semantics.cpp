#include "vm/vm_semantics.hpp"

#include "common/check.hpp"

namespace mqs::vm {

storage::DatasetId VMSemantics::addDataset(index::ChunkLayout layout) {
  layouts_.push_back(std::move(layout));
  return static_cast<storage::DatasetId>(layouts_.size() - 1);
}

const index::ChunkLayout& VMSemantics::layout(
    storage::DatasetId dataset) const {
  MQS_CHECK_MSG(dataset < layouts_.size(), "unknown VM dataset");
  return layouts_[dataset];
}

bool VMSemantics::projectable(const VMPredicate& cached, const VMPredicate& q) {
  if (cached.dataset() != q.dataset() || cached.op() != q.op()) return false;
  if (q.zoom() % cached.zoom() != 0) return false;
  const auto is = static_cast<std::int64_t>(cached.zoom());
  // Origins must agree modulo I_S so sample positions/averaging windows of
  // the query land on the cached result's grid.
  auto congruent = [is](std::int64_t a, std::int64_t b) {
    return ((a - b) % is) == 0;
  };
  return congruent(q.region().x0, cached.region().x0) &&
         congruent(q.region().y0, cached.region().y0);
}

Rect VMSemantics::coveredRegion(const query::Predicate& cachedP,
                                const query::Predicate& qP) const {
  const VMPredicate& cached = asVM(cachedP);
  const VMPredicate& q = asVM(qP);
  if (!projectable(cached, q)) return Rect{};
  const Rect inter = Rect::intersection(cached.region(), q.region());
  if (inter.empty()) return Rect{};
  // Shrink to whole output pixels of q (grid anchored at q's origin with
  // pitch O_S) so the remainder decomposes into valid sub-queries.
  const auto os = static_cast<std::int64_t>(q.zoom());
  auto alignUp = [os](std::int64_t v, std::int64_t origin) {
    const std::int64_t d = v - origin;
    return origin + (d + os - 1) / os * os;
  };
  auto alignDown = [os](std::int64_t v, std::int64_t origin) {
    const std::int64_t d = v - origin;
    return origin + d / os * os;
  };
  Rect covered{alignUp(inter.x0, q.region().x0),
               alignUp(inter.y0, q.region().y0),
               alignDown(inter.x1, q.region().x0),
               alignDown(inter.y1, q.region().y0)};
  if (covered.empty()) return Rect{};
  return covered;
}

bool VMSemantics::cmp(const query::Predicate& a,
                      const query::Predicate& b) const {
  return a.kind() == "vm" && b.kind() == "vm" && asVM(a) == asVM(b);
}

double VMSemantics::overlap(const query::Predicate& cachedP,
                            const query::Predicate& qP) const {
  if (cachedP.kind() != "vm" || qP.kind() != "vm") return 0.0;
  const VMPredicate& cached = asVM(cachedP);
  const VMPredicate& q = asVM(qP);
  const Rect covered = coveredRegion(cached, q);
  if (covered.empty()) return 0.0;
  // Eq. 4: overlap index = (I_A * I_S) / (O_A * O_S).
  const double ia = static_cast<double>(covered.area());
  const double oa = static_cast<double>(q.region().area());
  const double is = static_cast<double>(cached.zoom());
  const double os = static_cast<double>(q.zoom());
  return (ia * is) / (oa * os);
}

std::uint64_t VMSemantics::qoutsize(const query::Predicate& p) const {
  return asVM(p).outBytes();
}

std::uint64_t VMSemantics::qinputsize(const query::Predicate& p) const {
  const VMPredicate& q = asVM(p);
  // "the total size of the data chunks that intersect the query window",
  // computed in the index-lookup step.
  return layout(q.dataset()).inputBytes(q.region());
}

std::vector<VMPredicate> VMSemantics::pyramidLevel(
    storage::DatasetId dataset, std::uint32_t zoom,
    std::int64_t tileOutPixels, VMOp op) const {
  MQS_CHECK(zoom >= 1 && tileOutPixels >= 1);
  const index::ChunkLayout& l = layout(dataset);
  const auto z = static_cast<std::int64_t>(zoom);
  const std::int64_t tileIn = tileOutPixels * z;
  std::vector<VMPredicate> tiles;
  for (std::int64_t y = 0; y + tileIn <= l.height(); y += tileIn) {
    for (std::int64_t x = 0; x + tileIn <= l.width(); x += tileIn) {
      tiles.emplace_back(dataset, Rect::ofSize(x, y, tileIn, tileIn), zoom,
                         op);
    }
  }
  return tiles;
}

std::uint64_t VMSemantics::reusedOutputBytes(const query::Predicate& cachedP,
                                             const query::Predicate& qP) const {
  const VMPredicate& q = asVM(qP);
  const Rect covered = coveredRegion(cachedP, qP);
  const auto z = static_cast<std::int64_t>(q.zoom());
  return static_cast<std::uint64_t>(covered.area() / (z * z)) * 3;
}

std::vector<query::PredicatePtr> VMSemantics::coveredParts(
    const query::Predicate& cachedP, const query::Predicate& qP) const {
  const VMPredicate& q = asVM(qP);
  const Rect covered = coveredRegion(cachedP, qP);
  std::vector<query::PredicatePtr> out;
  if (covered.empty()) return out;
  // The covered region sits on q's output grid (coveredRegion shrinks to
  // whole output pixels), so it is itself a valid sub-query of q.
  out.push_back(
      std::make_unique<VMPredicate>(q.dataset(), covered, q.zoom(), q.op()));
  return out;
}

std::vector<query::PredicatePtr> VMSemantics::remainder(
    const query::Predicate& cachedP, const query::Predicate& qP) const {
  const VMPredicate& q = asVM(qP);
  const Rect covered = coveredRegion(cachedP, qP);
  std::vector<query::PredicatePtr> out;
  if (covered.empty()) {
    out.push_back(q.clone());
    return out;
  }
  for (const Rect& r : q.region().subtract(covered)) {
    // Sub-rectangles inherit q's output grid, so dims divide by the zoom.
    out.push_back(
        std::make_unique<VMPredicate>(q.dataset(), r, q.zoom(), q.op()));
  }
  return out;
}

}  // namespace mqs::vm
