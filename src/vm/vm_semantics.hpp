// The Virtual Microscope's user-defined functions: Eq. 4 overlap, qoutsize,
// qinputsize, and remainder decomposition.
//
// Reuse rules (a zoom-I_S result projected into a zoom-O_S query):
//   * same dataset and same processing function;
//   * O_S must be a multiple of I_S (§3: "O_S should be a multiple of I_S
//     so that the query can use the intermediate result");
//   * grid alignment: the two regions' origins must agree modulo I_S in
//     both axes — otherwise the query's sample positions (subsampling) or
//     averaging windows do not coincide with the cached result's;
//   * the usable area is the intersection shrunk to the query's output
//     pixel grid, so remainder sub-queries keep whole output pixels.
//
// Overlap index (Eq. 4):  (I_A * I_S) / (O_A * O_S).
#pragma once

#include <vector>

#include "index/chunk_layout.hpp"
#include "query/semantics.hpp"
#include "vm/vm_predicate.hpp"

namespace mqs::vm {

class VMSemantics final : public query::QuerySemantics {
 public:
  /// Register a dataset's chunk layout; returns its DatasetId (0, 1, ...).
  storage::DatasetId addDataset(index::ChunkLayout layout);

  [[nodiscard]] const index::ChunkLayout& layout(
      storage::DatasetId dataset) const;
  [[nodiscard]] std::size_t datasetCount() const { return layouts_.size(); }

  /// Identical predicates: a VM result is a pure function of (dataset,
  /// region, zoom, op).
  [[nodiscard]] bool cmp(const query::Predicate& a,
                         const query::Predicate& b) const override;
  [[nodiscard]] double overlap(const query::Predicate& cached,
                               const query::Predicate& q) const override;
  [[nodiscard]] std::uint64_t qoutsize(
      const query::Predicate& p) const override;
  [[nodiscard]] std::uint64_t qinputsize(
      const query::Predicate& p) const override;
  [[nodiscard]] Rect coveredRegion(const query::Predicate& cached,
                                   const query::Predicate& q) const override;
  [[nodiscard]] std::vector<query::PredicatePtr> remainder(
      const query::Predicate& cached,
      const query::Predicate& q) const override;
  /// Remainder-of-region-set support: the covered region as a sub-query
  /// (a single rectangle on q's output grid), so multi-source plans can
  /// account coverage and recompute a vanished source's share exactly.
  [[nodiscard]] std::vector<query::PredicatePtr> coveredParts(
      const query::Predicate& cached,
      const query::Predicate& q) const override;
  [[nodiscard]] std::uint64_t reusedOutputBytes(
      const query::Predicate& cached,
      const query::Predicate& q) const override;

  /// True when a zoom-`cached` result is alignable into query `q` at all
  /// (dataset/op/zoom-multiple/origin-alignment), ignoring area.
  [[nodiscard]] static bool projectable(const VMPredicate& cached,
                                        const VMPredicate& q);

  /// Materialized-view helper (the intro's "use of materialized views (or
  /// intermediate results)"): a tiling of the whole dataset at `zoom` with
  /// `tileOutPixels`-square outputs. Executing these once pre-warms the
  /// Data Store so every later query at zoom >= `zoom` over this dataset
  /// projects instead of reading raw data.
  [[nodiscard]] std::vector<VMPredicate> pyramidLevel(
      storage::DatasetId dataset, std::uint32_t zoom,
      std::int64_t tileOutPixels, VMOp op) const;

 private:
  std::vector<index::ChunkLayout> layouts_;
};

}  // namespace mqs::vm
