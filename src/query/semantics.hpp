// The user-defined functions an application developer implements (§2):
//
//   cmp(M_i, M_j)              -> bool          (Eq. 1)
//   overlap_project(M_i, M_j)  -> k in [0, 1]   (Eq. 2)
//   project(M_i, M_j, I)       -> J             (Eq. 3, see QueryExecutor)
//   qoutsize(M_i)              -> bytes         (scheduler)
//   qinputsize(M_i)            -> bytes         (SJF rank)
//
// plus remainder(): the sub-query predicates covering the part of a query
// that a cached result cannot answer (S_{j,1..4} in Figure 1b).
#pragma once

#include <cstdint>
#include <vector>

#include "query/predicate.hpp"

namespace mqs::query {

class QuerySemantics {
 public:
  virtual ~QuerySemantics() = default;

  /// Eq. 1 — true iff the result of `a` is, byte for byte, the result of
  /// `b` (common-subexpression elimination). The threaded server then
  /// serves `b` from a cached result of `a` with one copy of its payload
  /// instead of projecting into a zeroed buffer. overlap(a, b) == 1 does not
  /// imply it (a larger cached region covers `b` but must be cropped), so
  /// the default claims nothing and every reuse goes through project().
  [[nodiscard]] virtual bool cmp(const Predicate& /*a*/,
                                 const Predicate& /*b*/) const {
    return false;
  }

  /// Eq. 2 — fraction in [0, 1] of query `q` answerable by projecting the
  /// cached result described by `cached`. 0 when no transformation exists
  /// (wrong dataset/operator, non-multiple zoom, misalignment, ...).
  [[nodiscard]] virtual double overlap(const Predicate& cached,
                                       const Predicate& q) const = 0;

  /// Output size in bytes of the query result (estimate allowed — §2).
  [[nodiscard]] virtual std::uint64_t qoutsize(const Predicate& p) const = 0;

  /// Input size in bytes: total size of data chunks the query must read.
  /// Used by SJF as a relative execution-time estimate.
  [[nodiscard]] virtual std::uint64_t qinputsize(const Predicate& p) const = 0;

  /// Region of `q` that projecting `cached` answers (used for remainder
  /// decomposition and reuse accounting). Empty when overlap is 0.
  [[nodiscard]] virtual Rect coveredRegion(const Predicate& cached,
                                           const Predicate& q) const = 0;

  /// Sub-query predicates for the portion of `q` not answerable from
  /// `cached`; at most four for rectangular predicates. Together with
  /// coveredRegion they must tile q's region exactly.
  [[nodiscard]] virtual std::vector<PredicatePtr> remainder(
      const Predicate& cached, const Predicate& q) const = 0;

  /// The complement of remainder(): sub-query predicates exactly tiling the
  /// portion of `q` that projecting `cached` answers. Together with
  /// remainder() the returned parts must tile `q`. Used by the reuse
  /// planner for multi-source coverage accounting and for recovering when a
  /// planned source vanishes before execution (its covered parts are then
  /// computed like ordinary remainder sub-queries).
  ///
  /// The default only recognizes full coverage ({q} when overlap >= 1,
  /// empty otherwise); applications that want multi-source reuse should
  /// override it with their native geometry (see VMSemantics/VolSemantics).
  [[nodiscard]] virtual std::vector<PredicatePtr> coveredParts(
      const Predicate& cached, const Predicate& q) const {
    std::vector<PredicatePtr> out;
    if (overlap(cached, q) >= 1.0) out.push_back(q.clone());
    return out;
  }

  /// Output bytes of `q` that projecting `cached` produces (metric
  /// accounting). Default estimates overlap * qoutsize; applications can
  /// compute it exactly.
  [[nodiscard]] virtual std::uint64_t reusedOutputBytes(
      const Predicate& cached, const Predicate& q) const {
    return static_cast<std::uint64_t>(overlap(cached, q) *
                                      static_cast<double>(qoutsize(q)));
  }
};

}  // namespace mqs::query
