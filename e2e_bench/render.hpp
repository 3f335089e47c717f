// Independent check of every response: the expected image rendered straight
// from storage::syntheticPixel (no Page Space, Data Store or executor
// involved), and a digest that lets a client thread fingerprint a response
// cheaply while the clock runs and compare it after the clock stops.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vm/vm_predicate.hpp"

namespace e2e {

/// The bytes a correct server returns for `q` on the benchmark's slides:
/// subsampling takes the pixel at each zoom-pitch sample position;
/// averaging rounds the mean of each zoom x zoom window to nearest.
[[nodiscard]] std::vector<std::byte> render(const mqs::vm::VMPredicate& q);

/// Four independent 64-bit lanes over interleaved 8-byte words, plus the
/// length. Each lane step is a bijection of the lane state, so any two
/// inputs that differ only within one lane's words always digest
/// differently; inputs that differ in several lanes collide only if all
/// four lanes collide at once.
struct Digest {
  std::array<std::uint64_t, 4> lane{};
  std::uint64_t size = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};
[[nodiscard]] Digest digestOf(std::span<const std::byte> bytes);

}  // namespace e2e
