#include "render.hpp"

#include <cstring>

#include "storage/synthetic_source.hpp"
#include "workloads.hpp"

namespace e2e {

std::vector<std::byte> render(const mqs::vm::VMPredicate& q) {
  const std::uint64_t seed = slideSeed(q.dataset());
  const auto z = static_cast<std::int64_t>(q.zoom());
  const mqs::Rect& r = q.region();
  std::vector<std::byte> out(q.outBytes());
  std::size_t i = 0;
  for (std::int64_t py = 0; py < q.outHeight(); ++py) {
    for (std::int64_t px = 0; px < q.outWidth(); ++px) {
      const std::int64_t x0 = r.x0 + px * z;
      const std::int64_t y0 = r.y0 + py * z;
      for (int c = 0; c < 3; ++c) {
        if (q.op() == mqs::vm::VMOp::Subsample) {
          out[i++] = std::byte{mqs::storage::syntheticPixel(seed, x0, y0, c)};
          continue;
        }
        std::uint64_t sum = 0;
        for (std::int64_t y = y0; y < y0 + z; ++y) {
          for (std::int64_t x = x0; x < x0 + z; ++x) {
            sum += mqs::storage::syntheticPixel(seed, x, y, c);
          }
        }
        const auto window = static_cast<std::uint64_t>(z * z);
        out[i++] = static_cast<std::byte>((sum + window / 2) / window);
      }
    }
  }
  return out;
}

Digest digestOf(std::span<const std::byte> bytes) {
  constexpr std::uint64_t kMul = 0x9fb21c651e98df25ULL;  // odd
  Digest d;
  d.lane = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
            0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  d.size = bytes.size();
  auto step = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * kMul;
    return h ^ (h >> 29);
  };
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 32; n -= 32, p += 32) {
    for (std::size_t l = 0; l < 4; ++l) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + 8 * l, 8);
      d.lane[l] = step(d.lane[l], w);
    }
  }
  for (std::size_t l = 0; n > 0; ++l) {  // tail: zero-padded words
    std::uint64_t w = 0;
    const std::size_t take = n < 8 ? n : 8;
    std::memcpy(&w, p, take);
    d.lane[l] = step(d.lane[l], w);
    p += take;
    n -= take;
  }
  return d;
}

}  // namespace e2e
