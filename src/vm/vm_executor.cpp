#include "vm/vm_executor.hpp"

#include <cstdint>
#include <cstring>
#include <thread>

#include "common/check.hpp"

namespace mqs::vm {

VMExecutor::VMExecutor(const VMSemantics* semantics, int intraQueryThreads,
                       int readaheadPages)
    : semantics_(semantics),
      intraQueryThreads_(intraQueryThreads),
      readaheadPages_(readaheadPages) {
  MQS_CHECK(semantics_ != nullptr);
  MQS_CHECK(intraQueryThreads_ >= 1);
  MQS_CHECK(readaheadPages_ >= 0);
}

std::vector<std::byte> VMExecutor::execute(
    const query::Predicate& pred, pagespace::PageSpaceManager& ps) const {
  const VMPredicate& q = asVM(pred);
  std::vector<std::byte> out(q.outBytes());
  if (intraQueryThreads_ <= 1 || q.outHeight() < intraQueryThreads_) {
    executeInto(q, ps, out);
    return out;
  }

  // Split the query into horizontal bands on the output-pixel grid; each
  // band is an ordinary (smaller) VM query whose rows are a contiguous
  // block of the final buffer, so every worker renders directly into its
  // row slice and assembly needs no copy.
  const auto z = static_cast<std::int64_t>(q.zoom());
  const std::int64_t outH = q.outHeight();
  const std::int64_t rowBytes = q.outWidth() * 3;
  const auto bands = static_cast<std::int64_t>(intraQueryThreads_);
  std::vector<VMPredicate> parts;
  std::vector<std::span<std::byte>> slices;
  for (std::int64_t b = 0; b < bands; ++b) {
    const std::int64_t row0 = outH * b / bands;
    const std::int64_t row1 = outH * (b + 1) / bands;
    parts.emplace_back(q.dataset(),
                       Rect{q.region().x0, q.region().y0 + row0 * z,
                            q.region().x1, q.region().y0 + row1 * z},
                       q.zoom(), q.op());
    slices.push_back(std::span<std::byte>(out)
                         .subspan(static_cast<std::size_t>(row0 * rowBytes),
                                  static_cast<std::size_t>((row1 - row0) *
                                                           rowBytes)));
  }
  std::vector<std::exception_ptr> errors(parts.size());
  {
    std::vector<std::jthread> workers;
    workers.reserve(parts.size());
    for (std::size_t b = 0; b < parts.size(); ++b) {
      workers.emplace_back([this, &ps, &parts, &slices, &errors, b] {
        try {
          executeInto(parts[b], ps, slices[b]);
        } catch (...) {
          errors[b] = std::current_exception();
        }
      });
    }
  }  // join
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  return out;
}

void VMExecutor::executeInto(const VMPredicate& q,
                             pagespace::PageSpaceManager& ps,
                             std::span<std::byte> out) const {
  const index::ChunkLayout& layout = semantics_->layout(q.dataset());
  MQS_CHECK_MSG(layout.extent().contains(q.region()),
                "query region outside dataset extent");
  MQS_CHECK(out.size() == q.outBytes());

  const auto z = static_cast<std::int64_t>(q.zoom());
  const std::int64_t outW = q.outWidth();
  const Rect region = q.region();

  // Averaging accumulates window sums across chunk boundaries.
  std::vector<std::uint32_t> sums;
  if (q.op() == VMOp::Average) {
    sums.assign(out.size(), 0);
  }

  // Enumerate every chunk up front and pipeline the fetches: decode chunk
  // i while chunks i+1..i+k are in flight on the I/O pool.
  const std::vector<index::ChunkRef> chunks =
      layout.chunksIntersecting(region);
  std::vector<storage::PageKey> keys;
  keys.reserve(chunks.size());
  for (const index::ChunkRef& chunk : chunks) {
    keys.push_back({q.dataset(), chunk.id});
  }
  pagespace::ReadaheadStream stream(ps, std::move(keys), readaheadPages_);

  for (const index::ChunkRef& chunk : chunks) {
    const pagespace::PagePtr page = stream.next();
    const std::byte* data = page->data();
    const std::int64_t chunkW = chunk.rect.width();
    const Rect clip = Rect::intersection(chunk.rect, region);
    MQS_DCHECK(!clip.empty());

    auto chunkPixel = [&](std::int64_t x, std::int64_t y) {
      return data + ((y - chunk.rect.y0) * chunkW + (x - chunk.rect.x0)) * 3;
    };

    if (q.op() == VMOp::Subsample) {
      // First sample position >= clip edge on the query's sampling grid
      // (anchored at the region origin with pitch z).
      auto firstSample = [z](std::int64_t lo, std::int64_t origin) {
        return origin + (lo - origin + z - 1) / z * z;
      };
      for (std::int64_t y = firstSample(clip.y0, region.y0); y < clip.y1;
           y += z) {
        const std::int64_t py = (y - region.y0) / z;
        for (std::int64_t x = firstSample(clip.x0, region.x0); x < clip.x1;
             x += z) {
          const std::int64_t px = (x - region.x0) / z;
          const std::byte* in = chunkPixel(x, y);
          std::byte* o = out.data() + (py * outW + px) * 3;
          o[0] = in[0];
          o[1] = in[1];
          o[2] = in[2];
        }
      }
    } else {
      for (std::int64_t y = clip.y0; y < clip.y1; ++y) {
        const std::int64_t py = (y - region.y0) / z;
        for (std::int64_t x = clip.x0; x < clip.x1; ++x) {
          const std::int64_t px = (x - region.x0) / z;
          const std::byte* in = chunkPixel(x, y);
          std::uint32_t* s = sums.data() + (py * outW + px) * 3;
          s[0] += static_cast<std::uint32_t>(in[0]);
          s[1] += static_cast<std::uint32_t>(in[1]);
          s[2] += static_cast<std::uint32_t>(in[2]);
        }
      }
    }
  }

  if (q.op() == VMOp::Average) {
    const auto window = static_cast<std::uint32_t>(z * z);
    const std::uint32_t half = window / 2;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::byte>((sums[i] + half) / window);
    }
  }
}

void VMExecutor::project(const query::Predicate& cachedP,
                         std::span<const std::byte> cachedPayload,
                         const query::Predicate& outP,
                         std::span<std::byte> outBuffer) const {
  const VMPredicate& c = asVM(cachedP);
  const VMPredicate& q = asVM(outP);
  const Rect covered = semantics_->coveredRegion(c, q);
  MQS_CHECK_MSG(!covered.empty(), "project with zero overlap");
  MQS_CHECK(outBuffer.size() >= q.outBytes());
  MQS_CHECK(cachedPayload.size() >= c.outBytes());

  const auto is = static_cast<std::int64_t>(c.zoom());
  const auto os = static_cast<std::int64_t>(q.zoom());
  // projectable() guarantees O_S % I_S == 0 and origins congruent mod I_S,
  // so output pixel px + 1 starts exactly `ratio` cached pixels after px.
  const auto ratio = static_cast<std::size_t>(os / is);
  const auto cachedRow = static_cast<std::size_t>(c.outWidth()) * 3;
  const auto outRow = static_cast<std::size_t>(q.outWidth()) * 3;

  const std::int64_t px0 = (covered.x0 - q.region().x0) / os;
  const std::int64_t px1 = (covered.x1 - q.region().x0) / os;
  const std::int64_t py0 = (covered.y0 - q.region().y0) / os;
  const std::int64_t py1 = (covered.y1 - q.region().y0) / os;
  const auto width = static_cast<std::size_t>(px1 - px0);
  // Cached pixel under the covered region's top-left output pixel.
  const auto cx0 = static_cast<std::size_t>((covered.x0 - c.region().x0) / is);
  const auto cy0 = static_cast<std::size_t>((covered.y0 - c.region().y0) / is);

  const std::byte* src = cachedPayload.data() + cy0 * cachedRow + cx0 * 3;
  std::byte* dst = outBuffer.data() + static_cast<std::size_t>(py0) * outRow +
                   static_cast<std::size_t>(px0) * 3;
  const std::size_t srcStep = ratio * cachedRow;  // one output row down

  if (ratio == 1) {
    // Equal zoom: the query's pixels are the cached pixels, for both ops.
    for (std::int64_t py = py0; py < py1; ++py, src += srcStep, dst += outRow) {
      std::memcpy(dst, src, width * 3);
    }
  } else if (q.op() == VMOp::Subsample) {
    // The query's sample position coincides with every ratio-th cached
    // pixel of every ratio-th cached row.
    const std::size_t pitch = ratio * 3;
    for (std::int64_t py = py0; py < py1; ++py, src += srcStep, dst += outRow) {
      const std::byte* in = src;
      std::byte* o = dst;
      for (std::size_t px = 0; px < width; ++px, in += pitch, o += 3) {
        o[0] = in[0];
        o[1] = in[1];
        o[2] = in[2];
      }
    }
  } else {
    // Averaging: the O_S window is exactly ratio x ratio cached pixels.
    const auto rsq = static_cast<std::uint32_t>(ratio * ratio);
    const std::uint32_t half = rsq / 2;
    const std::size_t span = ratio * 3;
    std::vector<const std::byte*> rows(ratio);
    for (std::int64_t py = py0; py < py1; ++py, src += srcStep, dst += outRow) {
      for (std::size_t dy = 0; dy < ratio; ++dy) {
        rows[dy] = src + dy * cachedRow;
      }
      std::byte* o = dst;
      for (std::size_t px = 0; px < width; ++px, o += 3) {
        const std::size_t off = px * span;
        std::uint32_t s0 = 0, s1 = 0, s2 = 0;
        for (const std::byte* row : rows) {
          const std::byte* in = row + off;
          for (std::size_t k = 0; k < span; k += 3) {
            s0 += static_cast<std::uint32_t>(in[k + 0]);
            s1 += static_cast<std::uint32_t>(in[k + 1]);
            s2 += static_cast<std::uint32_t>(in[k + 2]);
          }
        }
        o[0] = static_cast<std::byte>((s0 + half) / rsq);
        o[1] = static_cast<std::byte>((s1 + half) / rsq);
        o[2] = static_cast<std::byte>((s2 + half) / rsq);
      }
    }
  }
}

}  // namespace mqs::vm
