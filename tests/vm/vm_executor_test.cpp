#include "vm/vm_executor.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "pagespace/page_space_manager.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/image.hpp"

namespace mqs::vm {
namespace {

constexpr std::uint64_t kSeed = 4242;

class VMExecutorTest : public ::testing::Test {
 protected:
  VMExecutorTest()
      : layout_(1024, 1024, 96),  // non-power-of-two chunks on purpose
        slide_(layout_, kSeed),
        exec_(&sem_),
        ps_(16ULL << 20) {
    dsid_ = sem_.addDataset(layout_);
    ps_.attach(dsid_, &slide_);
  }

  VMPredicate make(Rect r, std::uint32_t zoom, VMOp op) {
    return VMPredicate(dsid_, r, zoom, op);
  }

  ImageRGB run(const VMPredicate& q) {
    const auto bytes = exec_.execute(q, ps_);
    return ImageRGB::fromBytes(bytes, q.outWidth(), q.outHeight());
  }

  index::ChunkLayout layout_;
  storage::SyntheticSlideSource slide_;
  VMSemantics sem_;
  VMExecutor exec_;
  pagespace::PageSpaceManager ps_;
  storage::DatasetId dsid_ = 0;
};

struct Case {
  Rect region;
  std::uint32_t zoom;
  VMOp op;
};

class VMExecutorParamTest : public VMExecutorTest,
                            public ::testing::WithParamInterface<Case> {};

TEST_P(VMExecutorParamTest, ExecuteMatchesReferenceExactly) {
  const Case& c = GetParam();
  const VMPredicate q = make(c.region, c.zoom, c.op);
  const ImageRGB got = run(q);
  const ImageRGB expect = renderReference(q, kSeed);
  EXPECT_EQ(maxAbsDiff(got, expect), 0) << q.describe();
}

INSTANTIATE_TEST_SUITE_P(
    RegionsZoomsOps, VMExecutorParamTest,
    ::testing::Values(
        // zoom 1 = identity copy, chunk-aligned region
        Case{Rect::ofSize(0, 0, 96, 96), 1, VMOp::Subsample},
        Case{Rect::ofSize(0, 0, 96, 96), 1, VMOp::Average},
        // unaligned region spanning chunk boundaries
        Case{Rect::ofSize(50, 70, 200, 120), 2, VMOp::Subsample},
        Case{Rect::ofSize(50, 70, 200, 120), 2, VMOp::Average},
        // larger zooms
        Case{Rect::ofSize(128, 256, 512, 256), 4, VMOp::Subsample},
        Case{Rect::ofSize(128, 256, 512, 256), 4, VMOp::Average},
        Case{Rect::ofSize(0, 0, 1024, 1024), 8, VMOp::Subsample},
        Case{Rect::ofSize(0, 0, 1024, 1024), 8, VMOp::Average},
        // odd origin (not grid-aligned) still renders correctly
        Case{Rect::ofSize(3, 5, 250, 130), 1, VMOp::Subsample},
        Case{Rect::ofSize(17, 9, 96, 64), 1, VMOp::Average}));

TEST_F(VMExecutorTest, IntraQueryParallelismIsBitIdentical) {
  for (const VMOp op : {VMOp::Subsample, VMOp::Average}) {
    for (const int threads : {2, 3, 5, 8}) {
      const VMExecutor parallel(&sem_, threads);
      // Height 260 does not divide evenly by most band counts.
      const VMPredicate q = make(Rect::ofSize(12, 8, 520, 520), 2, op);
      const auto serialBytes = exec_.execute(q, ps_);
      const auto parallelBytes = parallel.execute(q, ps_);
      ASSERT_EQ(parallelBytes.size(), serialBytes.size());
      EXPECT_EQ(parallelBytes, serialBytes)
          << toString(op) << " threads=" << threads;
    }
  }
}

TEST_F(VMExecutorTest, ParallelExecutorPropagatesErrors) {
  const VMExecutor parallel(&sem_, 4);
  const VMPredicate outside = make(Rect::ofSize(900, 900, 512, 512), 2,
                                   VMOp::Subsample);
  EXPECT_THROW((void)parallel.execute(outside, ps_), CheckFailure);
}

TEST_F(VMExecutorTest, TinyQueriesFallBackToSerial) {
  const VMExecutor parallel(&sem_, 16);
  const VMPredicate q = make(Rect::ofSize(0, 0, 8, 8), 2, VMOp::Average);
  // outHeight 4 < 16 threads: serial path, still correct.
  const auto bytes = parallel.execute(q, ps_);
  EXPECT_EQ(maxAbsDiff(ImageRGB::fromBytes(bytes, 4, 4),
                       renderReference(q, kSeed)),
            0);
}

TEST_F(VMExecutorTest, SameZoomProjectionIsExactCopy) {
  const VMPredicate cached = make(Rect::ofSize(0, 0, 512, 512), 4,
                                  VMOp::Subsample);
  const auto cachedBytes = exec_.execute(cached, ps_);
  // Query = sub-region of cached, same zoom.
  const VMPredicate q = make(Rect::ofSize(128, 128, 256, 256), 4,
                             VMOp::Subsample);
  std::vector<std::byte> out(q.outBytes());
  exec_.project(cached, cachedBytes, q, out);
  const ImageRGB got = ImageRGB::fromBytes(out, q.outWidth(), q.outHeight());
  const ImageRGB expect = renderReference(q, kSeed);
  EXPECT_EQ(maxAbsDiff(got, expect), 0);
}

TEST_F(VMExecutorTest, SubsampleProjectionAcrossZoomsIsExact) {
  const VMPredicate cached = make(Rect::ofSize(0, 0, 512, 512), 2,
                                  VMOp::Subsample);
  const auto cachedBytes = exec_.execute(cached, ps_);
  const VMPredicate q = make(Rect::ofSize(0, 0, 512, 512), 8, VMOp::Subsample);
  std::vector<std::byte> out(q.outBytes());
  exec_.project(cached, cachedBytes, q, out);
  const ImageRGB got = ImageRGB::fromBytes(out, q.outWidth(), q.outHeight());
  // Subsampling every 8th pixel == every 4th of every 2nd: bit-exact.
  EXPECT_EQ(maxAbsDiff(got, renderReference(q, kSeed)), 0);
}

TEST_F(VMExecutorTest, AverageProjectionAcrossZoomsWithinRounding) {
  const VMPredicate cached = make(Rect::ofSize(0, 0, 512, 512), 2,
                                  VMOp::Average);
  const auto cachedBytes = exec_.execute(cached, ps_);
  const VMPredicate q = make(Rect::ofSize(0, 0, 512, 512), 8, VMOp::Average);
  std::vector<std::byte> out(q.outBytes());
  exec_.project(cached, cachedBytes, q, out);
  const ImageRGB got = ImageRGB::fromBytes(out, q.outWidth(), q.outHeight());
  // Averaging averages of uint8 loses at most 1 count per stage.
  EXPECT_LE(maxAbsDiff(got, renderReference(q, kSeed)), 2);
}

TEST_F(VMExecutorTest, ProjectionWithOffsetOrigins) {
  // Cached blob origin differs from the query origin by a multiple of I_S.
  const VMPredicate cached = make(Rect::ofSize(64, 32, 512, 512), 2,
                                  VMOp::Subsample);
  const auto cachedBytes = exec_.execute(cached, ps_);
  const VMPredicate q = make(Rect::ofSize(128, 96, 256, 256), 4,
                             VMOp::Subsample);
  std::vector<std::byte> out(q.outBytes());
  exec_.project(cached, cachedBytes, q, out);
  EXPECT_EQ(maxAbsDiff(ImageRGB::fromBytes(out, q.outWidth(), q.outHeight()),
                       renderReference(q, kSeed)),
            0);
}

TEST_F(VMExecutorTest, PartialCoverageProjectsOnlyCoveredRegion) {
  const VMPredicate cached = make(Rect::ofSize(0, 0, 256, 512), 4,
                                  VMOp::Subsample);
  const auto cachedBytes = exec_.execute(cached, ps_);
  const VMPredicate q = make(Rect::ofSize(0, 0, 512, 512), 4, VMOp::Subsample);
  std::vector<std::byte> out(q.outBytes(), std::byte{0xEE});
  exec_.project(cached, cachedBytes, q, out);
  const ImageRGB got = ImageRGB::fromBytes(out, q.outWidth(), q.outHeight());
  const ImageRGB expect = renderReference(q, kSeed);
  // Left half (covered) exact; right half untouched sentinel.
  for (std::int64_t y = 0; y < got.height; ++y) {
    for (std::int64_t x = 0; x < got.width; ++x) {
      for (int ch = 0; ch < 3; ++ch) {
        if (x < 64) {
          ASSERT_EQ(got.at(x, y, ch), expect.at(x, y, ch));
        } else {
          ASSERT_EQ(got.at(x, y, ch), 0xEE);
        }
      }
    }
  }
}

TEST_F(VMExecutorTest, RemainderAssemblyReconstructsFullQuery) {
  // Emulate the server's reuse path end to end: project a cached blob,
  // compute remainder parts, assemble, compare against direct execution.
  const VMPredicate cached = make(Rect::ofSize(128, 128, 256, 256), 4,
                                  VMOp::Subsample);
  const auto cachedBytes = exec_.execute(cached, ps_);
  const VMPredicate q = make(Rect::ofSize(0, 0, 512, 512), 4, VMOp::Subsample);

  std::vector<std::byte> out(q.outBytes());
  exec_.project(cached, cachedBytes, q, out);
  for (const auto& part : sem_.remainder(cached, q)) {
    const auto partBytes = exec_.execute(*part, ps_);
    exec_.project(*part, partBytes, q, out);
  }
  EXPECT_EQ(maxAbsDiff(ImageRGB::fromBytes(out, q.outWidth(), q.outHeight()),
                       renderReference(q, kSeed)),
            0);
}

TEST_F(VMExecutorTest, ProjectWithZeroOverlapThrows) {
  const VMPredicate cached = make(Rect::ofSize(0, 0, 128, 128), 4,
                                  VMOp::Subsample);
  const VMPredicate q = make(Rect::ofSize(512, 512, 128, 128), 4,
                             VMOp::Subsample);
  std::vector<std::byte> dummy(cached.outBytes());
  std::vector<std::byte> out(q.outBytes());
  EXPECT_THROW(exec_.project(cached, dummy, q, out), CheckFailure);
}

/// The per-pixel projection loop VMExecutor::project replaced, kept here
/// only as the reference its row-wise kernels must match byte for byte.
void projectReference(const VMSemantics& sem, const VMPredicate& c,
                      std::span<const std::byte> cachedPayload,
                      const VMPredicate& q, std::span<std::byte> outBuffer) {
  const Rect covered = sem.coveredRegion(c, q);
  const auto is = static_cast<std::int64_t>(c.zoom());
  const auto os = static_cast<std::int64_t>(q.zoom());
  const std::int64_t ratio = os / is;
  const std::int64_t cw = c.outWidth();
  const std::int64_t outW = q.outWidth();
  const std::int64_t px0 = (covered.x0 - q.region().x0) / os;
  const std::int64_t px1 = (covered.x1 - q.region().x0) / os;
  const std::int64_t py0 = (covered.y0 - q.region().y0) / os;
  const std::int64_t py1 = (covered.y1 - q.region().y0) / os;
  const auto rsq = static_cast<std::uint32_t>(ratio * ratio);
  const std::uint32_t half = rsq / 2;
  for (std::int64_t py = py0; py < py1; ++py) {
    const std::int64_t y = q.region().y0 + py * os;
    const std::int64_t cy0 = (y - c.region().y0) / is;
    for (std::int64_t px = px0; px < px1; ++px) {
      const std::int64_t x = q.region().x0 + px * os;
      const std::int64_t cx0 = (x - c.region().x0) / is;
      std::byte* o = outBuffer.data() + (py * outW + px) * 3;
      if (q.op() == VMOp::Subsample || ratio == 1) {
        const std::byte* in = cachedPayload.data() + (cy0 * cw + cx0) * 3;
        o[0] = in[0];
        o[1] = in[1];
        o[2] = in[2];
      } else {
        std::uint32_t s0 = 0, s1 = 0, s2 = 0;
        for (std::int64_t dy = 0; dy < ratio; ++dy) {
          const std::byte* row =
              cachedPayload.data() + ((cy0 + dy) * cw + cx0) * 3;
          for (std::int64_t dx = 0; dx < ratio; ++dx) {
            s0 += static_cast<std::uint32_t>(row[dx * 3 + 0]);
            s1 += static_cast<std::uint32_t>(row[dx * 3 + 1]);
            s2 += static_cast<std::uint32_t>(row[dx * 3 + 2]);
          }
        }
        o[0] = static_cast<std::byte>((s0 + half) / rsq);
        o[1] = static_cast<std::byte>((s1 + half) / rsq);
        o[2] = static_cast<std::byte>((s2 + half) / rsq);
      }
    }
  }
}

enum class Overlap { CachedContainsQuery, QueryContainsCached, Partial };

/// One axis of a cached region on the query's I_S-congruent grid, placed
/// relative to the query's [lo, hi) as `shape` asks.
std::pair<std::int64_t, std::int64_t> cachedSpan(Rng& rng, std::int64_t lo,
                                                 std::int64_t hi,
                                                 std::int64_t is,
                                                 Overlap shape) {
  const std::int64_t steps = (hi - lo) / is;
  switch (shape) {
    case Overlap::CachedContainsQuery:
      return {lo - is * rng.uniformInt(0, 4), hi + is * rng.uniformInt(0, 4)};
    case Overlap::QueryContainsCached: {
      const std::int64_t a = lo + is * rng.uniformInt(0, steps - 1);
      return {a, a + is * rng.uniformInt(1, (hi - a) / is)};
    }
    case Overlap::Partial:
      if (steps >= 2 && rng.bernoulli(0.5)) {  // starts before, ends inside
        return {lo - is * rng.uniformInt(1, 4),
                hi - is * rng.uniformInt(1, steps - 1)};
      }
      return {lo + is * rng.uniformInt(1, steps),  // starts inside, ends after
              hi + is * rng.uniformInt(1, 4)};
  }
  return {lo, hi};
}

TEST_F(VMExecutorTest, RowWiseProjectionMatchesPerPixelReference) {
  Rng rng(0x9A0C);
  int cases = 0;
  for (const VMOp op : {VMOp::Subsample, VMOp::Average}) {
    for (const std::int64_t ratio : {1, 2, 4, 8}) {
      for (const Overlap shape :
           {Overlap::CachedContainsQuery, Overlap::QueryContainsCached,
            Overlap::Partial}) {
        for (int rep = 0; rep < 16; ++rep) {
          const std::int64_t is = std::int64_t{1} << rng.uniformInt(0, 2);
          const std::int64_t os = is * ratio;
          // At least 2x2 output pixels, so a partial overlap can cover one.
          const VMPredicate q = make(
              Rect::ofSize(rng.uniformInt(64, 127), rng.uniformInt(64, 127),
                           os * rng.uniformInt(2, 8), os * rng.uniformInt(2, 8)),
              static_cast<std::uint32_t>(os), op);
          // Resample until the overlap covers at least one output pixel.
          std::optional<VMPredicate> cached;
          for (int attempt = 0; attempt < 200 && !cached; ++attempt) {
            const auto [x0, x1] =
                cachedSpan(rng, q.region().x0, q.region().x1, is, shape);
            const auto [y0, y1] =
                cachedSpan(rng, q.region().y0, q.region().y1, is, shape);
            const VMPredicate c = make(Rect{x0, y0, x1, y1},
                                       static_cast<std::uint32_t>(is), op);
            if (!sem_.coveredRegion(c, q).empty()) cached = c;
          }
          ASSERT_TRUE(cached.has_value()) << q.describe();

          std::vector<std::byte> payload(cached->outBytes());
          for (auto& b : payload) {
            b = static_cast<std::byte>(rng.uniformInt(0, 255));
          }
          // Every other case hands project a larger buffer than the query
          // needs; the bytes past outBytes() must stay untouched.
          const std::size_t slack =
              rep % 2 == 0 ? 0 : static_cast<std::size_t>(rng.uniformInt(1, 64));
          std::vector<std::byte> expect(q.outBytes() + slack);
          for (auto& b : expect) {
            b = static_cast<std::byte>(rng.uniformInt(0, 255));
          }
          std::vector<std::byte> got = expect;
          projectReference(sem_, *cached, payload, q, expect);
          exec_.project(*cached, payload, q, got);
          ASSERT_EQ(got, expect) << "cached " << cached->describe()
                                 << " -> query " << q.describe();
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 4 * 3 * 16);
}

TEST_F(VMExecutorTest, RegionOutsideExtentThrows) {
  const VMPredicate q = make(Rect::ofSize(512, 512, 1024, 1024), 4,
                             VMOp::Subsample);
  EXPECT_THROW((void)exec_.execute(q, ps_), CheckFailure);
}

TEST_F(VMExecutorTest, WritePpmRoundTrip) {
  const VMPredicate q = make(Rect::ofSize(0, 0, 64, 64), 1, VMOp::Subsample);
  const ImageRGB img = run(q);
  const auto path = std::filesystem::temp_directory_path() / "mqs_test.ppm";
  ASSERT_TRUE(writePpm(img, path));
  EXPECT_GT(std::filesystem::file_size(path), 64u * 64 * 3);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mqs::vm
