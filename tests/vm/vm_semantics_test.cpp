#include "vm/vm_semantics.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace mqs::vm {
namespace {

class VMSemanticsTest : public ::testing::Test {
 protected:
  VMSemanticsTest() {
    ds0_ = sem_.addDataset(index::ChunkLayout(8192, 8192, 146));
    ds1_ = sem_.addDataset(index::ChunkLayout(4096, 4096, 146));
  }

  VMPredicate make(Rect r, std::uint32_t zoom, VMOp op = VMOp::Subsample,
                   storage::DatasetId ds = 0) {
    return VMPredicate(ds, r, zoom, op);
  }

  VMSemantics sem_;
  storage::DatasetId ds0_ = 0, ds1_ = 0;
};

TEST_F(VMSemanticsTest, PredicateBasics) {
  const auto p = make(Rect::ofSize(0, 0, 1024, 1024), 4);
  EXPECT_EQ(p.outWidth(), 256);
  EXPECT_EQ(p.outHeight(), 256);
  EXPECT_EQ(p.outBytes(), 256u * 256 * 3);
  EXPECT_EQ(p.kind(), "vm");
}

TEST_F(VMSemanticsTest, PredicateRequiresDivisibleRegion) {
  EXPECT_THROW(make(Rect::ofSize(0, 0, 100, 100), 3), CheckFailure);
  EXPECT_THROW(make(Rect::ofSize(0, 0, 0, 0), 1), CheckFailure);
}

TEST_F(VMSemanticsTest, BoundingBoxSeparatesDatasets) {
  const auto a = VMPredicate(0, Rect::ofSize(0, 0, 64, 64), 1, VMOp::Subsample);
  const auto b = VMPredicate(1, Rect::ofSize(0, 0, 64, 64), 1, VMOp::Subsample);
  EXPECT_TRUE(Rect::intersection(a.boundingBox(), b.boundingBox()).empty());
}

TEST_F(VMSemanticsTest, IdenticalPredicatesOverlapOne) {
  const auto p = make(Rect::ofSize(0, 0, 512, 512), 4);
  EXPECT_DOUBLE_EQ(sem_.overlap(p, p), 1.0);
  EXPECT_TRUE(sem_.cmp(p, p));
}

TEST_F(VMSemanticsTest, CmpHoldsOnlyForAResultUsableAsIs) {
  const auto q = make(Rect::ofSize(256, 256, 512, 512), 4);
  // A larger cached region at the same zoom covers q fully (overlap 1),
  // but its bytes must be cropped: not a common subexpression.
  const auto superset = make(Rect::ofSize(0, 0, 1024, 1024), 4);
  EXPECT_DOUBLE_EQ(sem_.overlap(superset, q), 1.0);
  EXPECT_FALSE(sem_.cmp(superset, q));
  EXPECT_FALSE(sem_.cmp(make(q.region(), 2), q));
  EXPECT_FALSE(sem_.cmp(make(q.region(), 4, VMOp::Average), q));
  EXPECT_FALSE(sem_.cmp(make(q.region(), 4, VMOp::Subsample, ds1_), q));
  EXPECT_TRUE(sem_.cmp(make(q.region(), 4), q));
}

TEST_F(VMSemanticsTest, Eq4HalfAreaSameZoom) {
  const auto cached = make(Rect::ofSize(0, 0, 512, 512), 4);
  const auto q = make(Rect::ofSize(256, 0, 512, 512), 4);
  // Intersection is 256x512 = half of q's area, same zoom.
  EXPECT_DOUBLE_EQ(sem_.overlap(cached, q), 0.5);
}

TEST_F(VMSemanticsTest, Eq4ZoomRatioScalesIndex) {
  // Full areal coverage, I_S = 2, O_S = 4: index = I_S / O_S = 0.5.
  const auto cached = make(Rect::ofSize(0, 0, 512, 512), 2);
  const auto q = make(Rect::ofSize(0, 0, 512, 512), 4);
  EXPECT_DOUBLE_EQ(sem_.overlap(cached, q), 0.5);
}

TEST_F(VMSemanticsTest, NonMultipleZoomIsZero) {
  const auto cached = make(Rect::ofSize(0, 0, 512, 512), 4);
  const auto q = make(Rect::ofSize(0, 0, 510, 510), 2);
  // O_S = 2 is not a multiple of I_S = 4 -> not projectable.
  EXPECT_DOUBLE_EQ(sem_.overlap(cached, q), 0.0);
}

TEST_F(VMSemanticsTest, DirectionAsymmetry) {
  const auto hiRes = make(Rect::ofSize(0, 0, 512, 512), 2);
  const auto loRes = make(Rect::ofSize(0, 0, 512, 512), 4);
  EXPECT_GT(sem_.overlap(hiRes, loRes), 0.0);   // can project 2 -> 4
  EXPECT_DOUBLE_EQ(sem_.overlap(loRes, hiRes), 0.0);  // cannot invert
}

TEST_F(VMSemanticsTest, DifferentDatasetOrOpIsZero) {
  const auto a = make(Rect::ofSize(0, 0, 512, 512), 4);
  const auto otherDs =
      VMPredicate(1, Rect::ofSize(0, 0, 512, 512), 4, VMOp::Subsample);
  const auto otherOp = make(Rect::ofSize(0, 0, 512, 512), 4, VMOp::Average);
  EXPECT_DOUBLE_EQ(sem_.overlap(a, otherDs), 0.0);
  EXPECT_DOUBLE_EQ(sem_.overlap(a, otherOp), 0.0);
}

TEST_F(VMSemanticsTest, MisalignedOriginsAreZero) {
  // Origins differ by 1, which is not a multiple of I_S = 4: the sample
  // grids never coincide.
  const auto cached = make(Rect::ofSize(0, 0, 512, 512), 4);
  const auto q = make(Rect::ofSize(1, 0, 512, 512), 4);
  EXPECT_DOUBLE_EQ(sem_.overlap(cached, q), 0.0);
}

TEST_F(VMSemanticsTest, AlignmentModuloCachedZoomSuffices) {
  // Origins differ by 2 = I_S: alignable even though 2 < O_S = 4.
  const auto cached = make(Rect::ofSize(0, 0, 512, 512), 2);
  const auto q = make(Rect::ofSize(2, 0, 512, 512), 4);
  EXPECT_GT(sem_.overlap(cached, q), 0.0);
}

TEST_F(VMSemanticsTest, CoveredRegionShrinksToOutputGrid) {
  const auto cached = make(Rect::ofSize(0, 0, 514, 512), 2);
  const auto q = make(Rect::ofSize(0, 0, 512, 512), 4);
  // Intersection is 512x512 with x1 = 512 already aligned; but a cached
  // region ending at 514 must shrink down to 512 (multiple of O_S from 0).
  EXPECT_EQ(sem_.coveredRegion(cached, q), Rect::ofSize(0, 0, 512, 512));

  const auto cached2 = make(Rect::ofSize(2, 0, 510, 512), 2);
  const Rect cov = sem_.coveredRegion(cached2, q);
  // x0 = 2 aligns up to 4; x1 = 512 stays.
  EXPECT_EQ(cov, (Rect{4, 0, 512, 512}));
}

TEST_F(VMSemanticsTest, QoutsizeAndQinputsize) {
  const auto p = make(Rect::ofSize(0, 0, 1024, 1024), 4);
  EXPECT_EQ(sem_.qoutsize(p), 256u * 256 * 3);
  // qinputsize = whole chunks intersecting the window; region covers
  // ceil(1024/146) = 8 chunks per axis.
  const auto& layout = sem_.layout(0);
  EXPECT_EQ(sem_.qinputsize(p), layout.inputBytes(p.region()));
  EXPECT_GE(sem_.qinputsize(p), 1024u * 1024 * 3);
}

TEST_F(VMSemanticsTest, RemainderNoOverlapIsWholeQuery) {
  const auto cached = make(Rect::ofSize(0, 0, 128, 128), 4);
  const auto q = make(Rect::ofSize(4096, 4096, 128, 128), 4);
  const auto rem = sem_.remainder(cached, q);
  ASSERT_EQ(rem.size(), 1u);
  EXPECT_EQ(asVM(*rem[0]).region(), q.region());
}

TEST_F(VMSemanticsTest, RemainderPlusCoveredTilesQuery) {
  const auto cached = make(Rect::ofSize(128, 128, 256, 256), 4);
  const auto q = make(Rect::ofSize(0, 0, 512, 512), 4);
  const Rect covered = sem_.coveredRegion(cached, q);
  std::vector<Rect> parts{covered};
  for (const auto& r : sem_.remainder(cached, q)) {
    parts.push_back(asVM(*r).region());
  }
  EXPECT_TRUE(exactlyCovers(q.region(), parts));
}

TEST_F(VMSemanticsTest, RemainderPartsAreValidPredicates) {
  // Every remainder predicate must satisfy the divisibility invariant —
  // the constructor throws otherwise, so constructing them is the test.
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t zc = 1u << rng.uniformInt(0, 3);
    const std::uint32_t zq = zc << rng.uniformInt(0, 2);
    const std::int64_t grid = 32;
    auto snap = [&](std::int64_t v) { return (v / grid) * grid; };
    const Rect rc = Rect::ofSize(snap(rng.uniformInt(0, 2000)),
                                 snap(rng.uniformInt(0, 2000)),
                                 static_cast<std::int64_t>(zc) * rng.uniformInt(8, 60),
                                 static_cast<std::int64_t>(zc) * rng.uniformInt(8, 60));
    const Rect rq = Rect::ofSize(snap(rng.uniformInt(0, 2000)),
                                 snap(rng.uniformInt(0, 2000)),
                                 static_cast<std::int64_t>(zq) * rng.uniformInt(8, 60),
                                 static_cast<std::int64_t>(zq) * rng.uniformInt(8, 60));
    const auto cached = make(rc, zc);
    const auto q = make(rq, zq);
    const Rect covered = sem_.coveredRegion(cached, q);
    std::vector<Rect> parts;
    if (!covered.empty()) parts.push_back(covered);
    for (const auto& r : sem_.remainder(cached, q)) {
      parts.push_back(asVM(*r).region());
      EXPECT_EQ(asVM(*r).zoom(), zq);
      EXPECT_EQ(asVM(*r).op(), q.op());
    }
    EXPECT_TRUE(exactlyCovers(q.region(), parts))
        << "cached=" << rc.str() << "@" << zc << " q=" << rq.str() << "@" << zq;
  }
}

TEST_F(VMSemanticsTest, ReusedOutputBytesExact) {
  const auto cached = make(Rect::ofSize(0, 0, 256, 512), 4);
  const auto q = make(Rect::ofSize(0, 0, 512, 512), 4);
  // Covered: 256x512 input -> 64x128 output pixels -> *3 bytes.
  EXPECT_EQ(sem_.reusedOutputBytes(cached, q), 64u * 128 * 3);
}

TEST_F(VMSemanticsTest, OverlapInUnitInterval) {
  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t zc = 1u << rng.uniformInt(0, 4);
    const std::uint32_t zq = 1u << rng.uniformInt(0, 4);
    const std::int64_t grid = 16;
    auto snap = [&](std::int64_t v) { return (v / grid) * grid; };
    const VMPredicate cached =
        make(Rect::ofSize(snap(rng.uniformInt(0, 4000)), snap(rng.uniformInt(0, 4000)),
                          static_cast<std::int64_t>(zc) * 16,
                          static_cast<std::int64_t>(zc) * 16),
             zc);
    const VMPredicate q =
        make(Rect::ofSize(snap(rng.uniformInt(0, 4000)), snap(rng.uniformInt(0, 4000)),
                          static_cast<std::int64_t>(zq) * 16,
                          static_cast<std::int64_t>(zq) * 16),
             zq);
    const double ov = sem_.overlap(cached, q);
    EXPECT_GE(ov, 0.0);
    EXPECT_LE(ov, 1.0);
  }
}

TEST_F(VMSemanticsTest, PyramidLevelTilesTheDataset) {
  // 8192^2 dataset, zoom 4, 256^2 output tiles: 8192 / (256*4) = 8 per axis.
  const auto tiles = sem_.pyramidLevel(0, 4, 256, VMOp::Average);
  EXPECT_EQ(tiles.size(), 64u);
  std::vector<Rect> rects;
  for (const auto& t : tiles) {
    EXPECT_EQ(t.zoom(), 4u);
    EXPECT_EQ(t.outWidth(), 256);
    rects.push_back(t.region());
  }
  EXPECT_TRUE(exactlyCovers(Rect::ofSize(0, 0, 8192, 8192), rects));
}

TEST_F(VMSemanticsTest, PyramidTilesCoverAlignedQueries) {
  // Any aligned query at zoom >= the pyramid's projects from some tile.
  const auto tiles = sem_.pyramidLevel(0, 2, 512, VMOp::Subsample);
  const auto q = make(Rect::ofSize(1024, 2048, 512, 512), 4);
  double best = 0.0;
  for (const auto& t : tiles) {
    best = std::max(best, sem_.overlap(t, q));
  }
  EXPECT_GT(best, 0.0);
}

TEST_F(VMSemanticsTest, AsVMRejectsForeignPredicates) {
  class Foreign final : public query::Predicate {
   public:
    [[nodiscard]] query::PredicatePtr clone() const override {
      return std::make_unique<Foreign>();
    }
    [[nodiscard]] std::string_view kind() const override { return "foreign"; }
    [[nodiscard]] Rect boundingBox() const override { return {}; }
    [[nodiscard]] std::string describe() const override { return "foreign"; }
  };
  const Foreign f;
  EXPECT_THROW((void)asVM(f), CheckFailure);
  const auto p = make(Rect::ofSize(0, 0, 64, 64), 1);
  EXPECT_DOUBLE_EQ(sem_.overlap(f, p), 0.0);
}

}  // namespace
}  // namespace mqs::vm
