// Adversarial input for the wire layer: the decoders sit on a network
// boundary, so anything — truncation mid-field, corrupted bytes, lying
// length prefixes, unknown frame types — must come back as a clean error,
// never a crash or an out-of-bounds read. Run under ASan/UBSan these tests
// double as overread detectors.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/codecs.hpp"
#include "net/net_client.hpp"
#include "net/wire.hpp"
#include "vm/vm_predicate.hpp"
#include "vol/vol_predicate.hpp"

namespace mqs::net {
namespace {

/// One connected AF_UNIX stream pair; tests stage bytes on one end and
/// parse from the other.
struct SockPair {
  int a = -1;
  int b = -1;
  SockPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SockPair() {
    closeA();
    if (b >= 0) ::close(b);
  }
  void closeA() {
    if (a >= 0) ::close(a);
    a = -1;
  }
};

std::vector<std::byte> validQueryPayload() {
  const auto reg = CodecRegistry::standard();
  const vm::VMPredicate p(0, Rect::ofSize(64, 128, 256, 512), 4,
                          vm::VMOp::Subsample);
  Writer w;
  w.u64(123);
  reg.encode(p, w);
  return w.take();
}

/// Feed a payload to the server-side decode path (request id + predicate);
/// returns true if it decoded to a structurally valid predicate.
bool tryDecode(std::span<const std::byte> payload) {
  const auto reg = CodecRegistry::standard();
  Reader r(payload);
  try {
    (void)r.u64();
    const auto pred = reg.decode(r);
    EXPECT_NE(pred, nullptr);
    (void)pred->describe();
    return true;
  } catch (const CheckFailure&) {
    return false;  // rejected cleanly
  }
}

TEST(WireFuzz, EveryTruncationOfAValidPayloadIsRejectedCleanly) {
  const std::vector<std::byte> whole = validQueryPayload();
  ASSERT_TRUE(tryDecode(whole));
  for (std::size_t len = 0; len < whole.size(); ++len) {
    std::vector<std::byte> cut(whole.begin(),
                               whole.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(tryDecode(cut)) << "truncation at " << len
                                 << " bytes decoded as if complete";
  }
}

TEST(WireFuzz, CorruptedPayloadsNeverCrashTheDecoder) {
  const std::vector<std::byte> whole = validQueryPayload();
  Rng rng(0xC0DEC);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::byte> mutated = whole;
    const int flips = static_cast<int>(rng.uniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<std::byte>(rng.uniformInt(1, 255));
    }
    // Either outcome is fine; crashing, hanging, or overreading is not.
    (void)tryDecode(mutated);
  }
}

TEST(WireFuzz, RandomJunkAgainstEveryReaderPrimitive) {
  Rng rng(0x5EED);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.uniformInt(0, 48)));
    for (auto& b : junk) b = static_cast<std::byte>(rng.uniformInt(0, 255));
    Reader r(junk);
    try {
      for (;;) {
        switch (rng.uniformInt(0, 5)) {
          case 0: (void)r.u8(); break;
          case 1: (void)r.u16(); break;
          case 2: (void)r.u32(); break;
          case 3: (void)r.u64(); break;
          case 4: (void)r.str(); break;
          default: (void)r.blob(); break;
        }
        if (r.remaining() == 0) break;
      }
    } catch (const CheckFailure&) {
      // Underrun rejected; the reader never walked past the buffer.
    }
  }
}

TEST(WireFuzz, LyingBlobAndStringLengthsAreRejected) {
  {
    Writer w;
    w.u64(~0ULL);  // blob claims 2^64-1 bytes; 3 follow
    w.u8(1);
    w.u8(2);
    w.u8(3);
    Reader r(w.bytes());
    EXPECT_THROW((void)r.blob(), CheckFailure);
  }
  {
    Writer w;
    w.u16(60000);  // string claims 60000 bytes; none follow
    Reader r(w.bytes());
    EXPECT_THROW((void)r.str(), CheckFailure);
  }
}

TEST(WireFuzz, ReadFrameHandlesTruncationAndOversizeWithoutBlocking) {
  {
    // Header cut off mid-way, then EOF.
    SockPair s;
    const std::byte half[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
    ASSERT_TRUE(writeAll(s.a, half));
    s.closeA();
    Frame f;
    EXPECT_FALSE(readFrame(s.b, f));
  }
  {
    // Payload length exceeds the cap: rejected before any allocation of
    // attacker-controlled size.
    SockPair s;
    Writer w;
    w.u32(1u << 24);
    w.u8(static_cast<std::uint8_t>(FrameType::Query));
    ASSERT_TRUE(writeAll(s.a, w.bytes()));
    s.closeA();
    Frame f;
    EXPECT_FALSE(readFrame(s.b, f, /*maxPayload=*/1u << 16));
  }
  {
    // Declared payload longer than what arrives before EOF.
    SockPair s;
    Writer w;
    w.u32(100);
    w.u8(static_cast<std::uint8_t>(FrameType::Result));
    w.u64(7);  // only 8 of the promised 100 payload bytes
    ASSERT_TRUE(writeAll(s.a, w.bytes()));
    s.closeA();
    Frame f;
    EXPECT_FALSE(readFrame(s.b, f));
  }
}

TEST(WireFuzz, AllFrameTypesIncludingFailedSurviveTheRoundTrip) {
  SockPair s;
  for (const FrameType t : {FrameType::Query, FrameType::Result,
                            FrameType::Error, FrameType::Failed}) {
    Writer w;
    w.u64(9);
    w.str("payload");
    ASSERT_TRUE(writeAll(s.a, packFrame(t, w.bytes())));
    Frame f;
    ASSERT_TRUE(readFrame(s.b, f));
    EXPECT_EQ(f.type, t);
    Reader r(f.payload);
    EXPECT_EQ(r.u64(), 9u);
    EXPECT_EQ(r.str(), "payload");
  }
}

TEST(WireFuzz, RandomFrameStreamsNeverCrashReadFrame) {
  Rng rng(0xF4A3);
  for (int iter = 0; iter < 200; ++iter) {
    SockPair s;
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.uniformInt(0, 512)));
    for (auto& b : junk) b = static_cast<std::byte>(rng.uniformInt(0, 255));
    ASSERT_TRUE(junk.empty() || writeAll(s.a, junk));
    s.closeA();
    Frame f;
    // Drain frames until the parser gives up; a tiny payload cap keeps
    // random 4-byte lengths from turning into large allocations.
    int frames = 0;
    while (readFrame(s.b, f, /*maxPayload=*/1u << 12)) {
      ++frames;
      ASSERT_LE(f.payload.size(), 1u << 12);
      if (frames > 200) FAIL() << "parser failed to terminate";
    }
  }
}

/// A loopback listener standing in for the query server: it accepts one
/// NetClient and writes whatever bytes a test hands it.
class FakeServer {
 public:
  FakeServer() : listener_(::socket(AF_INET, SOCK_STREAM, 0)) {
    EXPECT_GE(listener_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listener_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listener_, 1), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~FakeServer() {
    if (conn_ >= 0) ::close(conn_);
    ::close(listener_);
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accept the client's connection, send `bytes`, and hang up.
  void sendAndClose(std::span<const std::byte> bytes) {
    conn_ = ::accept(listener_, nullptr, nullptr);
    ASSERT_GE(conn_, 0);
    ASSERT_TRUE(writeAll(conn_, bytes));
    ::close(conn_);
    conn_ = -1;
  }

 private:
  int listener_;
  int conn_ = -1;
  std::uint16_t port_ = 0;
};

/// What NetClient::receiveAny reports for a server that sends `bytes` and
/// hangs up: the runtime_error message, or "" if it returned normally.
std::string clientErrorFor(std::span<const std::byte> bytes) {
  const auto reg = CodecRegistry::standard();
  FakeServer server;
  NetClient client("127.0.0.1", server.port(), &reg,
                   NetClientConfig{.ioTimeoutSec = 10.0});
  server.sendAndClose(bytes);
  try {
    (void)client.receiveAny();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// A Result frame header: u32 len | u8 type | u64 requestId | u64 resultLen.
std::vector<std::byte> resultHeader(std::uint32_t payloadLen,
                                    std::uint64_t resultLen) {
  Writer w;
  w.u32(payloadLen);
  w.u8(static_cast<std::uint8_t>(FrameType::Result));
  w.u64(5);
  w.u64(resultLen);
  return w.take();
}

TEST(WireFuzz, ClientRejectsLyingResultFramesBeforeAllocating) {
  // resultLen disagrees with the frame length. Had the client sized a
  // buffer from resultLen, 2^62 would throw bad_alloc, not runtime_error.
  for (const std::uint64_t resultLen : {std::uint64_t{1} << 62,
                                        std::uint64_t{4}, std::uint64_t{9}}) {
    std::vector<std::byte> frame = resultHeader(16 + 8, resultLen);
    frame.resize(frame.size() + 8, std::byte{0x5A});
    EXPECT_EQ(clientErrorFor(frame), "malformed result frame from query server")
        << "resultLen " << resultLen;
  }
  // A frame too short to hold the requestId | resultLen prefix.
  {
    Writer w;
    w.u32(8);
    w.u8(static_cast<std::uint8_t>(FrameType::Result));
    w.u64(5);
    EXPECT_EQ(clientErrorFor(w.bytes()),
              "malformed result frame from query server");
  }
  // Over the 1 GiB payload cap: refused on the 5-byte header alone.
  EXPECT_EQ(clientErrorFor(resultHeader(kMaxPayload + 1, kMaxPayload - 15)),
            "oversized frame from query server");
}

TEST(WireFuzz, ClientRejectsTruncatedResultBody) {
  std::vector<std::byte> frame = resultHeader(16 + 1000, 1000);
  frame.resize(frame.size() + 10, std::byte{0x5A});  // 10 of 1000 bytes
  EXPECT_EQ(clientErrorFor(frame), "query server connection lost on receive");
  // Cut inside the requestId | resultLen prefix.
  const std::vector<std::byte> header = resultHeader(16 + 1000, 1000);
  EXPECT_EQ(clientErrorFor(std::span(header).first(12)),
            "query server connection lost on receive");
}

TEST(WireFuzz, ZeroLengthResultRoundTripsThroughTheClient) {
  const auto reg = CodecRegistry::standard();
  FakeServer server;
  NetClient client("127.0.0.1", server.port(), &reg,
                   NetClientConfig{.ioTimeoutSec = 10.0});
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(writeResultFrame(fds[0], 77, {}));
  ::close(fds[0]);
  std::vector<std::byte> frame(kFrameHeaderBytes + kResultPrefixBytes);
  ASSERT_TRUE(readAll(fds[1], frame));
  ::close(fds[1]);
  server.sendAndClose(frame);
  const NetClient::Outcome out = client.receiveAny();
  EXPECT_EQ(out.status, NetClient::Outcome::Status::Result);
  EXPECT_EQ(out.requestId, 77u);
  EXPECT_TRUE(out.bytes.empty());
}

TEST(WireFuzz, HostileCoordinatesAreRejectedBeforeGeometry) {
  // Coordinates near INT64_MIN/MAX would overflow inside Rect/Box extent
  // arithmetic if the codec let them through; the wire bound must reject
  // them first.
  const auto reg = CodecRegistry::standard();
  Writer w;
  w.str("vm");
  w.u32(0);
  w.i64(INT64_MIN);
  w.i64(0);
  w.i64(INT64_MAX);
  w.i64(64);
  w.u32(1);
  w.u8(0);  // VMOp::Subsample
  Reader r(w.bytes());
  EXPECT_THROW((void)reg.decode(r), CheckFailure);

  Writer w2;
  w2.str("vol");
  w2.u32(0);
  for (int i = 0; i < 3; ++i) w2.i64(INT64_MIN / 2);
  for (int i = 0; i < 3; ++i) w2.i64(INT64_MAX / 2);
  w2.u32(0);  // lod 0 is also out of range
  w2.u8(0);
  Reader r2(w2.bytes());
  EXPECT_THROW((void)reg.decode(r2), CheckFailure);
}

}  // namespace
}  // namespace mqs::net
