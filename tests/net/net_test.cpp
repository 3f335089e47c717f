// Wire protocol, predicate codecs, and the TCP client/server front-end
// (loopback integration with real queries).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <future>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/image.hpp"
#include "vm/vm_executor.hpp"
#include "vol/vol_predicate.hpp"

namespace mqs::net {
namespace {

TEST(Wire, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.str("hello");
  const std::vector<std::byte> payload = {std::byte{1}, std::byte{2}};
  w.blob(payload);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), payload);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, ReaderUnderrunThrows) {
  Writer w;
  w.u16(7);
  Reader r(w.bytes());
  (void)r.u8();
  EXPECT_THROW((void)r.u32(), CheckFailure);
}

TEST(Wire, FrameHeaderLayout) {
  const std::vector<std::byte> payload = {std::byte{9}};
  const auto frame = packFrame(FrameType::Result, payload);
  ASSERT_EQ(frame.size(), 5u + 1u);
  Reader r(frame);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(FrameType::Result));
}

TEST(Wire, ScatterWrittenResultFrameEqualsPackFrame) {
  Rng rng(0x5CA7);
  // Empty, tiny, and large enough (1 MiB) that the socket buffer forces
  // short writes mid-result.
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}, std::size_t{192} << 10,
                                 (std::size_t{1} << 20) + 7}) {
    std::vector<std::byte> result(size);
    for (auto& b : result) b = static_cast<std::byte>(rng.uniformInt(0, 255));
    const std::uint64_t id = 0x1122334455667788ULL + size;
    Writer w;
    w.u64(id);
    w.blob(result);
    const std::vector<std::byte> expect = packFrame(FrameType::Result,
                                                    w.bytes());

    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::jthread writer([&] {
      EXPECT_TRUE(writeResultFrame(fds[0], id, result));
      ::close(fds[0]);
    });
    std::vector<std::byte> got(expect.size());
    ASSERT_TRUE(readAll(fds[1], got));
    std::byte extra{};
    EXPECT_EQ(::recv(fds[1], &extra, 1, 0), 0) << "bytes past the frame";
    writer = {};
    ::close(fds[1]);
    EXPECT_EQ(got, expect) << "result of " << size << " bytes";
  }
}

TEST(Wire, ScatterWriteResumesAfterSignalsAndShortWrites) {
  // A signal that interrupts a blocked sendmsg makes it return a short
  // count (or EINTR when nothing went out yet); the writer must resume
  // exactly where the kernel stopped. No SA_RESTART, so every signal the
  // reader sends while the writer blocks cuts a write short.
  struct sigaction quiet {};
  struct sigaction previous {};
  quiet.sa_handler = [](int) {};
  ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &previous), 0);

  Rng rng(0x51A1);
  std::vector<std::byte> result((std::size_t{1} << 20) + 5);
  for (auto& b : result) b = static_cast<std::byte>(rng.uniformInt(0, 255));
  Writer w;
  w.u64(9);
  w.blob(result);
  const std::vector<std::byte> expect = packFrame(FrameType::Result,
                                                  w.bytes());

  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  std::atomic<bool> sent{false};
  std::thread writer([&] {
    EXPECT_TRUE(writeResultFrame(fds[0], 9, result));
    sent = true;
  });
  std::vector<std::byte> got(expect.size());
  for (std::size_t off = 0; off < got.size();) {
    const std::size_t n = std::min<std::size_t>(4096, got.size() - off);
    ASSERT_TRUE(readAll(fds[1], std::span(got).subspan(off, n)));
    off += n;
    if (!sent) ::pthread_kill(writer.native_handle(), SIGUSR1);
  }
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);
  ::sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_EQ(got, expect);
}

TEST(Wire, ScatterWriteToAClosedPeerFailsWithoutSignal) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  const std::vector<std::byte> result(64);
  // MSG_NOSIGNAL: EPIPE comes back as false instead of raising SIGPIPE.
  EXPECT_FALSE(writeResultFrame(fds[0], 1, result));
  ::close(fds[0]);
}

TEST(Codecs, VmPredicateRoundTrip) {
  const auto reg = CodecRegistry::standard();
  const vm::VMPredicate p(3, Rect::ofSize(128, 256, 512, 1024), 4,
                          vm::VMOp::Average);
  Writer w;
  reg.encode(p, w);
  Reader r(w.bytes());
  const auto decoded = reg.decode(r);
  EXPECT_TRUE(vm::asVM(*decoded) == p);
}

TEST(Codecs, VolPredicateRoundTrip) {
  const auto reg = CodecRegistry::standard();
  const vol::VolPredicate p(1, Box3::ofSize(8, 16, 24, 64, 64, 32), 4,
                            vol::VolOp::Subvolume);
  Writer w;
  reg.encode(p, w);
  Reader r(w.bytes());
  const auto decoded = reg.decode(r);
  EXPECT_TRUE(vol::asVol(*decoded) == p);
}

TEST(Codecs, FuzzedBytesNeverCrashTheDecoder) {
  const auto reg = CodecRegistry::standard();
  Rng rng(0xF022);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.uniformInt(0, 64)));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.uniformInt(0, 255));
    }
    Reader r(junk);
    try {
      const auto decoded = reg.decode(r);
      // If it decoded, it must be a structurally valid predicate.
      ASSERT_NE(decoded, nullptr);
      (void)decoded->describe();
    } catch (const CheckFailure&) {
      // Expected for malformed input: rejected, not crashed.
    }
  }
}

TEST(Codecs, UnknownKindRejected) {
  CodecRegistry reg;  // empty
  const vm::VMPredicate p(0, Rect::ofSize(0, 0, 64, 64), 1,
                          vm::VMOp::Subsample);
  Writer w;
  EXPECT_THROW(reg.encode(p, w), CheckFailure);
}

// ---------------------------------------------------------------- loopback

class NetLoopbackTest : public ::testing::Test {
 protected:
  NetLoopbackTest()
      : layout_(1024, 1024, 96),
        slide_(layout_, kSeed),
        exec_(&sem_),
        codecs_(CodecRegistry::standard()) {
    dsid_ = sem_.addDataset(layout_);
    server::ServerConfig cfg;
    cfg.threads = 3;
    cfg.policy = "CF";
    queryServer_ = std::make_unique<server::QueryServer>(&sem_, &exec_, cfg);
    queryServer_->attach(dsid_, &slide_);
    netServer_ = std::make_unique<NetServer>(*queryServer_, &codecs_);
  }

  static constexpr std::uint64_t kSeed = 2002;

  void expectCorrect(const vm::VMPredicate& q,
                     std::span<const std::byte> bytes) {
    const auto got =
        vm::ImageRGB::fromBytes(bytes, q.outWidth(), q.outHeight());
    EXPECT_LE(maxAbsDiff(got, renderReference(q, kSeed)),
              q.op() == vm::VMOp::Average ? 2 : 0);
  }

  index::ChunkLayout layout_;
  storage::SyntheticSlideSource slide_;
  vm::VMSemantics sem_;
  vm::VMExecutor exec_;
  CodecRegistry codecs_;
  storage::DatasetId dsid_ = 0;
  std::unique_ptr<server::QueryServer> queryServer_;
  std::unique_ptr<NetServer> netServer_;
};

TEST_F(NetLoopbackTest, SingleQueryOverTcp) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  const vm::VMPredicate q(dsid_, Rect::ofSize(0, 0, 256, 256), 4,
                          vm::VMOp::Subsample);
  const auto bytes = client.execute(q);
  ASSERT_EQ(bytes.size(), q.outBytes());
  expectCorrect(q, bytes);
  EXPECT_EQ(netServer_->connectionsAccepted(), 1u);
}

TEST_F(NetLoopbackTest, PipelinedBatchComesBackInOrder) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  std::vector<vm::VMPredicate> queries;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    queries.emplace_back(dsid_, Rect::ofSize((i % 3) * 128, (i % 2) * 128,
                                             128, 128),
                         2, vm::VMOp::Average);
    ids.push_back(client.send(queries.back()));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto resp = client.receive();
    EXPECT_EQ(resp.requestId, ids[i]);
    expectCorrect(queries[i], resp.bytes);
  }
}

TEST_F(NetLoopbackTest, ManyConcurrentClients) {
  constexpr int kClients = 6;
  std::vector<std::jthread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        NetClient client("127.0.0.1", netServer_->port(), &codecs_);
        for (int i = 0; i < 4; ++i) {
          const vm::VMPredicate q(dsid_,
                                  Rect::ofSize(((c + i) % 4) * 128, 0, 256,
                                               256),
                                  2, vm::VMOp::Subsample);
          const auto bytes = client.execute(q);
          const auto got = vm::ImageRGB::fromBytes(bytes, q.outWidth(),
                                                   q.outHeight());
          if (maxAbsDiff(got, renderReference(q, kSeed)) != 0) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  clients.clear();  // join
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(netServer_->connectionsAccepted(),
            static_cast<std::uint64_t>(kClients));
}

TEST_F(NetLoopbackTest, RemoteErrorsArriveAsExceptions) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  // Region outside the dataset extent: the executor throws server-side.
  const vm::VMPredicate bad(dsid_, Rect::ofSize(4096, 4096, 256, 256), 4,
                            vm::VMOp::Subsample);
  EXPECT_THROW((void)client.execute(bad), std::runtime_error);
  // The connection stays usable afterwards.
  const vm::VMPredicate ok(dsid_, Rect::ofSize(0, 0, 128, 128), 2,
                           vm::VMOp::Subsample);
  expectCorrect(ok, client.execute(ok));
}

TEST_F(NetLoopbackTest, MalformedQueryFrameGetsErrorNotCrash) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  // Hand-craft a Query frame whose predicate body is garbage.
  Writer w;
  w.u64(77);              // request id
  w.str("vm");            // valid kind...
  w.u32(0);               // ...then a truncated predicate body
  // (Use a second raw client socket so the helper API stays clean.)
  const vm::VMPredicate ok(dsid_, Rect::ofSize(0, 0, 128, 128), 2,
                           vm::VMOp::Subsample);
  (void)client.execute(ok);  // connection warmed up

  // Send the malformed frame directly, then a valid query behind it.
  // The server must answer the bad one with an Error frame and keep going.
  NetClient raw("127.0.0.1", netServer_->port(), &codecs_);
  {
    // Reach the socket through the public API: send() encodes correctly,
    // so emit the broken frame via a throwaway derived use of wire only.
    // NetClient has no raw-write hook; open a plain socket instead.
    struct RawSock {
      int fd;
      explicit RawSock(std::uint16_t port) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr),
                  0);
      }
      ~RawSock() { ::close(fd); }
    } sock(netServer_->port());
    ASSERT_TRUE(writeAll(sock.fd, packFrame(FrameType::Query, w.bytes())));
    Frame resp;
    ASSERT_TRUE(readFrame(sock.fd, resp));
    EXPECT_EQ(resp.type, FrameType::Error);
    Reader r(resp.payload);
    EXPECT_EQ(r.u64(), 77u);
  }
  // Server still healthy for other connections.
  expectCorrect(ok, client.execute(ok));
}

TEST_F(NetLoopbackTest, ServerStopUnblocksClients) {
  NetClient client("127.0.0.1", netServer_->port(), &codecs_);
  const vm::VMPredicate q(dsid_, Rect::ofSize(0, 0, 128, 128), 2,
                          vm::VMOp::Subsample);
  (void)client.execute(q);  // connection established and working
  netServer_->stop();
  EXPECT_THROW(
      {
        // Either the send or the receive must fail promptly.
        (void)client.send(q);
        (void)client.receive();
        (void)client.receive();
      },
      std::runtime_error);
}

}  // namespace
}  // namespace mqs::net
