#include "net/net_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/blocking_queue.hpp"
#include "common/check.hpp"
#include "common/logging.hpp"

namespace mqs::net {

struct NetServer::Connection {
  int fd = -1;
  /// Accept ordinal; every query submitted on this connection carries it
  /// so per-client fairness quotas apply at the wire level.
  int client = -1;
  /// (requestId, future) pairs flowing from the reader to the writer, in
  /// submission order.
  BlockingQueue<std::pair<std::uint64_t, std::future<server::QueryResult>>>
      pending;
  std::jthread reader;
  std::jthread writer;

  ~Connection() {
    reader = {};
    writer = {};
    if (fd >= 0) ::close(fd);
  }
};

NetServer::NetServer(server::QueryServer& queryServer,
                     const CodecRegistry* codecs, std::uint16_t port)
    : queryServer_(queryServer), codecs_(codecs) {
  MQS_CHECK(codecs_ != nullptr);

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MQS_CHECK_MSG(listenFd_ >= 0, "cannot create listen socket");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  MQS_CHECK_MSG(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "cannot bind query-server port");
  MQS_CHECK_MSG(::listen(listenFd_, 64) == 0, "cannot listen");

  socklen_t len = sizeof addr;
  MQS_CHECK(::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::jthread([this] { acceptLoop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  if (stopping_.exchange(true)) return;
  // listenFd_ is atomic: the accept loop sees either the live fd (its
  // accept is then unblocked by the shutdown below) or -1 (EBADF, and
  // stopping_ is already set).
  const int lfd = listenFd_.exchange(-1);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  acceptor_ = {};  // join
  std::vector<std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(mu_);
    conns.swap(connections_);
  }
  for (auto& c : conns) {
    ::shutdown(c->fd, SHUT_RDWR);  // unblock the reader
  }
  conns.clear();  // joins reader/writer threads, closes fds
}

void NetServer::acceptLoop() {
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    const auto clientId =
        static_cast<int>(accepted_.fetch_add(1, std::memory_order_relaxed));
    serveConnection(fd, clientId);
  }
}

void NetServer::serveConnection(int fd, int client) {
  auto conn = std::make_unique<Connection>();
  Connection* c = conn.get();
  c->fd = fd;
  c->client = client;

  c->reader = std::jthread([this, c] {
    Frame frame;
    while (readFrame(c->fd, frame)) {
      if (frame.type != FrameType::Query) break;
      std::uint64_t id = 0;
      try {
        Reader r(frame.payload);
        id = r.u64();
        query::PredicatePtr pred = codecs_->decode(r);
        c->pending.push({id, queryServer_.submit(std::move(pred), c->client)});
      } catch (const std::exception& e) {
        // Malformed predicate: report instead of dying.
        std::promise<server::QueryResult> p;
        p.set_exception(std::current_exception());
        c->pending.push({id, p.get_future()});
      }
    }
    c->pending.close();  // writer drains what was accepted, then exits
  });

  c->writer = std::jthread([c] {
    while (auto item = c->pending.pop()) {
      const std::uint64_t id = item->first;
      // Every frame but Result: u64 requestId | body, built in a Writer.
      const auto reply = [&](FrameType type, auto&& body) {
        Writer w;
        w.u64(id);
        body(w);
        return writeAll(c->fd, packFrame(type, w.bytes()));
      };
      // share() keeps the result state — and any exception stored in it —
      // referenced for the whole iteration. future::get() releases the
      // state *before* a catch handler runs, so the worker's promise
      // teardown could destroy the exception object concurrently with the
      // e.what() reads below; that is safe only through the runtime's
      // exception refcount, which TSan cannot observe. Holding the state
      // until after the handlers orders the teardown visibly.
      std::shared_future<server::QueryResult> settled = item->second.share();
      bool sent = false;
      try {
        // The result goes out scatter-gather, straight from its buffer.
        sent = writeResultFrame(c->fd, id, settled.get().bytes);
      } catch (const server::QueryRejected& e) {
        // Turned away at admission (queue full / over quota): the overload
        // frame, so clients can back off instead of treating this as a
        // query bug.
        sent = reply(FrameType::Rejected, [&](Writer& w) {
          w.u8(static_cast<std::uint8_t>(e.reason()));
          w.str(e.what());
        });
      } catch (const server::QueryShed& e) {
        // Admitted but dropped at dispatch (deadline shed); same overload
        // frame with the DeadlineShed discriminator.
        sent = reply(FrameType::Rejected, [&](Writer& w) {
          w.u8(static_cast<std::uint8_t>(server::RejectReason::DeadlineShed));
          w.str(e.what());
        });
      } catch (const server::QueryFailure& e) {
        // The query reached the terminal FAILED status; tell the client
        // which request died so it can distinguish this from a rejected
        // (malformed) request.
        sent = reply(FrameType::Failed, [&](Writer& w) { w.str(e.what()); });
      } catch (const std::exception& e) {
        sent = reply(FrameType::Error, [&](Writer& w) { w.str(e.what()); });
      }
      if (!sent) break;
    }
    ::shutdown(c->fd, SHUT_WR);
  });

  MutexLock lock(mu_);
  connections_.push_back(std::move(conn));
}

}  // namespace mqs::net
