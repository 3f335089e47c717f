#include "net/wire.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/check.hpp"

namespace mqs::net {

void Writer::raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  bytes_.insert(bytes_.end(), b, b + n);
}

void Reader::raw(void* p, std::size_t n) {
  MQS_CHECK_MSG(offset_ + n <= data_.size(), "wire underrun");
  std::memcpy(p, data_.data() + offset_, n);
  offset_ += n;
}

std::uint8_t Reader::u8() {
  std::uint8_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint16_t Reader::u16() {
  std::uint16_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::int64_t Reader::i64() {
  std::int64_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::string Reader::str() {
  const std::uint16_t n = u16();
  std::string s(n, '\0');
  raw(s.data(), n);
  return s;
}
std::vector<std::byte> Reader::blob() {
  const std::uint64_t n = u64();
  MQS_CHECK_MSG(n <= remaining(), "wire blob underrun");
  std::vector<std::byte> out(static_cast<std::size_t>(n));
  raw(out.data(), out.size());
  return out;
}

std::vector<std::byte> packFrame(FrameType type,
                                 std::span<const std::byte> payload) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(static_cast<std::uint8_t>(type));
  std::vector<std::byte> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool writeAll(int fd, std::span<const std::byte> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool writeResultFrame(int fd, std::uint64_t requestId,
                      std::span<const std::byte> result) {
  const std::uint64_t resultLen = result.size();
  const auto payloadLen =
      static_cast<std::uint32_t>(kResultPrefixBytes + resultLen);
  const auto type = static_cast<std::uint8_t>(FrameType::Result);
  // u32 payloadLength | u8 type | u64 requestId | u64 resultLen.
  std::byte header[kFrameHeaderBytes + kResultPrefixBytes];
  std::memcpy(header, &payloadLen, 4);
  std::memcpy(header + 4, &type, 1);
  std::memcpy(header + kFrameHeaderBytes, &requestId, 8);
  std::memcpy(header + kFrameHeaderBytes + 8, &resultLen, 8);

  // sendmsg, not writev: only send-family calls take MSG_NOSIGNAL, and a
  // peer that hung up must surface as EPIPE, not kill the process.
  iovec iov[2] = {{header, sizeof header},
                  {const_cast<std::byte*>(result.data()), result.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = result.empty() ? 1 : 2;  // no zero-length entries
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    // Short write: drop what went out, resume mid-entry if need be.
    for (auto sent = static_cast<std::size_t>(n); sent > 0;) {
      const std::size_t step = std::min(sent, msg.msg_iov->iov_len);
      msg.msg_iov->iov_base = static_cast<std::byte*>(msg.msg_iov->iov_base) +
                              step;
      msg.msg_iov->iov_len -= step;
      sent -= step;
      if (msg.msg_iov->iov_len == 0) {
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
    }
  }
  return true;
}

bool readAll(int fd, std::span<std::byte> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::recv(fd, out.data() + got, out.size() - got, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool readFrameHeader(int fd, std::uint32_t& payloadLen, FrameType& type,
                     std::uint32_t maxPayload) {
  std::byte header[kFrameHeaderBytes];
  if (!readAll(fd, header)) return false;
  Reader r(header);
  payloadLen = r.u32();
  type = static_cast<FrameType>(r.u8());
  if (payloadLen > maxPayload) {
    errno = EMSGSIZE;
    return false;
  }
  return true;
}

bool readPayload(int fd, std::uint32_t payloadLen,
                 std::vector<std::byte>& out) {
  out.resize(payloadLen);
  return readAll(fd, out);
}

bool readResultPayload(int fd, std::uint32_t payloadLen,
                       std::uint64_t& requestId,
                       std::vector<std::byte>& result) {
  // Check resultLen against the frame length before allocating, so a
  // lying prefix costs nothing; then receive the result in place.
  std::byte prefix[kResultPrefixBytes];
  if (payloadLen < kResultPrefixBytes) {
    errno = EBADMSG;
    return false;
  }
  if (!readAll(fd, prefix)) return false;
  Reader r(prefix);
  requestId = r.u64();
  const std::uint64_t resultLen = r.u64();
  if (resultLen != payloadLen - kResultPrefixBytes) {
    errno = EBADMSG;
    return false;
  }
  result.resize(static_cast<std::size_t>(resultLen));
  return readAll(fd, result);
}

bool readFrame(int fd, Frame& out, std::uint32_t maxPayload) {
  std::uint32_t len = 0;
  return readFrameHeader(fd, len, out.type, maxPayload) &&
         readPayload(fd, len, out.payload);
}

}  // namespace mqs::net
