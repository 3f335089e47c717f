// Wire protocol between remote clients and the query server (Figure 1:
// "Client -> Query / Query Result <- Query Server"; the paper's emulated
// clients ran on a PC cluster connected over Fast Ethernet).
//
// Frames are length-prefixed:
//   u32 payloadLength | u8 type | payload
// with types:
//   Query    — u64 requestId | u16 kindLen | kind | predicate bytes
//   Result   — u64 requestId | u64 resultLen | result bytes
//   Error    — u64 requestId | u16 messageLen | message
//   Failed   — u64 requestId | u16 messageLen | message
//   Rejected — u64 requestId | u8 reason | u16 messageLen | message
//
// Error means the request itself was rejected (malformed predicate,
// transport fault); Failed means the server accepted and scheduled the
// query but it reached the terminal FAILED status (device fault past the
// retry budget, deadline exceeded mid-execution). Rejected is the overload
// frame (DESIGN.md §11): the server refused to spend compute on the query —
// either at admission (bounded queue full, per-client quota exceeded) or at
// dispatch (deadline-based shedding). The u8 reason is a
// server::RejectReason discriminator so clients can back off differently
// for "you are over quota" vs "the server is saturated".
//
// Integers are little-endian. Predicate bodies are produced by
// application-registered PredicateCodecs (see codecs.hpp).
//
// Result frames carry the bulk of the traffic, so they skip the Writer:
// writeResultFrame sends a stack header and the result bytes in one
// scatter write, and a reader takes the header with readFrameHeader and
// receives the body straight into its destination with readResultPayload. The bytes on the wire
// are exactly packFrame's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mqs::net {

enum class FrameType : std::uint8_t {
  Query = 1,
  Result = 2,
  Error = 3,
  Failed = 4,
  Rejected = 5,
};

/// Growing byte sink with little-endian primitive writers.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    raw(s.data(), s.size());
  }
  void blob(std::span<const std::byte> b) {
    u64(b.size());
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  [[nodiscard]] const std::vector<std::byte>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  void raw(const void* p, std::size_t n);
  std::vector<std::byte> bytes_;
};

/// Bounds-checked little-endian reader; throws CheckFailure on underrun.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::byte> blob();

  [[nodiscard]] std::size_t remaining() const {
    return data_.size() - offset_;
  }

 private:
  void raw(void* p, std::size_t n);
  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

/// Largest payload a reader accepts by default (1 GiB).
inline constexpr std::uint32_t kMaxPayload = 1u << 30;
/// u32 payloadLength | u8 type.
inline constexpr std::size_t kFrameHeaderBytes = 5;
/// The Result payload's fixed prefix: u64 requestId | u64 resultLen.
inline constexpr std::size_t kResultPrefixBytes = 16;

/// A parsed frame.
struct Frame {
  FrameType type = FrameType::Query;
  std::vector<std::byte> payload;
};

/// Serialize a frame (header + payload).
std::vector<std::byte> packFrame(FrameType type,
                                 std::span<const std::byte> payload);

// --- blocking socket helpers -------------------------------------------

/// Write all bytes to fd; returns false on error/peer close.
bool writeAll(int fd, std::span<const std::byte> data);
/// Read exactly n bytes; returns false on EOF/error.
bool readAll(int fd, std::span<std::byte> out);
/// Write one Result frame (u64 requestId | u64 resultLen | result) with a
/// single scatter send per attempt, never copying `result`; handles short
/// writes and EINTR as writeAll does. Returns false on error/peer close.
bool writeResultFrame(int fd, std::uint64_t requestId,
                      std::span<const std::byte> result);
/// Read one frame header; returns false on EOF/error, or with errno =
/// EMSGSIZE when the payload length exceeds `maxPayload`.
bool readFrameHeader(int fd, std::uint32_t& payloadLen, FrameType& type,
                     std::uint32_t maxPayload = kMaxPayload);
/// Read the `payloadLen`-byte payload that follows a frame header into
/// `out`; returns false on EOF/error.
bool readPayload(int fd, std::uint32_t payloadLen, std::vector<std::byte>& out);
/// Read the payload of a Result frame whose header announced `payloadLen`
/// bytes, receiving the result straight into `result`. Returns false on
/// EOF/error, or with errno = EBADMSG when resultLen disagrees with
/// `payloadLen` (checked before `result` is sized).
bool readResultPayload(int fd, std::uint32_t payloadLen,
                       std::uint64_t& requestId,
                       std::vector<std::byte>& result);
/// Read one frame; returns false on clean EOF or error.
bool readFrame(int fd, Frame& out, std::uint32_t maxPayload = kMaxPayload);

}  // namespace mqs::net
