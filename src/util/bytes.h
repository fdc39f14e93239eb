// Byte buffers with structured read/write helpers.
//
// All wire formats in the library (JXTA messages, advertisements-in-messages,
// event payloads) are encoded through ByteWriter and decoded through
// ByteReader. Integers are little-endian fixed width or LEB128 varints;
// strings and blobs are length-prefixed with a varint.
//
// ByteReader is the single audited decoder for peer-supplied bytes (the
// trust boundary — see DESIGN.md). Its core contract is Result-style and
// non-throwing: every try_read_* returns false on malformed input and
// latches a classified DecodeError; once latched, all further reads fail
// fast, so a decoder can issue its whole read sequence and check ok()
// once. The legacy read_* methods wrap the same core and throw ParseError,
// for call sites (and tests) that want exceptional reporting. Length
// prefixes and collection counts are capped by DecodeLimits *before* any
// allocation, so a hostile 8-byte frame cannot request gigabytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"
#include "util/uuid.h"

namespace p2p::util {

using Bytes = std::vector<std::uint8_t>;

// Converts text <-> bytes without reinterpreting encodings.
Bytes to_bytes(std::string_view text);
std::string to_string(std::span<const std::uint8_t> bytes);

// Lowercase hex dump (for logs and tests).
std::string to_hex(std::span<const std::uint8_t> bytes);

// Why a decode failed. Every rejected frame maps to exactly one of these,
// and the receive paths count them (net.decode_errors / jxta.decode_errors
// / tps.decode_failures) instead of letting an exception unwind a reactor
// or delivery thread.
enum class DecodeError : std::uint8_t {
  kNone = 0,        // no error (reader is usable)
  kTruncated,       // input ended before a fixed-width read or payload
  kVarintOverflow,  // varint encoding does not fit in 64 bits
  kLengthCap,       // a length prefix exceeds DecodeLimits::max_length
  kCountCap,        // a collection count exceeds DecodeLimits::max_count
  kDepthCap,        // nesting exceeds DecodeLimits::max_depth
  kBadValue,        // well-formed bytes, semantically invalid value
};

// Human-readable name ("truncated", "length-cap", ...) for logs.
[[nodiscard]] std::string_view to_string(DecodeError e);

// Resource caps enforced while decoding untrusted bytes. The defaults are
// generous (a frame can never exceed the transport's 16 MiB cap anyway);
// layers with tighter knowledge pass tighter caps (TpsConfig's decode_*
// knobs, xml::ParseLimits).
struct DecodeLimits {
  // Upper bound on any single varint length prefix (strings, blobs).
  std::size_t max_length = 16 * 1024 * 1024;
  // Upper bound on any collection count read via try_read_count().
  std::uint64_t max_count = 1 << 20;
  // Upper bound on nesting depth (enter_nested()/exit_nested()).
  std::size_t max_depth = 64;
};

// Appends encoded values to an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);   // zigzag varint
  void write_f64(double v);         // IEEE-754 bit pattern, little-endian
  void write_varint(std::uint64_t v);
  void write_bool(bool v);
  void write_string(std::string_view v);           // varint length + bytes
  void write_bytes(std::span<const std::uint8_t> v);  // varint length + bytes
  void write_raw(std::span<const std::uint8_t> v);    // no length prefix
  // The 16-byte id layout every frame shares: hi then lo, each u64.
  void write_uuid(const Uuid& id);

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

// Reads encoded values from a non-owned view; never reads past the view.
//
// Two surfaces over one core:
//   * try_read_*: return false and latch error() on malformed input
//     (sticky: every later read also fails). Zero exceptions — safe on
//     reactor and delivery threads.
//   * read_*: legacy wrappers that throw ParseError instead. Same caps.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  ByteReader(std::span<const std::uint8_t> data, const DecodeLimits& limits)
      : data_(data), limits_(limits) {}

  // --- non-throwing core ------------------------------------------------
  [[nodiscard]] bool try_read_u8(std::uint8_t& out);
  [[nodiscard]] bool try_read_u16(std::uint16_t& out);
  [[nodiscard]] bool try_read_u32(std::uint32_t& out);
  [[nodiscard]] bool try_read_u64(std::uint64_t& out);
  [[nodiscard]] bool try_read_i64(std::int64_t& out);
  [[nodiscard]] bool try_read_f64(double& out);
  [[nodiscard]] bool try_read_varint(std::uint64_t& out);
  [[nodiscard]] bool try_read_bool(bool& out);
  // Length prefix capped at limits.max_length before any allocation.
  [[nodiscard]] bool try_read_string(std::string& out);
  [[nodiscard]] bool try_read_bytes(Bytes& out);
  // Zero-copy variant of try_read_string: `out` views the reader's
  // underlying buffer, so it is valid only while that buffer outlives the
  // view (decode-in-place callers pin the buffer with a shared_ptr). Same
  // length cap, no allocation at all.
  [[nodiscard]] bool try_read_view(std::string_view& out);
  // Span twin of try_read_view, for nested binary bodies handed to another
  // ByteReader. Same lifetime contract.
  [[nodiscard]] bool try_read_view(std::span<const std::uint8_t>& out);
  // Exactly n raw bytes (no length prefix).
  [[nodiscard]] bool try_read_raw(std::size_t n, Bytes& out);
  // A varint collection count, capped at limits.max_count (defence against
  // count × per-item-allocation amplification).
  [[nodiscard]] bool try_read_count(std::uint64_t& out);
  // A 16-byte id as ByteWriter::write_uuid lays it out.
  [[nodiscard]] bool try_read_uuid(Uuid& out);

  // Nesting guard for recursive formats decoded through this reader: fails
  // with kDepthCap past limits.max_depth. exit_nested() unwinds.
  [[nodiscard]] bool enter_nested();
  void exit_nested();

  // Latches an error from decoder-level validation (e.g. an unknown frame
  // version latches kBadValue). No-op if an error is already latched.
  void fail(DecodeError e);

  [[nodiscard]] bool ok() const { return err_ == DecodeError::kNone; }
  [[nodiscard]] DecodeError error() const { return err_; }
  [[nodiscard]] const DecodeLimits& limits() const { return limits_; }

  // --- throwing wrappers (legacy surface) -------------------------------
  // Each calls the matching try_read_* and throws ParseError on failure.
  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  std::uint64_t read_varint();
  bool read_bool();
  std::string read_string();
  Bytes read_bytes();
  Bytes read_raw(std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

 private:
  // Marks the reader failed and returns false (every try_read_* bails
  // through here, keeping the sticky-error invariant in one place).
  bool set_error(DecodeError e);
  [[noreturn]] void raise() const;  // throws ParseError describing error()

  std::span<const std::uint8_t> data_;
  DecodeLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  DecodeError err_ = DecodeError::kNone;
};

}  // namespace p2p::util
