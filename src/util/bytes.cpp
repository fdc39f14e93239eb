#include "util/bytes.h"

#include <bit>
#include <cstring>

namespace p2p::util {

Bytes to_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string to_string(std::span<const std::uint8_t> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string_view to_string(DecodeError e) {
  switch (e) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kVarintOverflow: return "varint-overflow";
    case DecodeError::kLengthCap: return "length-cap";
    case DecodeError::kCountCap: return "count-cap";
    case DecodeError::kDepthCap: return "depth-cap";
    case DecodeError::kBadValue: return "bad-value";
  }
  return "unknown";
}

void ByteWriter::write_u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::write_u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_uuid(const Uuid& id) {
  write_u64(id.hi());
  write_u64(id.lo());
}

void ByteWriter::write_i64(std::int64_t v) {
  // ZigZag so small negative numbers stay short.
  const auto u = static_cast<std::uint64_t>(v);
  write_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::write_f64(double v) {
  write_u64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::write_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::write_bool(bool v) { write_u8(v ? 1 : 0); }

void ByteWriter::write_string(std::string_view v) {
  write_varint(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> v) {
  write_varint(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::write_raw(std::span<const std::uint8_t> v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

bool ByteReader::set_error(DecodeError e) {
  if (err_ == DecodeError::kNone) err_ = e;
  return false;
}

void ByteReader::fail(DecodeError e) {
  if (e != DecodeError::kNone) set_error(e);
}

void ByteReader::raise() const {
  throw ParseError("ByteReader: " + std::string(to_string(err_)) +
                   " at offset " + std::to_string(pos_));
}

bool ByteReader::try_read_u8(std::uint8_t& out) {
  if (!ok()) return false;
  if (remaining() < 1) return set_error(DecodeError::kTruncated);
  out = data_[pos_++];
  return true;
}

bool ByteReader::try_read_u16(std::uint16_t& out) {
  if (!ok()) return false;
  if (remaining() < 2) return set_error(DecodeError::kTruncated);
  out = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return true;
}

bool ByteReader::try_read_u32(std::uint32_t& out) {
  if (!ok()) return false;
  if (remaining() < 4) return set_error(DecodeError::kTruncated);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 4;
  out = v;
  return true;
}

bool ByteReader::try_read_u64(std::uint64_t& out) {
  if (!ok()) return false;
  if (remaining() < 8) return set_error(DecodeError::kTruncated);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 8;
  out = v;
  return true;
}

bool ByteReader::try_read_i64(std::int64_t& out) {
  std::uint64_t u = 0;
  if (!try_read_varint(u)) return false;
  out = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  return true;
}

bool ByteReader::try_read_f64(double& out) {
  std::uint64_t u = 0;
  if (!try_read_u64(u)) return false;
  out = std::bit_cast<double>(u);
  return true;
}

bool ByteReader::try_read_varint(std::uint64_t& out) {
  if (!ok()) return false;
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return set_error(DecodeError::kTruncated);
    const std::uint8_t b = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0))
      return set_error(DecodeError::kVarintOverflow);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      out = v;
      return true;
    }
    shift += 7;
  }
}

bool ByteReader::try_read_bool(bool& out) {
  std::uint8_t b = 0;
  if (!try_read_u8(b)) return false;
  out = b != 0;
  return true;
}

bool ByteReader::try_read_string(std::string& out) {
  std::uint64_t n = 0;
  if (!try_read_varint(n)) return false;
  // Cap before the truncation check: a hostile prefix must be rejected by
  // size even when it also overruns the buffer, and before any allocation.
  if (n > limits_.max_length) return set_error(DecodeError::kLengthCap);
  if (remaining() < n) return set_error(DecodeError::kTruncated);
  out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += static_cast<std::size_t>(n);
  return true;
}

bool ByteReader::try_read_bytes(Bytes& out) {
  std::uint64_t n = 0;
  if (!try_read_varint(n)) return false;
  if (n > limits_.max_length) return set_error(DecodeError::kLengthCap);
  if (remaining() < n) return set_error(DecodeError::kTruncated);
  out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += static_cast<std::size_t>(n);
  return true;
}

bool ByteReader::try_read_view(std::string_view& out) {
  std::uint64_t n = 0;
  if (!try_read_varint(n)) return false;
  if (n > limits_.max_length) return set_error(DecodeError::kLengthCap);
  if (remaining() < n) return set_error(DecodeError::kTruncated);
  out = std::string_view(reinterpret_cast<const char*>(data_.data()) + pos_,
                         static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return true;
}

bool ByteReader::try_read_view(std::span<const std::uint8_t>& out) {
  std::uint64_t n = 0;
  if (!try_read_varint(n)) return false;
  if (n > limits_.max_length) return set_error(DecodeError::kLengthCap);
  if (remaining() < n) return set_error(DecodeError::kTruncated);
  out = data_.subspan(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return true;
}

bool ByteReader::try_read_raw(std::size_t n, Bytes& out) {
  if (!ok()) return false;
  if (remaining() < n) return set_error(DecodeError::kTruncated);
  out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return true;
}

bool ByteReader::try_read_count(std::uint64_t& out) {
  std::uint64_t n = 0;
  if (!try_read_varint(n)) return false;
  if (n > limits_.max_count) return set_error(DecodeError::kCountCap);
  out = n;
  return true;
}

bool ByteReader::try_read_uuid(Uuid& out) {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  if (!try_read_u64(hi) || !try_read_u64(lo)) return false;
  out = Uuid{hi, lo};
  return true;
}

bool ByteReader::enter_nested() {
  if (!ok()) return false;
  if (depth_ >= limits_.max_depth) return set_error(DecodeError::kDepthCap);
  ++depth_;
  return true;
}

void ByteReader::exit_nested() {
  if (depth_ > 0) --depth_;
}

std::uint8_t ByteReader::read_u8() {
  std::uint8_t v = 0;
  if (!try_read_u8(v)) raise();
  return v;
}

std::uint16_t ByteReader::read_u16() {
  std::uint16_t v = 0;
  if (!try_read_u16(v)) raise();
  return v;
}

std::uint32_t ByteReader::read_u32() {
  std::uint32_t v = 0;
  if (!try_read_u32(v)) raise();
  return v;
}

std::uint64_t ByteReader::read_u64() {
  std::uint64_t v = 0;
  if (!try_read_u64(v)) raise();
  return v;
}

std::int64_t ByteReader::read_i64() {
  std::int64_t v = 0;
  if (!try_read_i64(v)) raise();
  return v;
}

double ByteReader::read_f64() {
  double v = 0;
  if (!try_read_f64(v)) raise();
  return v;
}

std::uint64_t ByteReader::read_varint() {
  std::uint64_t v = 0;
  if (!try_read_varint(v)) raise();
  return v;
}

bool ByteReader::read_bool() {
  bool v = false;
  if (!try_read_bool(v)) raise();
  return v;
}

std::string ByteReader::read_string() {
  std::string s;
  if (!try_read_string(s)) raise();
  return s;
}

Bytes ByteReader::read_bytes() {
  Bytes b;
  if (!try_read_bytes(b)) raise();
  return b;
}

Bytes ByteReader::read_raw(std::size_t n) {
  Bytes b;
  if (!try_read_raw(n, b)) raise();
  return b;
}

}  // namespace p2p::util
