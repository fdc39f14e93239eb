// Fuzz target: util::ByteReader itself — an op-stream interpreter. The
// first bytes pick a sequence of reads; the rest is the buffer under
// read. Checks the core reader invariants both surfaces rely on:
//   * try_read_* never throws, never reads past the view;
//   * errors are sticky: after a failure every later read fails;
//   * the throwing wrappers fail exactly when the try_ surface does.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>

#include "util/bytes.h"
#include "util/error.h"

namespace {

bool run_op(p2p::util::ByteReader& r, std::uint8_t op) {
  using p2p::util::Bytes;
  switch (op % 13) {
    case 0: {
      std::uint8_t v;
      return r.try_read_u8(v);
    }
    case 1: {
      std::uint16_t v;
      return r.try_read_u16(v);
    }
    case 2: {
      std::uint32_t v;
      return r.try_read_u32(v);
    }
    case 3: {
      std::uint64_t v;
      return r.try_read_u64(v);
    }
    case 4: {
      std::int64_t v;
      return r.try_read_i64(v);
    }
    case 5: {
      double v;
      return r.try_read_f64(v);
    }
    case 6: {
      std::uint64_t v;
      return r.try_read_varint(v);
    }
    case 7: {
      bool v;
      return r.try_read_bool(v);
    }
    case 8: {
      std::string v;
      return r.try_read_string(v);
    }
    case 9: {
      Bytes v;
      return r.try_read_bytes(v);
    }
    case 10: {
      Bytes v;
      return r.try_read_raw(op, v);
    }
    case 11: {
      std::uint64_t v;
      return r.try_read_count(v);
    }
    default: {
      p2p::util::Uuid v;
      return r.try_read_uuid(v);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  const std::size_t n_ops = std::min<std::size_t>(data[0], size - 1);
  const std::span<const std::uint8_t> ops(data + 1, n_ops);
  const std::span<const std::uint8_t> buf(data + 1 + n_ops,
                                          size - 1 - n_ops);
  const p2p::util::DecodeLimits limits{
      .max_length = 4096, .max_count = 256, .max_depth = 8};
  p2p::util::ByteReader a(buf, limits);
  p2p::util::ByteReader b(buf, limits);
  bool failed = false;
  for (const std::uint8_t op : ops) {
    bool ok = false;
    try {
      ok = run_op(a, op);
    } catch (...) {
      std::abort();  // the try_ surface must not throw
    }
    if (failed && ok) std::abort();  // errors must be sticky
    if (!ok) failed = true;
    if (a.ok() == failed) std::abort();  // ok() tracks the surface
    // The throwing surface over an identical reader must agree.
    bool threw = false;
    try {
      (void)run_op(b, op);  // b uses try_ too; drive its throwing twin
    } catch (...) {
      std::abort();
    }
    try {
      if (failed) (void)b.read_u8();  // any read on a failed reader throws
    } catch (const p2p::util::ParseError&) {
      threw = true;
    } catch (...) {
      std::abort();  // only ParseError may come out
    }
    if (failed && !threw) std::abort();
  }
  return 0;
}
