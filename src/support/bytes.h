// Bounded, failure-tolerant byte serialization.
//
// All protocol messages travel as flat byte vectors. Byzantine senders may
// put arbitrary bytes on the wire, so the reader never throws on malformed
// input: it latches a failure flag and yields zeros, and decoders check
// `ok() && at_end()` once at the end. A message that fails to decode is
// treated by every protocol as absent (the paper's nodes simply ignore
// gibberish — Definition 2.2 only guarantees integrity of what was sent).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ssbft {

using Bytes = std::vector<std::uint8_t>;

// Little-endian append-only encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  // Length-prefixed (u32) vector of u64 values.
  void u64_vec(const std::vector<std::uint64_t>& v);
  // Same wire format from flat storage (scratch buffers, array slices).
  void u64_vec(const std::uint64_t* data, std::size_t len);
  // Length-prefixed (u32) raw bytes.
  void bytes(const Bytes& v);

  // Compact fixed-length vector codec for sparse field vectors. `len` is
  // known to both sides, so no length prefix travels. Wire layout:
  //
  //   ceil(len/8) mask bytes   bit i (byte i/8, bit i%8) = entry i present;
  //                            bits >= len MUST be zero.
  //   packed values            the present entries in index order, 61 bits
  //                            each, bit-packed LSB-first into
  //                            ceil(popcount * 61 / 8) bytes; padding bits
  //                            in the last byte MUST be zero.
  //
  // Entries equal to `absent` are masked out and cost 1 bit instead of 61.
  // Every present entry must fit in 61 bits (contract error otherwise) —
  // canonical Mersenne-61 field elements always do. Eight values fill
  // exactly one 61-byte block, so the packed region is a run of full
  // blocks plus one partial block, all through the kernels in
  // support/bitpack61.h.
  void masked_u64_vec(const std::uint64_t* data, std::size_t len,
                      std::uint64_t absent);

  // Raw fixed-width bitmask: `nbits` bits from bitword storage (bit i =
  // word i/64, bit i%64), as ceil(nbits/8) bytes; padding bits in the last
  // byte MUST be zero (they are taken from the words verbatim, so callers
  // keep bits >= nbits clear — bitword_clear does).
  void bits(const std::uint64_t* words, std::size_t nbits);

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  // Drops the content but keeps the buffer's capacity, so a long-lived
  // writer can build payloads beat after beat without reallocating.
  void clear() { buf_.clear(); }

 private:
  Bytes buf_;
};

// Bounds-checked decoder over a borrowed buffer. The buffer must outlive
// the reader.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : buf_(&buf) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  // Reads a length-prefixed u64 vector; the length is capped by
  // `max_elems` so a hostile length prefix cannot force a huge allocation.
  std::vector<std::uint64_t> u64_vec(std::size_t max_elems);
  // Non-allocating variant: decodes into caller scratch (which must hold
  // max_elems slots) and returns the element count. On malformed input the
  // failure flag latches, 0 is returned and dst is untouched — decoders
  // keep checking `ok() && at_end()` exactly as with u64_vec.
  std::size_t u64_vec_into(std::uint64_t* dst, std::size_t max_elems);
  Bytes bytes(std::size_t max_len);

  // Decodes ByteWriter::masked_u64_vec of a known `len` into dst[0..len):
  // masked-out entries are set to `absent`. Returns true on success. On any
  // malformed input — truncated mask, truncated packed tail, nonzero mask
  // bits >= len, nonzero padding bits — the failure flag latches, dst is
  // untouched and false is returned; decoders keep checking
  // `ok() && at_end()` exactly as with u64_vec. An "overlong tail" (extra
  // bytes after the packed values) is not consumed here and therefore
  // fails the caller's at_end() check.
  bool masked_u64_vec_into(std::uint64_t* dst, std::size_t len,
                           std::uint64_t absent);

  // Decodes ByteWriter::bits into bitword storage (the caller provides
  // bitword_count(nbits) words). Rejects nonzero padding bits in the last
  // byte; on failure the words are untouched.
  bool bits_into(std::uint64_t* words, std::size_t nbits);

  // True iff no read has run past the end so far.
  bool ok() const { return ok_; }
  // True iff the whole buffer was consumed (and no read failed).
  bool at_end() const { return ok_ && pos_ == buf_->size(); }
  std::size_t remaining() const { return ok_ ? buf_->size() - pos_ : 0; }

 private:
  bool take(std::size_t len, const std::uint8_t** out);

  const Bytes* buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Hex dump (for traces and test diagnostics).
std::string to_hex(const Bytes& b);

}  // namespace ssbft
