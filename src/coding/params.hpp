// Coding parameters (q, m, k) and the arithmetic linking them.
//
// Section III-A: a file of b bits is split into k chunks, each an m-element
// vector over F_q with q = 2^p and m*p*k = b.  Table I of the paper
// tabulates k for 1 MB of data across the (q, m) grid; messages_required()
// reproduces that table.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gf/field_id.hpp"

namespace fairshare::coding {

/// Which codec produced a file's messages.  `dense` is the paper's
/// original full-width RLNC (every coefficient row spans all k chunks);
/// `chunked` is the overlapping-class codec of coding/chunked.hpp, whose
/// rows are nonzero only inside one small chunk class so decode cost stays
/// near-linear in file size.  Serialized on the wire as a versioned
/// FileInfo trailer with a dense default, so metadata written before this
/// field existed still decodes (p2p/wire.cpp).
enum class CodecKind : std::uint8_t {
  dense = 0,
  chunked = 1,
};

const char* to_string(CodecKind kind);

/// Public geometry of the chunked codec's class structure.  Classes are
/// windows of `class_size` consecutive chunks advancing by
/// `class_size - overlap`, so adjacent classes share `overlap` chunks;
/// `seed` fixes the message-id -> class schedule (chunked::ClassMap).
/// Everything here is public — peers and recoders need it to group
/// messages by class — while the coefficient values inside a class stay
/// derived from the secret key, as for a dense file.
struct ChunkedSchedule {
  std::uint32_t class_size = 64;  ///< chunks per class
  std::uint32_t overlap = 8;      ///< chunks shared with the previous class
  std::uint64_t seed = 0;         ///< class-schedule interleave seed

  /// A usable geometry: at least two chunks per class and a strictly
  /// positive stride (overlap < class_size).
  bool valid() const { return class_size >= 2 && overlap < class_size; }

  bool operator==(const ChunkedSchedule&) const = default;
};

/// Field and message-length choice for one encoded file.
struct CodingParams {
  gf::FieldId field = gf::FieldId::gf2_32;  ///< q = 2^p
  std::size_t m = 1u << 15;                 ///< symbols per message

  unsigned bits() const { return gf::field_bits(field); }
  /// Payload bytes of one encoded message (packed symbols).
  std::size_t message_bytes() const;
  /// The paper's defaults: k = 8, m = 32768, q = 2^32 (Section III-C).
  static CodingParams paper_defaults() {
    return CodingParams{gf::FieldId::gf2_32, 1u << 15};
  }
};

/// Number of chunks k needed to cover `bytes` of data:
/// k = ceil(8*bytes / (m*p)).  This is Table I when bytes = 2^20.
std::size_t chunks_for_bytes(std::size_t bytes, const CodingParams& params);

}  // namespace fairshare::coding
