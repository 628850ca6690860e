// Encoded message format and file metadata.
//
// Figure 3 of the paper: a stored data file is a sequence of
// "pre-fabricated" messages, each an 8-byte file-id, an 8-byte (plain
// text) message-id, and an m-symbol encoded payload.  Peers forward these
// verbatim; only the owner (holder of the secret key) can regenerate the
// coefficient row beta_i from the message-id and decode.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "coding/params.hpp"
#include "crypto/md5.hpp"

namespace fairshare::coding {

/// 256-bit secret known only to the encoding peer (Section III-A).
using SecretKey = std::array<std::uint8_t, 32>;

/// One coded message Y_i (Equation 1) plus its plain-text identifiers.
struct EncodedMessage {
  std::uint64_t file_id = 0;
  std::uint64_t message_id = 0;
  std::vector<std::byte> payload;  ///< m packed field symbols

  /// Wire size: 16 header bytes + payload (Figure 3).
  std::size_t wire_size() const { return 16 + payload.size(); }

  /// Serialize to the Figure 3 wire layout (little-endian ids).
  std::vector<std::byte> serialize() const;
  /// Parse a wire buffer; nullopt if it is shorter than a header.
  static std::optional<EncodedMessage> deserialize(
      std::span<const std::byte> wire);

  /// MD5 over the full wire image; this is the digest the owner stores per
  /// message for download-time authentication (Section III-C).
  crypto::Md5Digest digest() const;
};

/// Everything a user must carry to decode a file remotely: the public
/// geometry plus, if the owning peer is offline, the per-message MD5
/// digests ("this information needs to be carried by the user",
/// Section III-C).  The secret key itself is held separately.
struct FileInfo {
  std::uint64_t file_id = 0;
  std::uint64_t original_bytes = 0;  ///< unpadded file length
  CodingParams params;
  std::size_t k = 0;  ///< chunks (decoding needs k innovative messages)
  /// Which code generated the messages: dense (one class of width k) or
  /// chunked (the class geometry in `schedule`); chunked::ClassMap derives
  /// the classes from it, and peers forward either verbatim.  On the wire
  /// this travels as a versioned trailer whose absence means dense, so
  /// pre-chunked metadata still decodes.
  CodecKind codec = CodecKind::dense;
  /// Class geometry + schedule seed; meaningful only when codec ==
  /// CodecKind::chunked.
  ChunkedSchedule schedule;
  /// MD5 of the plain file contents; lets a decoder double-check its
  /// reconstruction and lets the update planner (update.hpp) detect which
  /// 1 MB units of a modified file actually changed.
  crypto::Md5Digest content_digest{};

  /// message_id -> MD5 of the full wire image.
  std::unordered_map<std::uint64_t, crypto::Md5Digest> message_digests;

  /// Digest table size in bytes (the paper's "128 hash bytes per megabyte"
  /// accounting for k = 8).
  std::size_t digest_bytes() const { return message_digests.size() * 16; }
};

/// Download-time authentication (Section III-C): true when `msg` matches
/// the digest `info` records for its id.  An id with no recorded digest
/// passes only when `require_digests` is false (a user who did not carry
/// the digest table, or ids past the FileInfo snapshot).
bool authentic(const FileInfo& info, const EncodedMessage& msg,
               bool require_digests);

}  // namespace fairshare::coding
