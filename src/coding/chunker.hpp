// Large-file streaming support (Section III-D).
//
// "We propose to overcome this problem by dividing large files into 1 MB
// chunks and then encoding each chunk as a separate file.  ...  this
// approach allows large files (e.g., audio or visual data) to be
// 'streamed' to a user in small chunks, rather than forcing the user to
// wait until the entire file contents have been downloaded."
//
// A ChunkedEncoder wraps one FileEncoder per 1 MB unit (unit i gets file
// id base_file_id + i); a ChunkedDecoder routes incoming messages to the
// right unit decoder and exposes per-unit completion so playback can start
// at the first decoded unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coding/chunked.hpp"

namespace fairshare::coding {

/// Metadata for a chunked file: per-unit FileInfo plus "additional
/// information about how such 1 MB files fit together" (Section III-D).
struct ChunkedFileInfo {
  std::uint64_t base_file_id = 0;
  std::uint64_t total_bytes = 0;
  std::size_t unit_bytes = 1u << 20;
  std::vector<FileInfo> units;  ///< unit i has file_id base_file_id + i
};

class ChunkedEncoder {
 public:
  /// Unit file ids occupy [base_file_id, base_file_id + units); the caller
  /// is responsible for spacing base ids so ranges do not collide.
  ChunkedEncoder(const SecretKey& secret, std::uint64_t base_file_id,
                 std::span<const std::byte> data, const CodingParams& params,
                 std::size_t unit_bytes = 1u << 20);

  std::size_t units() const { return encoders_.size(); }
  FileEncoder& unit(std::size_t i) { return encoders_[i]; }

  /// Snapshot of the combined metadata (per-unit digests reflect messages
  /// generated so far).
  ChunkedFileInfo info() const;

 private:
  std::uint64_t base_file_id_;
  std::uint64_t total_bytes_;
  std::size_t unit_bytes_;
  std::vector<FileEncoder> encoders_;
};

class ChunkedDecoder {
 public:
  ChunkedDecoder(const SecretKey& secret, const ChunkedFileInfo& info,
                 bool require_digests = true);

  /// Routes by message file_id.  Returns wrong_file for ids outside this
  /// chunked file's range.
  AddResult add(const EncodedMessage& message);

  std::size_t units() const { return decoders_.size(); }
  bool unit_complete(std::size_t i) const { return decoders_[i].complete(); }
  bool complete() const;

  /// Index of the first incomplete unit (== units() when done); the
  /// streaming consumer can hand units [0, next_needed_unit()) to playback.
  std::size_t next_needed_unit() const;

  /// Decoded bytes of one completed unit.
  std::vector<std::byte> unit_data(std::size_t i) const;
  /// Whole file.  Precondition: complete().
  std::vector<std::byte> reconstruct() const;

 private:
  ChunkedFileInfo info_;
  std::vector<FileDecoder> decoders_;
};

}  // namespace fairshare::coding
