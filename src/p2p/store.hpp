// Per-peer message storage (the "File-id.dat" store of Figure 3).
//
// Peers hold other users' coded messages verbatim: "rather than having
// peers transferring linear combinations of their information to others on
// the network, peers transmit exactly what was uploaded to their storage
// area ... peers do not need to perform any computation when messages are
// requested from them; they simply forward what they have stored"
// (Section III-A, technical difference 2).
//
// A per-file storage limit models the k' < k mode of Section III-D, where
// a peer "conserves storage space" and downloads must make up the deficit
// from other peers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "coding/message.hpp"

namespace fairshare::p2p {

/// Produces the next fresh coded message of one file (typically bound to
/// a coding::chunked::Encoder on the owning peer).
using MessageGenerator = std::function<coding::EncodedMessage()>;

class MessageStore {
 public:
  /// `per_file_limit`: maximum messages stored per file id (k' of Section
  /// III-D); additional uploads are rejected.
  explicit MessageStore(std::size_t per_file_limit = SIZE_MAX)
      : per_file_limit_(per_file_limit) {}

  /// Store a message verbatim.  Returns false (and drops it) when the
  /// per-file limit is reached, the exact message id is already held, or
  /// the file has an encode-on-demand source attached (mixing the two
  /// would renumber the source's index space mid-download).
  bool store(coding::EncodedMessage message);

  /// Attach an encode-on-demand source for `file_id`: up to `budget`
  /// further messages generated lazily by `next`, indexed after any
  /// verbatim-stored ones.  This is how the *owning* peer serves chunked
  /// files without pre-materializing every message.  Generated messages
  /// are cached in a std::deque, whose growth never invalidates
  /// references — the zero-copy serve path (net::try_write_frame_ext)
  /// keeps pointers into payloads while frames drain, and at() stays safe
  /// to call from concurrent sessions (generation is mutex-guarded).
  /// Replaces any previous source for the file.
  void attach_source(std::uint64_t file_id, std::size_t budget,
                     MessageGenerator next);

  /// Stored messages plus the attached source's budget, if any.
  std::size_t count(std::uint64_t file_id) const;
  /// Messages of one file in storage order; index < count(file_id).
  /// Indexes at or past the stored count are generated on demand; the
  /// returned reference stays valid for the store's lifetime.
  const coding::EncodedMessage& at(std::uint64_t file_id,
                                   std::size_t index) const;

  /// All file ids with at least one stored message or a source (sorted).
  std::vector<std::uint64_t> file_ids() const;

  /// Total bytes of stored payloads (the paper's "disk-space for
  /// bandwidth" trade).  On-demand caches are excluded: they are working
  /// memory of the serving session, not committed storage.
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t per_file_limit() const { return per_file_limit_; }

 private:
  struct Source {
    std::size_t budget = 0;
    MessageGenerator next;
    mutable std::mutex mutex;
    mutable std::deque<coding::EncodedMessage> cache;
  };

  std::size_t per_file_limit_;
  std::size_t bytes_used_ = 0;
  std::unordered_map<std::uint64_t, std::vector<coding::EncodedMessage>>
      files_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Source>> sources_;
};

}  // namespace fairshare::p2p
