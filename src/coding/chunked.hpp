// Overlapping-class RLNC codec: near-linear decode for large files.
//
// Dense RLNC (encoder.hpp / decoder.hpp) pays O(k^2 * m) field operations
// to decode a file of k chunks, which caps practical file sizes around the
// point where k^2 swamps the SIMD kernels (a 1 GB file at the paper's
// m = 32768, q = 2^32 has k = 8192 and decodes in minutes, not seconds).
// Following the overlapping-class construction of Heidarzadeh-Banihashemi
// (arXiv:0905.2796) and expander chunked codes (arXiv:1307.5664), this
// codec draws every coded message over one small *class* of `class_size`
// consecutive chunks; adjacent classes share `overlap` chunks.  Decoding
// runs an independent progressive elimination per class — O(class_size^2)
// rows of m symbols each, so total work is O(k * class_size * m): linear
// in file size for fixed class geometry — and completed classes donate
// their decoded overlap chunks to incomplete neighbours as unit rows, a
// back-substitution cascade that rescues classes short on direct messages.
//
// Reception overhead stays low because the class *schedule* is quota
// weighted: within every period of k message ids, class c is visited
// q_c = w_c - overlap times (w_c = class width; the first class keeps its
// full width), which sums to exactly k.  In-order delivery therefore
// completes class 0 after its quota, whose donation tops up class 1, and
// so on down the chain — k messages decode the file with overhead limited
// to the rare dependent row (~1/q per class).  Shuffled or lossy delivery
// is rescued by the same cascade running in whatever order classes happen
// to finish.  The schedule is seeded and public (ChunkedSchedule travels
// in FileInfo), so peers and recoders agree on every message's class
// without holding the secret; coefficient *values* inside a class remain
// secret-derived exactly as in the dense codec (coefficients.hpp), which
// preserves the paper's secrecy argument unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coding/coefficients.hpp"
#include "coding/message.hpp"
#include "coding/recoding.hpp"
#include "linalg/progressive.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace fairshare::coding {

// AddResult (decoder.hpp) is shared by both codecs so call sites switch on
// one enum regardless of codec kind.
enum class AddResult;

namespace chunked {

/// Pure geometry + schedule: which chunks belong to class c, and which
/// class a message id encodes over.  Deterministic from (k, schedule), so
/// encoder, decoder, recoders and peers all derive the same map.
class ClassMap {
 public:
  ClassMap(std::size_t k, const ChunkedSchedule& schedule);

  std::size_t k() const { return k_; }
  std::size_t classes() const { return widths_.size(); }
  const ChunkedSchedule& schedule() const { return schedule_; }

  /// First chunk of class c.
  std::size_t start(std::size_t c) const { return c * stride_; }
  /// Chunks in class c (class_size except possibly the last).
  std::size_t width(std::size_t c) const { return widths_[c]; }
  /// Widest class (solver/coefficient-row sizing).
  std::size_t max_width() const { return max_width_; }

  /// The class message id encodes over: position id % k in the seeded
  /// quota-interleaved period table.
  std::size_t class_of(std::uint64_t message_id) const {
    return table_[message_id % table_.size()];
  }

  /// Classes whose window contains chunk j, in increasing order.  Size is
  /// 1 away from overlap regions, >= 2 inside them.
  std::vector<std::size_t> classes_containing(std::size_t j) const;

  /// True when chunk j lies inside class c's window.
  bool contains(std::size_t c, std::size_t j) const {
    return j >= start(c) && j < start(c) + width(c);
  }

 private:
  std::size_t k_;
  ChunkedSchedule schedule_;
  std::size_t stride_;               // class_size - overlap
  std::vector<std::size_t> widths_;  // per-class chunk counts
  std::size_t max_width_;
  std::vector<std::uint32_t> table_;  // period-k id -> class schedule
};

/// Drop-in sibling of FileEncoder producing class-local messages.  Message
/// i covers only the chunks of class_of(i); rows are screened for linear
/// independence per class in batches of the class width, skipping
/// dependent ids just like the dense encoder so ids stay plain data.
///
/// Not thread-safe: one caller at a time.  generate() fans its work over a
/// pool the encoder owns, created on first use.
class Encoder {
 public:
  Encoder(const SecretKey& secret, std::uint64_t file_id,
          std::span<const std::byte> data, const CodingParams& params,
          const ChunkedSchedule& schedule);

  /// Metadata for decoding (codec = CodecKind::chunked, schedule filled
  /// in); message_digests covers every message generated so far.
  const FileInfo& info() const { return info_; }
  const ClassMap& class_map() const { return map_; }

  std::size_t k() const { return map_.k(); }
  const CodingParams& params() const { return params_; }

  /// Next screened message; deterministic like FileEncoder::next_message.
  /// The one-message case of generate(), run on the calling thread.
  EncodedMessage next_message();

  /// The next `count` screened messages, in id order.  Ids are screened
  /// on the calling thread, which also allocates every payload.  The
  /// messages are then grouped by class into blocks of up to 8: every
  /// message of a class draws on the same window of chunks, so a block
  /// streams that window once instead of once per message, walking rows
  /// in tiles so the block's destination tiles stay cached.  Blocks and
  /// their digests run on the encoder's pool (a single block runs inline),
  /// and digests are recorded in id order after the barrier.  Ids,
  /// payloads, digests and info() are identical to calling next_message()
  /// `count` times.
  std::vector<EncodedMessage> generate(std::size_t count);

  std::uint64_t ids_examined() const { return next_id_; }
  std::uint64_t messages_generated() const { return generated_; }

 private:
  SecretKey secret_;
  CodingParams params_;
  ClassMap map_;
  std::size_t chunk_bytes_;
  std::vector<std::byte> chunks_;  // k rows of m packed symbols
  CoefficientGenerator coeffs_;    // sized to max class width, truncated
  FileInfo info_;
  std::vector<linalg::IncrementalRank> batch_rank_;  // one per class
  std::uint64_t next_id_ = 0;
  std::uint64_t generated_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;  // hardware_concurrency, lazy
};

/// Per-class progressive decoder with cross-class back-substitution.
///
/// Each class owns a linalg::ProgressiveSolver over its window; incoming
/// messages are authenticated (same digest policy as FileDecoder) and
/// folded into their class's solver.  The moment a class completes, its
/// decoded chunks inside every overlap region are donated to incomplete
/// neighbouring classes as unit rows — effectively free back-substitution
/// that propagates breadth-first until no more classes flip.
class Decoder {
 public:
  Decoder(const SecretKey& secret, const FileInfo& info,
          bool require_digests = true);

  AddResult add(const EncodedMessage& message);

  /// Fold in a class-local recoded packet (every source id must map to
  /// one class; see recode_class_local).  A combination spanning classes
  /// cannot enter any class-local solver and is rejected as bad_digest —
  /// under the chunked protocol it is malformed, and like all recoded
  /// packets it carries no owner digest to vouch for it.
  AddResult add_recoded(const RecodedMessage& message);

  /// Decode a whole batch, fanning per-class elimination out over `pool`.
  /// Classes are independent linear systems, so each pool job eliminates
  /// one class's share of the batch serially; classes whose share is under
  /// linalg::kMinChunkSymbols symbols of payload work run inline on the
  /// caller instead of oversplitting the pool.  The donation cascade runs
  /// once, serially, after the barrier.  The decode outcome (completion,
  /// rank, reconstructed bytes) is identical to calling add() per message;
  /// acceptance tallies can differ, because deferring the cascade lets
  /// coded rows land as innovative that an earlier donation would have
  /// made redundant under serial add().
  void add_many(std::span<const EncodedMessage> messages,
                util::ThreadPool* pool);

  /// Parallelize payload row operations *within* each class's solver (see
  /// ProgressiveSolver::set_thread_pool).  Orthogonal to add_many's
  /// across-class fan-out; do not combine both with one pool (nested
  /// parallel_for is unsupported).
  void set_thread_pool(util::ThreadPool* pool);

  /// Chunked-path observability (PR 4 registry pattern):
  ///  * fairshare_decoder_rank{file,user,codec="chunked"} — total rank;
  ///  * fairshare_decoder_eliminate_ns{file,user,codec="chunked"} — the
  ///    decode-time histogram, split from dense by the codec label;
  ///  * fairshare_chunked_class_rank{file,user,class} — per-class gauges;
  ///  * fairshare_chunked_classes_complete_total{file,user} — cascade
  ///    progress counter.
  void enable_metrics(obs::MetricsRegistry& registry, std::uint64_t user_id);

  void add_digest(std::uint64_t message_id, const crypto::Md5Digest& digest) {
    info_.message_digests[message_id] = digest;
  }

  bool complete() const { return classes_complete_ == map_.classes(); }
  /// Sum of per-class solver ranks; reaches sum-of-widths (>= k, the
  /// overlap counted once per class) when complete.
  std::size_t rank() const;
  std::size_t k() const { return info_.k; }
  std::size_t classes_complete() const { return classes_complete_; }
  const ClassMap& class_map() const { return map_; }

  std::size_t accepted() const { return accepted_; }
  std::size_t rejected_auth() const { return rejected_auth_; }
  std::size_t non_innovative() const { return non_innovative_; }

  /// Reconstructed file (original_bytes long).  Precondition: complete().
  std::vector<std::byte> reconstruct() const;

 private:
  struct ClassState {
    linalg::ProgressiveSolver solver;
    bool complete = false;  // set once; donation runs at that moment
  };

  /// One timed add_row into class `cls`'s solver (plus its class-rank
  /// gauge); returns true when the row was innovative.  Cascading and the
  /// global rank gauge are the caller's job — add()/add_recoded cascade
  /// immediately, add_many defers until after its barrier.
  bool eliminate(std::size_t cls, std::span<const std::uint64_t> symbols,
                 const std::byte* payload);
  /// Donate decoded overlap chunks of every class in `ready` to incomplete
  /// neighbours, breadth-first, flipping classes as they fill.
  void run_cascade(std::vector<std::size_t> ready);
  void mark_complete(std::size_t cls);

  FileInfo info_;
  bool require_digests_;
  ClassMap map_;
  CoefficientGenerator coeffs_;  // sized to max class width, truncated
  std::vector<ClassState> classes_;
  std::size_t classes_complete_ = 0;
  std::size_t accepted_ = 0;
  std::size_t rejected_auth_ = 0;
  std::size_t non_innovative_ = 0;
  obs::Gauge* rank_gauge_ = nullptr;  // null = metrics disabled
  obs::Histogram* eliminate_ns_ = nullptr;
  std::vector<obs::Gauge*> class_rank_;
  obs::Counter* classes_complete_total_ = nullptr;
};

/// Peer-side class-local recoding: combine verbatim-stored messages *of
/// one class* into a fresh packet (the chunked analogue of
/// Recoder::recode).  `stored` must be non-empty and share one file id;
/// messages outside class `cls` are skipped, and at least one survivor is
/// required.  Keeping combinations class-local is what lets the decoder
/// expand them against a single class solver.
RecodedMessage recode_class_local(const ClassMap& map, std::size_t cls,
                                  std::span<const EncodedMessage> stored,
                                  const CodingParams& params,
                                  sim::SplitMix64& rng);

}  // namespace chunked
}  // namespace fairshare::coding
