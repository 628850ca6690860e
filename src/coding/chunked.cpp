#include "coding/chunked.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>

#include "coding/decoder.hpp"  // AddResult
#include "linalg/parallel_ops.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace fairshare::coding::chunked {

// ---------------------------------------------------------------- ClassMap

ClassMap::ClassMap(std::size_t k, const ChunkedSchedule& schedule)
    : k_(k),
      schedule_(schedule),
      stride_(schedule.class_size - schedule.overlap) {
  assert(k > 0 && "empty files cannot be encoded");
  assert(schedule.valid() && "class_size >= 2 and overlap < class_size");

  if (k <= schedule.class_size) {
    // One class covers everything; the schedule degenerates to the dense
    // codec's geometry (but rows are still screened against width k).
    stride_ = k;
    widths_.assign(1, k);
  } else {
    const std::size_t n = (k - schedule.class_size + stride_ - 1) / stride_ + 1;
    widths_.assign(n, schedule.class_size);
    widths_[n - 1] = k - (n - 1) * stride_;
    // ceil() placement guarantees overlap < w_last <= class_size, so the
    // last class always has a positive quota below.
    assert(widths_[n - 1] > schedule.overlap);
  }
  max_width_ = *std::max_element(widths_.begin(), widths_.end());

  // Quota-weighted schedule table: within every period of k ids, class c
  // appears q_c = w_c - overlap times (class 0 keeps its full width), and
  // sum q_c = sum w_c - (n-1)*overlap = k exactly.  Appearances are
  // interleaved earliest-deadline-first at fixed-point spacing k/q_c with
  // a seeded per-class phase, so the stream visits classes proportionally
  // instead of in bursts and different seeds de-correlate which ids
  // neighbouring files burn on which class.
  table_.assign(k_, 0);
  if (widths_.size() > 1) {
    struct Slot {
      std::uint64_t deadline;
      std::uint32_t cls;
    };
    std::vector<Slot> slots;
    slots.reserve(k_);
    constexpr std::uint64_t kScale = 1ull << 16;
    sim::SplitMix64 rng(schedule_.seed ^ 0x243F6A8885A308D3ull);
    for (std::size_t c = 0; c < widths_.size(); ++c) {
      const std::uint64_t quota = widths_[c] - (c > 0 ? schedule_.overlap : 0);
      const std::uint64_t step = k_ * kScale / quota;
      const std::uint64_t phase = rng.next() % step;
      for (std::uint64_t i = 0; i < quota; ++i)
        slots.push_back({phase + i * step, static_cast<std::uint32_t>(c)});
    }
    assert(slots.size() == k_);
    std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline
                                      : a.cls < b.cls;
    });
    for (std::size_t i = 0; i < slots.size(); ++i) table_[i] = slots[i].cls;
  }
}

std::vector<std::size_t> ClassMap::classes_containing(std::size_t j) const {
  assert(j < k_);
  std::vector<std::size_t> out;
  if (widths_.size() == 1) {
    out.push_back(0);
    return out;
  }
  // Smallest candidate: the first class whose full-width window could
  // still reach j; largest: the last class starting at or before j.  The
  // short last class is filtered by the explicit contains() check.
  const std::size_t lo =
      j < schedule_.class_size ? 0 : (j - schedule_.class_size) / stride_ + 1;
  const std::size_t hi = std::min(j / stride_, widths_.size() - 1);
  for (std::size_t c = lo; c <= hi; ++c)
    if (contains(c, j)) out.push_back(c);
  assert(!out.empty());
  return out;
}

// ----------------------------------------------------------------- Encoder

namespace {

// generate()'s blocking: up to kBlockMessages messages of one class share
// a pass over the class window, kTileBytes of each row at a time.
constexpr std::size_t kBlockMessages = 8;
constexpr std::size_t kTileBytes = 64 * 1024;

}  // namespace

Encoder::Encoder(const SecretKey& secret, std::uint64_t file_id,
                 std::span<const std::byte> data, const CodingParams& params,
                 const ChunkedSchedule& schedule)
    : secret_(secret),
      params_(params),
      map_(chunks_for_bytes(data.size(), params), schedule),
      chunk_bytes_(params.message_bytes()),
      coeffs_(secret, file_id, params, map_.max_width()) {
  assert((params.field != gf::FieldId::gf2_4 || params.m % 2 == 0) &&
         "GF(2^4) requires even m for byte-aligned chunks");

  chunks_.assign(map_.k() * chunk_bytes_, std::byte{0});
  std::memcpy(chunks_.data(), data.data(), data.size());

  info_.file_id = file_id;
  info_.original_bytes = data.size();
  info_.params = params;
  info_.k = map_.k();
  info_.codec = CodecKind::chunked;
  info_.schedule = schedule;
  info_.content_digest = crypto::Md5::hash(data);

  batch_rank_.reserve(map_.classes());
  for (std::size_t c = 0; c < map_.classes(); ++c)
    batch_rank_.emplace_back(params.field, map_.width(c));
}

EncodedMessage Encoder::next_message() {
  return std::move(generate(1).front());
}

std::vector<EncodedMessage> Encoder::generate(std::size_t count) {
  // Phase 1, on the calling thread: screen ids in order and allocate every
  // payload.  Payloads allocated inside pool jobs would come from the
  // workers' own malloc arenas and raise peak RSS.
  std::vector<EncodedMessage> out(count);
  std::vector<std::vector<std::uint64_t>> rows(count);
  std::vector<std::vector<std::size_t>> by_class(map_.classes());
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t cls = 0;
    for (;;) {
      const std::uint64_t candidate = next_id_++;
      cls = map_.class_of(candidate);
      const std::size_t w = map_.width(cls);
      rows[i] = coeffs_.row_symbols(candidate);
      if (!batch_rank_[cls].add_row(std::span(rows[i]).first(w)))
        continue;  // dependent; skip this id
      if (batch_rank_[cls].full())
        batch_rank_[cls] = linalg::IncrementalRank(params_.field, w);
      out[i].message_id = candidate;
      break;
    }
    out[i].file_id = info_.file_id;
    out[i].payload.assign(chunk_bytes_, std::byte{0});
    by_class[cls].push_back(i);
  }

  // Phase 2: blocks of up to kBlockMessages messages of one class.  For
  // each tile of the row, a block applies every source chunk of its class
  // window to all its destination tiles, so the window streams from
  // memory once per block and the destination tiles stay in cache.
  struct Block {
    std::size_t cls;
    std::span<const std::size_t> members;
  };
  std::vector<Block> blocks;
  for (std::size_t c = 0; c < by_class.size(); ++c)
    for (std::size_t b = 0; b < by_class[c].size(); b += kBlockMessages)
      blocks.push_back(
          {c, std::span(by_class[c])
                  .subspan(b, std::min(kBlockMessages,
                                       by_class[c].size() - b))});
  const auto& f = gf::field_view(params_.field);
  const std::size_t tile = kTileBytes * 8 / f.bits;  // symbols per tile
  std::vector<crypto::Md5Digest> digests(count);
  const auto encode_block = [&](std::size_t b) {
    const Block& block = blocks[b];
    const std::byte* window =
        chunks_.data() + map_.start(block.cls) * chunk_bytes_;
    const std::size_t w = map_.width(block.cls);
    for (std::size_t first = 0; first < params_.m; first += tile) {
      const std::size_t n = std::min(tile, params_.m - first);
      const std::size_t offset = f.row_bytes(first);  // first is even: exact
      for (std::size_t j = 0; j < w; ++j) {
        const std::byte* src = window + j * chunk_bytes_ + offset;
        for (std::size_t i : block.members)
          if (rows[i][j] != 0)
            f.axpy(out[i].payload.data() + offset, src, rows[i][j], n);
      }
    }
    for (std::size_t i : block.members) digests[i] = out[i].digest();
  };
  if (blocks.size() > 1) {
    if (!pool_) pool_ = std::make_unique<util::ThreadPool>(0);
    pool_->parallel_for(blocks.size(), encode_block);
  } else if (!blocks.empty()) {
    encode_block(0);
  }

  // Phase 3: digests enter info_ in id order, as per-message encoding
  // would record them.
  for (std::size_t i = 0; i < count; ++i)
    info_.message_digests.emplace(out[i].message_id, digests[i]);
  generated_ += count;
  return out;
}

// ----------------------------------------------------------------- Decoder

Decoder::Decoder(const SecretKey& secret, const FileInfo& info,
                 bool require_digests)
    : info_(info),
      require_digests_(require_digests),
      map_(info.k, info.schedule),
      coeffs_(secret, info.file_id, info.params, map_.max_width()) {
  assert(info.codec == CodecKind::chunked);
  classes_.reserve(map_.classes());
  for (std::size_t c = 0; c < map_.classes(); ++c)
    classes_.push_back(ClassState{
        linalg::ProgressiveSolver(info.params.field, map_.width(c),
                                  info.params.m),
        false});
}

void Decoder::set_thread_pool(util::ThreadPool* pool) {
  for (ClassState& st : classes_) st.solver.set_thread_pool(pool);
}

std::size_t Decoder::rank() const {
  std::size_t sum = 0;
  for (const ClassState& st : classes_) sum += st.solver.rank();
  return sum;
}

bool Decoder::eliminate(std::size_t cls,
                        std::span<const std::uint64_t> symbols,
                        const std::byte* payload) {
  ClassState& st = classes_[cls];
  const std::uint64_t t0 = eliminate_ns_ ? obs::monotonic_ns() : 0;
  const bool innovative = st.solver.add_row(symbols, payload);
  if (eliminate_ns_) {
    eliminate_ns_->record(obs::monotonic_ns() - t0);
    class_rank_[cls]->set(static_cast<double>(st.solver.rank()));
  }
  return innovative;
}

void Decoder::mark_complete(std::size_t cls) {
  assert(!classes_[cls].complete);
  classes_[cls].complete = true;
  ++classes_complete_;
  if (classes_complete_total_) classes_complete_total_->add(1);
}

void Decoder::run_cascade(std::vector<std::size_t> ready) {
  std::deque<std::size_t> queue;
  for (std::size_t cls : ready) {
    if (!classes_[cls].complete && classes_[cls].solver.complete()) {
      mark_complete(cls);
      queue.push_back(cls);
    }
  }
  while (!queue.empty()) {
    const std::size_t c = queue.front();
    queue.pop_front();
    const std::size_t start = map_.start(c);
    const std::size_t w = map_.width(c);
    for (std::size_t j = start; j < start + w; ++j) {
      for (std::size_t d : map_.classes_containing(j)) {
        if (d == c || classes_[d].complete) continue;
        // Donate chunk j as the unit row e_{j - start(d)}.  The donor's
        // chunk pointer stays valid because completed classes never see
        // another add_row (add()/add_many skip them).
        std::vector<std::uint64_t> unit(map_.width(d), 0);
        unit[j - map_.start(d)] = 1;
        eliminate(d, unit, classes_[c].solver.chunk(j - start));
        if (classes_[d].solver.complete()) {
          mark_complete(d);
          queue.push_back(d);
        }
      }
    }
  }
  if (rank_gauge_) rank_gauge_->set(static_cast<double>(rank()));
}

AddResult Decoder::add(const EncodedMessage& message) {
  if (complete()) return AddResult::already_complete;
  if (message.file_id != info_.file_id) return AddResult::wrong_file;
  if (message.payload.size() != info_.params.message_bytes())
    return AddResult::bad_size;

  if (require_digests_ || !info_.message_digests.empty()) {
    const auto it = info_.message_digests.find(message.message_id);
    if (it == info_.message_digests.end()) {
      if (require_digests_) {
        ++rejected_auth_;
        return AddResult::bad_digest;
      }
    } else if (message.digest() != it->second) {
      ++rejected_auth_;
      return AddResult::bad_digest;
    }
  }

  const std::size_t cls = map_.class_of(message.message_id);
  if (classes_[cls].complete) {
    ++non_innovative_;
    return AddResult::non_innovative;
  }
  const std::vector<std::uint64_t> symbols =
      coeffs_.row_symbols(message.message_id);
  const bool innovative =
      eliminate(cls, std::span(symbols).first(map_.width(cls)),
                message.payload.data());
  if (classes_[cls].solver.complete()) run_cascade({cls});
  if (rank_gauge_) rank_gauge_->set(static_cast<double>(rank()));
  if (!innovative) {
    ++non_innovative_;
    return AddResult::non_innovative;
  }
  ++accepted_;
  return AddResult::accepted;
}

AddResult Decoder::add_recoded(const RecodedMessage& message) {
  if (complete()) return AddResult::already_complete;
  if (message.file_id != info_.file_id) return AddResult::wrong_file;
  if (message.payload.size() != info_.params.message_bytes())
    return AddResult::bad_size;
  if (message.combination.empty()) {
    ++rejected_auth_;
    return AddResult::bad_digest;
  }
  const std::size_t cls = map_.class_of(message.combination.front().first);
  for (const auto& [mid, alpha] : message.combination) {
    (void)alpha;
    if (map_.class_of(mid) != cls) {  // cross-class: malformed under chunked
      ++rejected_auth_;
      return AddResult::bad_digest;
    }
  }
  if (classes_[cls].complete) {
    ++non_innovative_;
    return AddResult::non_innovative;
  }

  // Effective row: sum_i alpha_i * beta_{id_i} over the class window
  // (addition in GF(2^p) is xor).
  const auto& f = gf::field_view(info_.params.field);
  const std::size_t w = map_.width(cls);
  std::vector<std::uint64_t> row(w, 0);
  for (const auto& [mid, alpha] : message.combination) {
    const std::vector<std::uint64_t> beta = coeffs_.row_symbols(mid);
    for (std::size_t j = 0; j < w; ++j) row[j] ^= f.mul(alpha, beta[j]);
  }

  const bool innovative = eliminate(cls, row, message.payload.data());
  if (classes_[cls].solver.complete()) run_cascade({cls});
  if (rank_gauge_) rank_gauge_->set(static_cast<double>(rank()));
  if (!innovative) {
    ++non_innovative_;
    return AddResult::non_innovative;
  }
  ++accepted_;
  return AddResult::accepted;
}

void Decoder::add_many(std::span<const EncodedMessage> messages,
                       util::ThreadPool* pool) {
  // Route messages to their class; structurally invalid ones (wrong file,
  // wrong payload size) are dropped exactly as a per-message add() would
  // reject them, without touching counters.
  std::vector<std::vector<std::size_t>> by_class(map_.classes());
  const std::size_t payload_bytes = info_.params.message_bytes();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const EncodedMessage& msg = messages[i];
    if (msg.file_id != info_.file_id || msg.payload.size() != payload_bytes)
      continue;
    by_class[map_.class_of(msg.message_id)].push_back(i);
  }

  struct Tally {
    std::size_t accepted = 0;
    std::size_t rejected_auth = 0;
    std::size_t non_innovative = 0;
  };
  // Authentication + elimination for one class's share of the batch.
  // Touches only that class's solver and thread-safe instruments, so
  // distinct classes can run on distinct pool workers.
  const auto process_class = [&](std::size_t cls, Tally& tally) {
    for (std::size_t i : by_class[cls]) {
      const EncodedMessage& msg = messages[i];
      if (require_digests_ || !info_.message_digests.empty()) {
        const auto it = info_.message_digests.find(msg.message_id);
        if (it == info_.message_digests.end()) {
          if (require_digests_) {
            ++tally.rejected_auth;
            continue;
          }
        } else if (msg.digest() != it->second) {
          ++tally.rejected_auth;
          continue;
        }
      }
      if (classes_[cls].complete || classes_[cls].solver.complete()) {
        ++tally.non_innovative;
        continue;
      }
      const std::vector<std::uint64_t> symbols =
          coeffs_.row_symbols(msg.message_id);
      if (eliminate(cls, std::span(symbols).first(map_.width(cls)),
                    msg.payload.data()))
        ++tally.accepted;
      else
        ++tally.non_innovative;
    }
  };

  // Classes whose share of the batch carries at least kMinChunkSymbols
  // symbols of payload work go to the pool; smaller shares run inline so
  // fan-out overhead never exceeds the elimination it parallelizes.
  std::vector<std::size_t> pooled;
  std::vector<std::size_t> inline_classes;
  for (std::size_t c = 0; c < by_class.size(); ++c) {
    if (by_class[c].empty()) continue;
    const std::size_t work = by_class[c].size() * info_.params.m;
    if (pool != nullptr && pool->size() > 1 &&
        work >= linalg::kMinChunkSymbols)
      pooled.push_back(c);
    else
      inline_classes.push_back(c);
  }

  std::vector<Tally> tallies(pooled.size());
  if (!pooled.empty()) {
    pool->parallel_for(pooled.size(), [&](std::size_t i) {
      process_class(pooled[i], tallies[i]);
    });
  }
  Tally inline_tally;
  for (std::size_t c : inline_classes) process_class(c, inline_tally);

  for (const Tally& t : tallies) {
    accepted_ += t.accepted;
    rejected_auth_ += t.rejected_auth;
    non_innovative_ += t.non_innovative;
  }
  accepted_ += inline_tally.accepted;
  rejected_auth_ += inline_tally.rejected_auth;
  non_innovative_ += inline_tally.non_innovative;

  // Donations mutate neighbouring solvers, so the cascade waits for the
  // barrier and runs serially over every class the batch completed.
  std::vector<std::size_t> ready;
  for (std::size_t c = 0; c < classes_.size(); ++c)
    if (!classes_[c].complete && classes_[c].solver.complete())
      ready.push_back(c);
  run_cascade(std::move(ready));
  if (rank_gauge_) rank_gauge_->set(static_cast<double>(rank()));
}

void Decoder::enable_metrics(obs::MetricsRegistry& registry,
                             std::uint64_t user_id) {
  const std::string file = std::to_string(info_.file_id);
  const std::string user = std::to_string(user_id);
  const obs::LabelList labels = {
      {"file", file}, {"user", user}, {"codec", "chunked"}};
  rank_gauge_ = &registry.gauge("fairshare_decoder_rank", labels);
  eliminate_ns_ =
      &registry.histogram("fairshare_decoder_eliminate_ns", labels);
  classes_complete_total_ = &registry.counter(
      "fairshare_chunked_classes_complete_total", {{"file", file},
                                                   {"user", user}});
  class_rank_.resize(map_.classes());
  for (std::size_t c = 0; c < map_.classes(); ++c) {
    class_rank_[c] = &registry.gauge(
        "fairshare_chunked_class_rank",
        {{"file", file}, {"user", user}, {"class", std::to_string(c)}});
    class_rank_[c]->set(static_cast<double>(classes_[c].solver.rank()));
  }
  rank_gauge_->set(static_cast<double>(rank()));
  classes_complete_total_->add(classes_complete_);
}

std::vector<std::byte> Decoder::reconstruct() const {
  assert(complete());
  const std::size_t chunk_bytes = info_.params.message_bytes();
  std::vector<std::byte> out(map_.k() * chunk_bytes);
  // Every class is complete, so overlap chunks are written more than once
  // with identical bytes; walking classes avoids a per-chunk class lookup.
  for (std::size_t c = 0; c < map_.classes(); ++c) {
    const std::size_t start = map_.start(c);
    for (std::size_t j = 0; j < map_.width(c); ++j)
      std::memcpy(out.data() + (start + j) * chunk_bytes,
                  classes_[c].solver.chunk(j), chunk_bytes);
  }
  out.resize(info_.original_bytes);
  return out;
}

// ---------------------------------------------------------------- Recoding

RecodedMessage recode_class_local(const ClassMap& map, std::size_t cls,
                                  std::span<const EncodedMessage> stored,
                                  const CodingParams& params,
                                  sim::SplitMix64& rng) {
  assert(!stored.empty());
  const auto& f = gf::field_view(params.field);

  RecodedMessage out;
  out.file_id = stored.front().file_id;
  out.payload.assign(params.message_bytes(), std::byte{0});
  for (const EncodedMessage& msg : stored) {
    assert(msg.file_id == out.file_id);
    if (map.class_of(msg.message_id) != cls) continue;
    assert(msg.payload.size() == params.message_bytes());
    std::uint64_t alpha = 0;
    while (alpha == 0) alpha = rng.next() & (f.order - 1);
    out.combination.emplace_back(msg.message_id, alpha);
    f.axpy(out.payload.data(), msg.payload.data(), alpha, params.m);
  }
  assert(!out.combination.empty() &&
         "no stored message belongs to the requested class");
  return out;
}

}  // namespace fairshare::coding::chunked
