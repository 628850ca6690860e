// Peer-side recoding — the design alternative the paper rejected.
//
// Practical network coding (Chou et al., the paper's [28]) and coded P2P
// storage (Acedanski et al., [33]; Gkantsidis-Rodriguez, [23]) have peers
// forward fresh random linear combinations of what they store.  The paper
// deliberately does NOT do this: "peers transmit exactly what was uploaded
// to their storage area", so peers need no computation and every message
// can be authenticated by an owner-stored digest.
//
// This module implements the rejected alternative so the trade-off can be
// measured (bench/ablation_recoding): recoding defeats the coupon-
// collector effect when peer stores overlap — almost every recoded packet
// is innovative — but costs peer CPU and forfeits per-message digest
// authentication (a recoded packet is new data the owner never hashed;
// only decode-time content verification can catch tampering).
//
// Secrecy is preserved: a recoded packet carries the combination vector
// alpha over *message ids*, not the secret betas.  Its effective
// coefficient row is sum_i alpha_i * beta_{id_i}, which only the secret
// holder can expand (chunked::Decoder::add_recoded).  Peers build packets
// with chunked::recode_class_local; a dense file is a single class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fairshare::coding {

/// A peer-generated combination of stored messages.
struct RecodedMessage {
  std::uint64_t file_id = 0;
  /// (source message id, alpha coefficient) terms; alphas are field
  /// elements of the file's field.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> combination;
  std::vector<std::byte> payload;  ///< sum_i alpha_i * Y_{id_i}

  /// Wire size: header + 16 bytes per combination term + payload.
  std::size_t wire_size() const {
    return 16 + combination.size() * 16 + payload.size();
  }
};

}  // namespace fairshare::coding
