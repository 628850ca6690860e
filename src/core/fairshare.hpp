// Umbrella header for the fairshare library.
//
// fairshare reproduces "Fast data access over asymmetric channels using
// fair and secure bandwidth sharing" (Agarwal, Laifenfeld, Trachtenberg,
// Alanyali — ICDCS 2006): a peer-to-peer system in which users predistribute
// secret-keyed random-linear-coded copies of their data to other peers
// while links are idle, then download from many peers at once — beating
// their own home link's upload capacity — under the contribution-
// proportional bandwidth allocation rule of Equation (2).
//
// Layer map (bottom-up):
//   gf::      GF(2^p) arithmetic, p in {4, 8, 16, 32}
//   linalg::  matrices and progressive Gaussian elimination over GF(2^p)
//   crypto::  MD5, SHA-256, HMAC, ChaCha20, bignum/RSA, challenge-response
//   coding::  the secret-keyed RLNC codec (Section III)
//   alloc::   allocation policies: Equation (2), baselines, adversaries
//   sim::     time-slotted bandwidth simulator + fairness metrics (Sec. IV-V)
//   p2p::     full message-level system: stores, dissemination, sessions
//   core::    scenario builder gluing the above together
#pragma once

#include "alloc/policies.hpp"
#include "alloc/policy.hpp"
#include "coding/chunked.hpp"
#include "coding/chunker.hpp"
#include "core/scenario.hpp"
#include "crypto/auth.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/md5.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "gf/field.hpp"
#include "gf/row_ops.hpp"
#include "linalg/matrix.hpp"
#include "linalg/progressive.hpp"
#include "p2p/system.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
