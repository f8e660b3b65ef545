// A Feldman-Micali-style probabilistic coin-flipping instance
// (Definition 2.6; Observation 2.1).
//
// Every node deals a uniform secret of Z_p through graded VSS; after the
// one-round recover phase each node outputs the parity of the sum of the
// recovered secrets of all dealers it graded >= 1 (kLow). Properties:
//
//   (termination)      exactly 4 send rounds (Delta_A = 4): deal, cross-
//                      check, happy votes, recover shares;
//   (binary output)    parity of a field-element sum;
//   (events E0/E1)     correct dealers are graded 2 by everyone and their
//                      secrets recovered identically by everyone; when the
//                      adversary's dealings do not split grades across
//                      correct nodes, all nodes sum the same set and the
//                      parity is a fair common coin (p0 ~ p1 ~ 1/2 up to
//                      the 2^-61 bias of parity over Z_(2^61-1));
//   (unpredictability) dealings are degree-f symmetric bivariate
//                      polynomials — f rows give zero information, so the
//                      sum is unknowable to the adversary until the
//                      recover round, by which time all its dealings are
//                      committed (graded).
//
// Full Feldman-Micali guarantees constant common-coin probability against
// *every* adversary via additional oblivious-coin machinery; this simpler
// graded-inclusion rule can diverge when an adversarial dealing lands on
// the grade-1/grade-0 boundary at different correct nodes. That gap is a
// documented substitution (DESIGN.md): `ssbft_bench run coin_quality`
// measures the realized p0/p1 per adversary, including a dedicated grade-splitting
// attacker, and the clock layer above consumes only the measured
// constants.
//
// Wire format (compact, PR 4)
// ---------------------------
// Deal, cross and share vectors travel as masked field vectors
// (ByteWriter::masked_u64_vec): a validity bitmask (1 bit per entry, the
// sentinel "no value" entries masked out) followed by the present values
// bit-packed at 61 bits each (instead of 64, and no length prefix — the
// vector length is fixed by (n, f), which both sides know). Vote masks
// travel as raw ceil(n/8)-byte bitmasks (ByteWriter::bits). Decoding is
// strict: mask or padding garbage, truncation and trailing bytes are all
// rejected exactly like the old u64_vec `at_end()` contract, and a
// masked-out entry decodes to the sentinel, so the round logic is
// unchanged — only the bytes on the wire shrink (a missing row costs 1
// bit, not 8 bytes).
//
// Hot-path layout
// ---------------
// All per-dealer state is flat uint64 storage, and the three arithmetic
// loops are one matrix product each over the (n, f) tables of
// coin_tables() (coin/gvss.h), shared process-wide:
//   * deal send: the rows for all n nodes are powers * C, C the dealing's
//     coefficient matrix;
//   * deal receive: every received row is decoded and validated, then all
//     are evaluated at every node point at once as R * vander, straight
//     into the n x (n+1) row_evals_ table that rounds 2-4 read;
//   * recover: the dealings whose shares come from the common sender set
//     are checked and recovered together (gvss_recover_all).
// Vote masks are bit-packed words (support/bitwords.h), and every
// round-transient buffer lives in an FmCoinScratch shared by the staggered
// instances of one pipeline — at any beat exactly one instance executes a
// given round, so round-local scratch never overlaps. Together with the
// pipeline's reinit-recycling, a warm FM-coin beat performs zero heap
// allocations (tests/alloc_test.cpp pins this for the full clock stack).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coin/coin_interface.h"
#include "coin/gvss.h"
#include "field/fp.h"

namespace ssbft {

// The coin has no tunables: the field is fixed at Mersenne-61 (field/fp.h),
// a prime > n for every committee size (Remark 2.3). The type stays as the
// spec and instance constructors' parameter slot.
struct FmCoinParams {};

// Round-transient buffers plus the shared (n, f) tables, used by all
// instances of one coin pipeline (and across beats). Instances built
// without one allocate a private scratch (the tables stay shared), so
// standalone use needs no plumbing.
struct FmCoinScratch {
  // Idempotent per (n, f); rebuilds when the shape changes. The one place
  // the coin looks the tables up, so it happens at construction only.
  void ensure(std::uint32_t n, std::uint32_t f);

  std::uint32_t n = 0;
  std::uint32_t f = 0;

  std::shared_ptr<const CoinTables> tables;
  std::vector<std::uint64_t> vals;     // n-element payload codec buffer
  // n x n: the recover round's received share matrix. The deal rounds
  // stage their n rows (n x (f+1)) in the same storage.
  std::vector<std::uint64_t> shares;
  std::vector<std::uint8_t> shares_ok; // per sender: shares and votes decoded
  std::vector<std::uint32_t> votes;    // per dealer: happy-vote tally
  std::vector<std::optional<std::uint64_t>> secrets;  // per dealer
  GvssRecoverScratch recover;
};

class FmCoinInstance final : public CoinInstance {
 public:
  FmCoinInstance(const ProtocolEnv& env, const FmCoinParams& params, Rng rng,
                 std::shared_ptr<FmCoinScratch> scratch = nullptr);

  int rounds() const override { return kRounds; }
  void send_round(int round, Outbox& out, ChannelId base) override;
  void receive_round(int round, const Inbox& in, ChannelId base) override;
  bool output() const override { return output_bit_; }
  void reinit(Rng rng) override;
  void randomize_state(Rng& rng) override;

  static constexpr int kRounds = 4;

  // Introspection for tests.
  GvssGrade grade_of(NodeId dealer) const { return grades_[dealer]; }
  std::uint64_t my_secret() const { return dealing_.secret(); }

 private:
  void send_deal(Outbox& out, ChannelId ch);
  void send_cross(Outbox& out, ChannelId ch);
  void send_votes(Outbox& out, ChannelId ch);
  void send_shares(Outbox& out, ChannelId ch);
  void recv_deal(const Inbox& in, ChannelId ch);
  void recv_cross(const Inbox& in, ChannelId ch);
  void recv_votes(const Inbox& in, ChannelId ch);
  void recv_shares(const Inbox& in, ChannelId ch);
  // Evaluates the valid dealers' rows, staged in the scratch, at every node
  // point, into row_evals_.
  void eval_rows();

  // row_evals_ accessors: dealer d's row evaluated at 0 / at node_point(j).
  std::uint64_t& eval_at_zero(NodeId d) {
    return row_evals_[std::size_t{d} * (env_.n + 1)];
  }
  std::uint64_t& eval_at_node(NodeId d, NodeId j) {
    return row_evals_[std::size_t{d} * (env_.n + 1) + 1 + j];
  }

  ProtocolEnv env_;
  PrimeField field_;
  Rng rng_;
  GvssDealing dealing_;  // my own secret's dealing
  std::shared_ptr<FmCoinScratch> scratch_;
  std::size_t words_;    // bitword_count(n)

  // Per dealer d: whether my row of d's dealing is valid, and its
  // evaluations at 0 and every node point (n x (n+1) flat table) — the one
  // O(n*f) pass per dealing that rounds 2-4 read from.
  std::vector<std::uint8_t> row_valid_;
  std::vector<std::uint64_t> row_evals_;
  // Per dealer d: number of nodes whose cross value matched my row.
  std::vector<std::uint32_t> cross_matches_;
  // My happy votes, bit-packed (wire format of round 3).
  std::vector<std::uint64_t> happy_words_;
  // Round-3 bitmask received from node j (row j of a flat word matrix;
  // vote_valid_[j] distinguishes "nothing valid" from all-zero votes).
  std::vector<std::uint64_t> voted_words_;
  std::vector<std::uint8_t> vote_valid_;
  // Per dealer d: grade derived from the votes.
  std::vector<GvssGrade> grades_;

  bool output_bit_ = false;
};

// CoinSpec for the self-stabilizing pipeline over FM instances
// (ss-Byz-Coin-Flip with A = this coin; Theorem 1). Uses 4 channels.
CoinSpec fm_coin_spec(FmCoinParams params = {});

}  // namespace ssbft
