#include "coin/fm_coin.h"

#include <algorithm>

#include "coin/coin_pipeline.h"
#include "support/bitwords.h"
#include "support/check.h"

namespace ssbft {

namespace {

// Sentinel carried in cross/share vectors for "no value": the modulus
// itself, which can never be a canonical element.
constexpr std::uint64_t kSentinel = PrimeField::kPrime;

}  // namespace

void FmCoinScratch::ensure(std::uint32_t n_nodes, std::uint32_t faults) {
  if (n == n_nodes && f == faults) return;
  n = n_nodes;
  f = faults;
  tables = coin_tables(n, f);
  vals.assign(n, 0);
  shares.assign(std::size_t{n} * n, 0);
  shares_ok.assign(n, 0);
  votes.assign(n, 0);
  secrets.assign(n, std::nullopt);
  recover.ensure(n, f);
}

FmCoinInstance::FmCoinInstance(const ProtocolEnv& env,
                               const FmCoinParams&, Rng rng,
                               std::shared_ptr<FmCoinScratch> scratch)
    : env_(env),
      rng_(rng),
      dealing_(GvssDealing::sample(field_, env.f, rng_)),
      scratch_(scratch != nullptr ? std::move(scratch)
                                  : std::make_shared<FmCoinScratch>()),
      words_(bitword_count(env.n)),
      row_valid_(env.n, 0),
      row_evals_(std::size_t{env.n} * (env.n + 1), 0),
      cross_matches_(env.n, 0),
      happy_words_(words_, 0),
      voted_words_(std::size_t{env.n} * words_, 0),
      vote_valid_(env.n, 0),
      grades_(env.n, GvssGrade::kNone) {
  scratch_->ensure(env_.n, env_.f);
}

void FmCoinInstance::reinit(Rng rng) {
  // Mirrors construction (same rng draw order as the ctor's dealing
  // sample), but every buffer is reused in place.
  rng_ = rng;
  dealing_.resample(field_, env_.f, rng_);
  std::fill(row_valid_.begin(), row_valid_.end(), 0);
  std::fill(cross_matches_.begin(), cross_matches_.end(), 0);
  std::fill(happy_words_.begin(), happy_words_.end(), 0);
  std::fill(vote_valid_.begin(), vote_valid_.end(), 0);
  std::fill(grades_.begin(), grades_.end(), GvssGrade::kNone);
  output_bit_ = false;
}

void FmCoinInstance::send_round(int round, Outbox& out, ChannelId base) {
  const auto ch = static_cast<ChannelId>(base);
  switch (round) {
    case 1: send_deal(out, ch); break;
    case 2: send_cross(out, ch); break;
    case 3: send_votes(out, ch); break;
    case 4: send_shares(out, ch); break;
    default: SSBFT_CHECK_MSG(false, "bad round " << round);
  }
}

void FmCoinInstance::receive_round(int round, const Inbox& in,
                                   ChannelId base) {
  const auto ch = static_cast<ChannelId>(base);
  switch (round) {
    case 1: recv_deal(in, ch); break;
    case 2: recv_cross(in, ch); break;
    case 3: recv_votes(in, ch); break;
    case 4: recv_shares(in, ch); break;
    default: SSBFT_CHECK_MSG(false, "bad round " << round);
  }
}

// Round 1 — share phase: as dealer, send node j its row F(x_j, y). A
// correct dealer's row is all-present; the masked codec still pays off via
// the packed value width and the dropped length prefix.
void FmCoinInstance::send_deal(Outbox& out, ChannelId ch) {
  const std::size_t width = std::size_t{env_.f} + 1;
  std::uint64_t* rows = scratch_->shares.data();
  dealing_.bivariate().rows_into(field_, scratch_->tables->powers.data(),
                                 env_.n, rows);
  for (NodeId j = 0; j < env_.n; ++j) {
    ByteWriter& w = out.writer();
    w.masked_u64_vec(rows + j * width, width, kSentinel);
    out.send(j, ch, w.data());
  }
}

void FmCoinInstance::recv_deal(const Inbox& in, ChannelId ch) {
  const auto payloads = in.first_per_sender(ch);
  const std::size_t width = std::size_t{env_.f} + 1;
  for (NodeId d = 0; d < env_.n; ++d) {
    row_valid_[d] = 0;
    if (payloads[d] == nullptr) continue;
    std::uint64_t* row = scratch_->shares.data() + d * width;
    ByteReader r(*payloads[d]);
    // Masked-out coefficients decode to the sentinel, which
    // validate_row_raw rejects as non-canonical — a Byzantine dealer gains
    // nothing by masking.
    if (!r.masked_u64_vec_into(row, width, kSentinel) || !r.at_end()) {
      continue;
    }
    if (!validate_row_raw(field_, env_.f, row, width)) continue;
    row_valid_[d] = 1;
  }
  eval_rows();
}

void FmCoinInstance::eval_rows() {
  // The one evaluation pass per dealing: rounds 2-4 read these values
  // instead of re-walking the row polynomials. One product covers the span
  // of valid dealers (steady state: the correct ones, which carry the
  // lowest ids). An invalid row inside the span holds stale or rejected
  // values, all below 2^61 as the kernel requires; its evaluations are
  // never read.
  const std::size_t width = std::size_t{env_.f} + 1;
  std::size_t lo = env_.n, hi = 0;
  for (NodeId d = 0; d < env_.n; ++d) {
    if (!row_valid_[d]) continue;
    lo = std::min<std::size_t>(lo, d);
    hi = d + 1;
    eval_at_zero(d) = scratch_->shares[d * width];
  }
  if (lo >= hi) return;
  field_.matmul(hi - lo, width, env_.n, scratch_->shares.data() + lo * width,
                width, scratch_->tables->vander.data(), env_.n,
                &eval_at_node(static_cast<NodeId>(lo), 0), env_.n + 1);
}

// Round 2 — cross-check: send node j, for every dealer d, my row's value
// at j's point; j compares against its own row's value at my point
// (symmetry: F_d(x_me, x_j) = F_d(x_j, x_me)).
void FmCoinInstance::send_cross(Outbox& out, ChannelId ch) {
  for (NodeId j = 0; j < env_.n; ++j) {
    for (NodeId d = 0; d < env_.n; ++d) {
      scratch_->vals[d] = row_valid_[d] ? eval_at_node(d, j) : kSentinel;
    }
    ByteWriter& w = out.writer();
    w.masked_u64_vec(scratch_->vals.data(), env_.n, kSentinel);
    out.send(j, ch, w.data());
  }
}

void FmCoinInstance::recv_cross(const Inbox& in, ChannelId ch) {
  const auto payloads = in.first_per_sender(ch);
  std::fill(cross_matches_.begin(), cross_matches_.end(), 0);
  for (NodeId j = 0; j < env_.n; ++j) {
    if (payloads[j] == nullptr) continue;
    ByteReader r(*payloads[j]);
    if (!r.masked_u64_vec_into(scratch_->vals.data(), env_.n, kSentinel) ||
        !r.at_end()) {
      continue;
    }
    for (NodeId d = 0; d < env_.n; ++d) {
      if (!row_valid_[d] || !field_.valid(scratch_->vals[d])) continue;
      if (eval_at_node(d, j) == scratch_->vals[d]) ++cross_matches_[d];
    }
  }
  for (NodeId d = 0; d < env_.n; ++d) {
    bitword_set(happy_words_.data(), d,
                gvss_happy(env_.n, env_.f, row_valid_[d] != 0,
                           cross_matches_[d]));
  }
}

// Round 3 — decide phase: broadcast my happy votes as a raw ceil(n/8)-byte
// bitmask (bits >= n stay clear; bitword storage keeps them so).
void FmCoinInstance::send_votes(Outbox& out, ChannelId ch) {
  ByteWriter& w = out.writer();
  w.bits(happy_words_.data(), env_.n);
  out.broadcast(ch, w.data());
}

void FmCoinInstance::recv_votes(const Inbox& in, ChannelId ch) {
  const auto payloads = in.first_per_sender(ch);
  std::fill(scratch_->votes.begin(), scratch_->votes.end(), 0);
  for (NodeId j = 0; j < env_.n; ++j) {
    vote_valid_[j] = 0;
    if (payloads[j] == nullptr) continue;
    ByteReader r(*payloads[j]);
    std::uint64_t* row = voted_words_.data() + std::size_t{j} * words_;
    if (!r.bits_into(row, env_.n) || !r.at_end()) continue;
    vote_valid_[j] = 1;
    for (NodeId d = 0; d < env_.n; ++d) {
      if (bitword_get(row, d)) ++scratch_->votes[d];
    }
  }
  for (NodeId d = 0; d < env_.n; ++d) {
    grades_[d] = gvss_grade(env_.n, env_.f, scratch_->votes[d]);
  }
}

// Round 4 — recover phase: broadcast my share g_d(x_me) = F_d(x_me, 0) of
// every dealing I hold a row for. This is the single round before which
// the adversary cannot predict the coin (Observation 2.1).
void FmCoinInstance::send_shares(Outbox& out, ChannelId ch) {
  for (NodeId d = 0; d < env_.n; ++d) {
    scratch_->vals[d] = row_valid_[d] ? eval_at_zero(d) : kSentinel;
  }
  ByteWriter& w = out.writer();
  w.masked_u64_vec(scratch_->vals.data(), env_.n, kSentinel);
  out.broadcast(ch, w.data());
}

void FmCoinInstance::recv_shares(const Inbox& in, ChannelId ch) {
  const auto payloads = in.first_per_sender(ch);
  // Decode every sender's share vector once, into the shared flat matrix.
  // Only shares from nodes that *voted happy* on a dealing count for it: a
  // correct happy voter's row is consistent with the unique dealt
  // polynomial, so lies among these points come only from Byzantine
  // senders (<= f), within the Berlekamp-Welch budget.
  for (NodeId j = 0; j < env_.n; ++j) {
    scratch_->shares_ok[j] = 0;
    if (payloads[j] == nullptr || !vote_valid_[j]) continue;
    ByteReader r(*payloads[j]);
    if (!r.masked_u64_vec_into(
            scratch_->shares.data() + std::size_t{j} * env_.n, env_.n,
            kSentinel) ||
        !r.at_end()) {
      continue;
    }
    scratch_->shares_ok[j] = 1;
  }
  gvss_recover_all(field_, env_.n, env_.f, scratch_->shares.data(),
                   scratch_->shares_ok.data(), voted_words_.data(), words_,
                   grades_.data(), &scratch_->tables->recover,
                   scratch_->recover, scratch_->secrets.data());
  // Unrecoverable dealings (necessarily from a faulty dealer) contribute
  // the canonical value 0, identically at every node that fails.
  std::uint64_t sum = 0;
  for (NodeId d = 0; d < env_.n; ++d) {
    if (grades_[d] == GvssGrade::kNone) continue;
    sum = field_.add(sum, scratch_->secrets[d].value_or(0));
  }
  output_bit_ = (sum & 1) != 0;
}

void FmCoinInstance::randomize_state(Rng& rng) {
  // Arbitrary memory corruption: every mutable field gets garbage that is
  // type-valid but semantically arbitrary. (Draw order is load-bearing for
  // replay determinism: dealing, then per dealer row/counters/votes, then
  // the output bit.)
  dealing_.resample(field_, env_.f, rng);
  const std::size_t width = std::size_t{env_.f} + 1;
  for (NodeId d = 0; d < env_.n; ++d) {
    if (rng.next_bool()) {
      // A random-but-consistent degree-f row, like a fresh Poly::random;
      // eval_rows() below evaluates all of them (it draws nothing).
      std::uint64_t* row = scratch_->shares.data() + d * width;
      for (std::size_t i = 0; i < width; ++i) row[i] = field_.uniform(rng);
      row_valid_[d] = 1;
    } else {
      row_valid_[d] = 0;
    }
    cross_matches_[d] = static_cast<std::uint32_t>(rng.next_below(env_.n + 1));
    bitword_set(happy_words_.data(), d, rng.next_bool());
    grades_[d] = static_cast<GvssGrade>(rng.next_below(3));
    std::uint64_t* row = voted_words_.data() + std::size_t{d} * words_;
    bitword_clear(row, env_.n);
    for (NodeId j = 0; j < env_.n; ++j) bitword_set(row, j, rng.next_bool());
    vote_valid_[d] = 1;
  }
  eval_rows();
  output_bit_ = rng.next_bool();
}

CoinSpec fm_coin_spec(FmCoinParams params) {
  CoinSpec spec;
  spec.channels = FmCoinInstance::kRounds;
  spec.make = [params](const ProtocolEnv& env, ChannelId base, Rng rng) {
    // One scratch per pipeline: its staggered instances never execute the
    // same round in the same beat, so round-transient state is shareable.
    auto scratch = std::make_shared<FmCoinScratch>();
    CoinInstanceFactory factory = [env, params,
                                   scratch](Rng inst_rng) mutable {
      return std::make_unique<FmCoinInstance>(env, params, inst_rng, scratch);
    };
    return std::make_unique<SsByzCoinFlip>(std::move(factory),
                                           FmCoinInstance::kRounds, base, rng);
  };
  return spec;
}

}  // namespace ssbft
