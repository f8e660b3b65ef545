// The adversary gallery: Byzantine strategies used across tests and
// benchmarks. All obey the model (Section 2): they see only traffic
// addressed to faulty nodes (plus the current beat's, by rushing), send
// arbitrary per-recipient messages from the faulty identities, and keep
// arbitrary memory.
#pragma once

#include <memory>

#include "coin/oracle_coin.h"
#include "sim/adversary.h"

namespace ssbft {

// Crash-style: the faulty nodes say nothing, forever. The baseline
// "weakest" adversary — protocols must converge without their votes.
std::unique_ptr<Adversary> make_silent_adversary();

// Spray: each faulty node sends `messages_per_beat` random payloads on
// random channels to random nodes. Exercises every decoder's tolerance of
// garbage.
std::unique_ptr<Adversary> make_random_noise_adversary(
    std::uint32_t messages_per_beat = 8, std::uint32_t max_payload = 40);

// Split-world equivocation: every beat, every faulty node sends payload_a
// on `channel` to the lower half of the ids and payload_b to the upper
// half. The classic attack on majority-style rules.
std::unique_ptr<Adversary> make_split_value_adversary(ChannelId channel,
                                                      Bytes payload_a,
                                                      Bytes payload_b);

// Oracle-aware anti-coin rusher: reads the beacon's *current-beat* outcome
// (exactly what the recover round of a real coin reveals to a rushing
// adversary) and sends clock values chosen against it on the 2-clock value
// channel: rand to one half, 1-rand to the other, maximizing disagreement
// among nodes applying the ?->rand substitution.
std::unique_ptr<Adversary> make_anti_coin_adversary(
    std::shared_ptr<OracleBeacon> beacon, ChannelId clock_channel);

// Full-stack attack on ss-Byz-Clock-Sync's channels: equivocating clock
// values on the full-clock channel, conflicting proposals, and split
// support bits, re-randomized every beat.
std::unique_ptr<Adversary> make_clock_skew_adversary(ClockValue k,
                                                     ChannelId full_channel);

// Adaptive quorum splitter: the strongest clock-channel attack the model
// allows. Each beat it reads (by rushing) the correct nodes' clock
// broadcasts addressed to faulty nodes, finds the value u with the largest
// correct support c, and — when n-2f <= c < n-f — completes u's quorum
// *only at the nodes already holding u*, feeding everyone else noise. The
// u-holders step to u+1 while the rest fall to their fallback rule,
// sustaining the partition. Quorum-priority protocols admit this split as
// a fixed point when the magic support window ever arises; the paper's
// coin-based algorithms do not (the common gamble re-merges the groups).
std::unique_ptr<Adversary> make_adaptive_quorum_splitter(ClockValue k,
                                                         ChannelId clock_channel);

// FM-coin attacker: participates in the GVSS just enough to be graded,
// then splits the correct nodes — happy-vote equivocation (grade 2 vs 1)
// and recover-share equivocation (real shares to one half, garbage to the
// other), probing the recovery-divergence gap documented in fm_coin.h.
// `coin_base` is the pipeline's first channel.
std::unique_ptr<Adversary> make_fm_coin_attacker(ChannelId coin_base);

}  // namespace ssbft
