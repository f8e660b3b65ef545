// Crash-safe distributed sweeps: the persistence layer behind
// `ssbft_bench run --shard i/k`, `ssbft_bench merge` and
// `--checkpoint/--resume` (harness/sweep.h drives it).
//
// Two on-disk formats, both designed to be read back from hostile bytes
// (a kill -9 can truncate anything; a fleet merge must never silently
// corrupt statistics):
//
// ## Checkpoint (ssbft-ckpt-v1, line-oriented text)
//
//   ssbft-ckpt-v1 fp=<64hex> shard=<i>/<k> units=<total>
//   u=<unit> c=<0|1> s=<synced_at> m=<hexfloat> t=<64hex|-> crc=<8hex>
//   ...
//
// One record per completed (cell, trial) unit, CRC-32 over the record
// body so a torn tail (partial last line, garbage suffix) is detected and
// *discarded* — the sweep recomputes those units — while a record that
// passes its CRC but violates the grid's invariants (duplicate unit, unit
// outside the shard's slice) is a hard error: that is a wrong file, not a
// crash artifact. `fp` is the grid fingerprint (sweep_fingerprint), so a
// checkpoint can never be replayed against a different grid. msgs/beat
// round-trips through C99 hexfloat ("%a"), so resumed TrialStats are
// bit-identical to uninterrupted ones, doubles included. Writes go
// tmp-then-rename (write_checkpoint), so the published file is always a
// complete version — the torn-tail path is defense in depth for
// non-atomic filesystems and hand-copied files.
//
// ## Shard report (ssbft-shard-v1, flat JSONL)
//
//   {"type":"shard","schema":"ssbft-shard-v1","pattern":…,"shard":i,
//    "shards":k,"fingerprint":…,"total_units":N,"cells":C,
//    "seed":S,"trials":T}
//   {"type":"cell","index":0,"name":…,"trials":…,"base_seed":…}
//   {"type":"unit","unit":u,"cell":c,"trial":t,"converged":0|1,
//    "synced_at":…,"msgs":"<hexfloat>"[,"commitment":"<64hex>"]}
//
// The interchange a fleet's shards ship home. merge_shard_files is
// strict: schema/fingerprint/grid mismatches, overlapping units, missing
// units and truncated rows are structured errors — a merged TrialStats
// either equals the unsharded run bit for bit or the merge refuses.
// Decoding rides the same strict flat-JSON scanner as the trace checker
// (harness/jsonl.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ssbft {

// What one (cell, trial) unit contributes to its cell's TrialStats —
// captured per unit so workers never contend, checkpoints persist exactly
// this, and shard merges refold it in trial order.
struct TrialOutcome {
  bool converged = false;
  std::uint64_t synced_at = 0;
  double msgs_per_beat = 0.0;
  // SHA-256 trace commitment of the unit's execution trace (64 hex
  // chars) when the sweep collected commitments; empty otherwise.
  std::string trace_commitment;
  // Invariant violations found by the streaming checker when the sweep
  // ran with live checking (SweepOptions::live_check); 0 otherwise.
  // Persisted in checkpoints (optional `v=` field) and shard reports
  // (optional "violations" key) only when nonzero, so files from
  // non-checked sweeps are byte-identical to the PR 8 formats.
  std::uint64_t check_violations = 0;
};

// --shard i/k: run only units u with u % count == index.
struct ShardSpec {
  std::uint64_t index = 0;
  std::uint64_t count = 1;
  bool active() const { return count > 1; }
  bool operator==(const ShardSpec& o) const {
    return index == o.index && count == o.count;
  }
};

// Strict digits-only uint64 (no sign, no whitespace, overflow-checked):
// the loose strtoull contract would let " -3" wrap to ~2^64 and "8k" or
// "abc" pass as 8 or 0. Shared by every decoder and command-line flag that
// takes a count.
bool parse_u64_strict(const std::string& s, std::uint64_t* out);

// "i/k" -> spec (k >= 1, i < k); nullopt on anything else.
std::optional<ShardSpec> parse_shard_spec(const std::string& s);

// Exact double <-> text round trip via C99 hexfloat ("%a" / strtod):
// decimal formatting would break the bit-identical-recovery guarantee.
// hex_to_double rejects non-finite values and loose formats (leading
// whitespace, '+', trailing bytes).
std::string double_to_hex(double v);
bool hex_to_double(const std::string& s, double* out);

// CRC-32 (IEEE 802.3, reflected) — the checkpoint's per-record integrity
// check.
std::uint32_t crc32(const void* data, std::size_t len);
std::uint32_t crc32(const std::string& s);

// ---------------------------------------------------------------------------
// Checkpoint file (ssbft-ckpt-v1).

struct CheckpointState {
  std::string fingerprint;        // sweep_fingerprint of the grid
  ShardSpec shard;                // slice this checkpoint belongs to
  std::uint64_t total_units = 0;  // whole grid, all shards
  // Completed units by global unit index (keys within the shard's slice).
  std::map<std::uint64_t, TrialOutcome> done;
};

std::string encode_checkpoint(const CheckpointState& state);

struct CheckpointLoad {
  bool ok = false;
  std::string error;  // set iff !ok (unreadable/garbled header, wrong file)
  // A torn/corrupt record tail was discarded; `state.done` holds the
  // valid prefix and the discarded units will simply be recomputed.
  bool torn = false;
  std::uint64_t discarded_records = 0;
  CheckpointState state;
};

CheckpointLoad decode_checkpoint(const std::string& text);
// Reads and decodes `path`; !ok with a structured error when the file
// cannot be opened.
CheckpointLoad load_checkpoint(const std::string& path);

// Atomic publish: write "<path>.tmp", flush, rename onto `path`. Returns
// false and sets *error on I/O failure (never throws).
bool write_checkpoint(const std::string& path, const CheckpointState& state,
                      std::string* error);

// ---------------------------------------------------------------------------
// Shard report interchange (ssbft-shard-v1 JSONL).

struct ShardCellInfo {
  std::string name;
  std::uint64_t trials = 0;
  std::uint64_t base_seed = 0;
  bool operator==(const ShardCellInfo& o) const {
    return name == o.name && trials == o.trials && base_seed == o.base_seed;
  }
};

struct ShardHeader {
  std::string pattern;      // the glob the sweep ran
  ShardSpec shard;
  std::string fingerprint;  // sweep_fingerprint of the grid
  std::uint64_t total_units = 0;
  // CLI-level overrides, carried so a merged report stamps the same
  // RunMeta the originating run would have.
  std::uint64_t cli_seed = 0;
  std::uint64_t cli_trials = 0;
  std::vector<ShardCellInfo> cells;  // grid cells, in sweep order
};

struct ShardUnitRow {
  std::uint64_t unit = 0;  // global unit index
  std::uint32_t cell = 0;  // index into ShardHeader::cells
  std::uint64_t trial = 0;
  TrialOutcome outcome;    // trace_commitment empty = untraced run
};

// Header + per-cell lines (the file's preamble), then one line per unit.
std::string encode_shard_header(const ShardHeader& header);
std::string encode_shard_unit(const ShardUnitRow& row);

struct ShardFile {
  ShardHeader header;
  std::vector<ShardUnitRow> units;
};

struct ShardParse {
  bool ok = false;
  std::string error;           // set iff !ok
  std::size_t error_line = 0;  // 1-based line of the first error
  ShardFile file;
};

// Strict decode of one ssbft-shard-v1 stream. Every unit row is validated
// against the header's grid (cell/trial ranges, canonical unit index,
// shard membership, duplicate units); truncation mid-preamble is an
// error. Never throws on bad input.
ShardParse parse_shard_file(std::istream& in);

struct ShardMerge {
  bool ok = false;
  std::string error;   // set iff !ok
  ShardHeader header;  // the (validated-equal) grid description
  // Outcomes per cell in trial order — feed straight into merge_outcomes
  // for TrialStats bit-identical to the unsharded run.
  std::vector<std::vector<TrialOutcome>> per_cell;
  // All units carried trace commitments (all-or-none is enforced).
  bool have_commitments = false;
  std::vector<std::string> commitments;  // per unit, global unit order
};

// Folds complete shard files back into one grid. Errors (never silent
// corruption): no inputs, header/grid/fingerprint mismatches, unit
// overlap across files, units outside their file's shard slice, missing
// units, mixed commitment coverage.
ShardMerge merge_shard_files(std::vector<ShardFile> files);

}  // namespace ssbft
