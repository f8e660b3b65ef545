// Tests for the crash-safe distributed-sweep persistence layer
// (harness/checkpoint.h): the codec primitives (shard specs, hexfloat
// round trips, CRC-32), the checkpoint format's torn-tail-vs-hard-error
// split, the ssbft-shard-v1 parser's strictness, atomic publication, and
// the headline recovery guarantees — a sweep resumed after truncation or
// a real SIGKILL produces TrialStats and trace commitments bit-identical
// to an uninterrupted run.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/checkpoint.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "support/check.h"

namespace ssbft {
namespace {

namespace fs = std::filesystem;

std::string crc_suffix(const std::string& body) {
  char buf[16];
  std::snprintf(buf, sizeof buf, " crc=%08x", crc32(body));
  return buf;
}

// ------------------------------------------------------------- primitives

TEST(ShardSpecParse, AcceptsStrictIOverK) {
  const auto s = parse_shard_spec("0/1");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 0u);
  EXPECT_EQ(s->count, 1u);
  EXPECT_FALSE(s->active());
  const auto t = parse_shard_spec("2/7");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->index, 2u);
  EXPECT_EQ(t->count, 7u);
  EXPECT_TRUE(t->active());
}

TEST(ShardSpecParse, RejectsEverythingElse) {
  for (const char* bad : {"", "/", "1", "1/", "/2", "2/2", "3/2", "0/0",
                          "-1/2", "1/+2", "a/b", "1/2/3", " 1/2", "1/2 ",
                          "0x1/2", "1.0/2"}) {
    EXPECT_FALSE(parse_shard_spec(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(U64Parse, AcceptsDigitsOnly) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_u64_strict("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64_strict("18446744073709551615", &v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  // Everything strtoull would read loosely — as 0, a prefix, or a wrapped
  // negative — is rejected and leaves the output alone.
  for (const char* bad : {"", "abc", "8k", "-3", " 3", "+3", "3 ", "0x10",
                          "18446744073709551616"}) {
    v = 7;
    EXPECT_FALSE(parse_u64_strict(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u);
  }
}

TEST(HexFloat, RoundTripsBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           3.141592653589793,
                           1.0 / 3.0,
                           123456.789,
                           -2.5e-10,
                           5e-324,                    // min denormal
                           1.7976931348623157e308};   // max finite
  for (const double v : values) {
    double back = 99.0;
    ASSERT_TRUE(hex_to_double(double_to_hex(v), &back)) << double_to_hex(v);
    // Bit-exact, including the sign of zero.
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << double_to_hex(v);
  }
}

TEST(HexFloat, RejectsLooseFormats) {
  double out = 0.0;
  for (const char* bad : {"", " 0x1p0", "+0x1p0", "0x1p0 ", "0x1p0junk",
                          "inf", "-inf", "nan", "abc"}) {
    EXPECT_FALSE(hex_to_double(bad, &out)) << "'" << bad << "'";
  }
  // Plain decimal is acceptable input (strtod parses it); only loose
  // surroundings are rejected.
  EXPECT_TRUE(hex_to_double("1.5", &out));
  EXPECT_EQ(out, 1.5);
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 (IEEE 802.3) check vector.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0x00000000u);
  EXPECT_NE(crc32(std::string("a")), crc32(std::string("b")));
}

// ------------------------------------------------------- checkpoint codec

CheckpointState sample_state() {
  CheckpointState st;
  st.fingerprint = std::string(64, 'a');
  st.shard = ShardSpec{1, 3};
  st.total_units = 40;
  for (std::uint64_t u = 1; u < 40; u += 3) {
    TrialOutcome o;
    o.converged = (u % 2) == 0;
    o.synced_at = u * 7;
    o.msgs_per_beat = 3.25 + static_cast<double>(u) * 0.1;  // inexact bits
    if (u % 6 == 1) o.trace_commitment = std::string(64, 'b');
    st.done[u] = o;
  }
  return st;
}

void expect_same_state(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(a.shard == b.shard);
  EXPECT_EQ(a.total_units, b.total_units);
  ASSERT_EQ(a.done.size(), b.done.size());
  for (const auto& [u, o] : a.done) {
    const auto it = b.done.find(u);
    ASSERT_NE(it, b.done.end()) << "unit " << u;
    EXPECT_EQ(o.converged, it->second.converged) << "unit " << u;
    EXPECT_EQ(o.synced_at, it->second.synced_at) << "unit " << u;
    EXPECT_EQ(o.msgs_per_beat, it->second.msgs_per_beat) << "unit " << u;
    EXPECT_EQ(o.trace_commitment, it->second.trace_commitment) << "unit " << u;
  }
}

TEST(CheckpointCodec, RoundTrips) {
  const CheckpointState st = sample_state();
  const CheckpointLoad l = decode_checkpoint(encode_checkpoint(st));
  ASSERT_TRUE(l.ok) << l.error;
  EXPECT_FALSE(l.torn);
  EXPECT_EQ(l.discarded_records, 0u);
  expect_same_state(st, l.state);
}

// Cut the encoded checkpoint at EVERY byte boundary: inside the header
// the result is a hard error (that is not a checkpoint), from the first
// record on it decodes with torn set iff the cut is mid-record, and the
// surviving records are exactly the complete-line prefix.
TEST(CheckpointCodec, TruncationAtEveryByteDegradesGracefully) {
  const CheckpointState st = sample_state();
  const std::string full = encode_checkpoint(st);
  const std::size_t header_end = full.find('\n') + 1;
  // Units in encode (map) order, to know which prefix each cut keeps.
  std::vector<std::uint64_t> units;
  for (const auto& [u, o] : st.done) units.push_back(u);

  for (std::size_t len = 0; len <= full.size(); ++len) {
    const CheckpointLoad l = decode_checkpoint(full.substr(0, len));
    if (len < header_end) {
      EXPECT_FALSE(l.ok) << "cut at " << len;
      EXPECT_FALSE(l.error.empty()) << "cut at " << len;
      continue;
    }
    ASSERT_TRUE(l.ok) << "cut at " << len << ": " << l.error;
    std::size_t complete = 0;
    for (std::size_t i = header_end; i < len; ++i) {
      if (full[i] == '\n') ++complete;
    }
    const bool has_fragment = len > header_end && full[len - 1] != '\n';
    // A fragment that is an entire record minus its newline still carries a
    // valid CRC, so the decoder rightly keeps it; any shorter cut is torn.
    const bool fragment_is_whole_record =
        has_fragment && len < full.size() && full[len] == '\n';
    if (fragment_is_whole_record) ++complete;
    EXPECT_EQ(l.torn, has_fragment && !fragment_is_whole_record)
        << "cut at " << len;
    ASSERT_EQ(l.state.done.size(), complete) << "cut at " << len;
    for (std::size_t i = 0; i < complete; ++i) {
      EXPECT_TRUE(l.state.done.count(units[i])) << "cut at " << len;
    }
  }
}

TEST(CheckpointCodec, ByteFlipInARecordDiscardsTheTail) {
  const CheckpointState st = sample_state();
  const std::string full = encode_checkpoint(st);
  const std::size_t header_end = full.find('\n') + 1;
  // Flip one byte in the middle of the third record.
  std::size_t seen = 0, target = std::string::npos;
  for (std::size_t i = header_end; i < full.size(); ++i) {
    if (full[i] == '\n') {
      ++seen;
      if (seen == 2) target = i + 4;  // inside record 3
    }
  }
  ASSERT_NE(target, std::string::npos);
  std::string flipped = full;
  flipped[target] = static_cast<char>(flipped[target] ^ 0x20);
  const CheckpointLoad l = decode_checkpoint(flipped);
  ASSERT_TRUE(l.ok) << l.error;
  EXPECT_TRUE(l.torn);
  EXPECT_EQ(l.state.done.size(), 2u);  // the two records before the flip
  EXPECT_EQ(l.discarded_records, st.done.size() - 2);
}

TEST(CheckpointCodec, CrcValidButWrongFactsAreHardErrors) {
  const CheckpointState st = sample_state();
  const std::string header = encode_checkpoint(st).substr(
      0, encode_checkpoint(st).find('\n') + 1);
  const auto record = [](std::uint64_t unit) {
    const std::string body = "u=" + std::to_string(unit) +
                             " c=1 s=9 m=" + double_to_hex(1.5) + " t=-";
    return body + crc_suffix(body) + "\n";
  };
  {
    // Duplicate unit, both records CRC-clean.
    const CheckpointLoad l = decode_checkpoint(header + record(1) + record(1));
    EXPECT_FALSE(l.ok);
    EXPECT_NE(l.error.find("duplicate"), std::string::npos) << l.error;
  }
  {
    // Unit outside the grid.
    const CheckpointLoad l = decode_checkpoint(header + record(40));
    EXPECT_FALSE(l.ok);
    EXPECT_NE(l.error.find("outside the grid"), std::string::npos) << l.error;
  }
  {
    // Unit outside this shard's slice (shard is 1/3).
    const CheckpointLoad l = decode_checkpoint(header + record(3));
    EXPECT_FALSE(l.ok);
    EXPECT_NE(l.error.find("outside shard"), std::string::npos) << l.error;
  }
}

TEST(CheckpointCodec, GarbledHeaderIsAHardError) {
  for (const char* bad :
       {"", "\n", "not a checkpoint\n",
        "ssbft-ckpt-v2 fp=0000 shard=0/1 units=1\n",
        "ssbft-ckpt-v1 fp=zz shard=0/1 units=1\n",
        "ssbft-ckpt-v1 fp=", "ssbft-ckpt-v1\n"}) {
    const CheckpointLoad l = decode_checkpoint(bad);
    EXPECT_FALSE(l.ok) << "'" << bad << "'";
    EXPECT_NE(l.error.find("ssbft-ckpt-v1"), std::string::npos) << l.error;
  }
  // A fully valid header with zero records is a valid (empty) checkpoint.
  const CheckpointLoad l = decode_checkpoint(
      "ssbft-ckpt-v1 fp=" + std::string(64, 'a') + " shard=0/1 units=5\n");
  EXPECT_TRUE(l.ok) << l.error;
  EXPECT_TRUE(l.state.done.empty());
}

TEST(CheckpointCodec, WriteIsAtomicAndLoadsBack) {
  const fs::path dir =
      fs::temp_directory_path() / ("ssbft_ckpt_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "state.ckpt").string();

  const CheckpointState st = sample_state();
  std::string err;
  ASSERT_TRUE(write_checkpoint(path, st, &err)) << err;
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // staged file was renamed away
  const CheckpointLoad l = load_checkpoint(path);
  ASSERT_TRUE(l.ok) << l.error;
  expect_same_state(st, l.state);

  const CheckpointLoad missing = load_checkpoint((dir / "nope.ckpt").string());
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos);
  fs::remove_all(dir);
}

// ------------------------------------------------------ shard file parser

ShardHeader sample_header() {
  ShardHeader h;
  h.pattern = "gallery/*";
  h.shard = ShardSpec{0, 2};
  h.fingerprint = std::string(64, 'c');
  h.total_units = 8;
  h.cli_seed = 7;
  h.cli_trials = 3;
  h.cells.push_back(ShardCellInfo{"cell \"a\"", 3, 100});
  h.cells.push_back(ShardCellInfo{"cell/b", 5, 200});
  return h;
}

std::string sample_shard_text() {
  std::string text = encode_shard_header(sample_header());
  for (std::uint64_t u = 0; u < 8; u += 2) {
    ShardUnitRow row;
    row.unit = u;
    row.cell = u < 3 ? 0u : 1u;
    row.trial = u < 3 ? u : u - 3;
    row.outcome.converged = true;
    row.outcome.synced_at = 10 + u;
    row.outcome.msgs_per_beat = 0.5 + static_cast<double>(u) * 0.3;
    if (u != 4) row.outcome.trace_commitment = std::string(64, 'd');
    text += encode_shard_unit(row);
  }
  return text;
}

TEST(ShardCodec, RoundTripsThroughTheParser) {
  std::istringstream in(sample_shard_text());
  const ShardParse p = parse_shard_file(in);
  ASSERT_TRUE(p.ok) << p.error_line << ": " << p.error;
  EXPECT_TRUE(p.file.header.cells == sample_header().cells);
  EXPECT_EQ(p.file.header.pattern, "gallery/*");
  EXPECT_EQ(p.file.header.cli_seed, 7u);
  EXPECT_EQ(p.file.header.cli_trials, 3u);
  ASSERT_EQ(p.file.units.size(), 4u);
  EXPECT_EQ(p.file.units[0].unit, 0u);
  EXPECT_EQ(p.file.units[3].unit, 6u);
  EXPECT_EQ(p.file.units[3].cell, 1u);
  EXPECT_EQ(p.file.units[3].trial, 3u);
  EXPECT_FALSE(p.file.units[1].outcome.trace_commitment.empty());
  EXPECT_TRUE(p.file.units[2].outcome.trace_commitment.empty());  // u=4
}

TEST(ShardCodec, RejectsBrokenFiles) {
  const std::string good = sample_shard_text();
  const auto expect_reject = [](const std::string& text,
                                const std::string& needle) {
    std::istringstream in(text);
    const ShardParse p = parse_shard_file(in);
    EXPECT_FALSE(p.ok) << "wanted rejection with '" << needle << "'";
    EXPECT_NE(p.error.find(needle), std::string::npos)
        << p.error << " (wanted '" << needle << "')";
  };
  expect_reject("", "missing shard header");
  expect_reject("{\"type\":\"unit\"}\n", "before shard header");
  // Truncate mid-preamble: header line only.
  expect_reject(good.substr(0, good.find('\n') + 1), "truncated preamble");
  // Cut the final line in half (a torn shard file is an error — shard
  // reports are published atomically, so a torn one was copied badly).
  expect_reject(good.substr(0, good.size() - 10), "");
  {
    // A duplicated unit line.
    const std::size_t first_unit = good.find("{\"type\":\"unit\"");
    const std::size_t next = good.find('\n', first_unit) + 1;
    expect_reject(good + good.substr(first_unit, next - first_unit),
                  "duplicate unit");
  }
  {
    // Unit index that disagrees with the (cell, trial) flattening.
    std::string bad = good;
    const std::size_t pos = bad.find("\"unit\":6");
    bad.replace(pos, 8, "\"unit\":7");
    expect_reject(bad, "");
  }
}

// ------------------------------------------------- sweep-level recovery

void expect_identical(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean_msgs_per_beat, b.mean_msgs_per_beat);
}

std::vector<SweepCell> small_grid() {
  const char* names[] = {"gallery/split", "net/lossy"};
  std::vector<SweepCell> cells;
  for (const char* name : names) {
    const ScenarioSpec* spec = find_scenario(name);
    EXPECT_NE(spec, nullptr);
    RunnerConfig rc = scenario_runner_config(*spec);
    rc.trials = 6 - cells.size();  // 6 and 5: unequal cell sizes
    rc.convergence.max_beats = 400;
    cells.push_back(SweepCell{spec->name, build_scenario(*spec), rc});
  }
  return cells;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           (tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

void expect_same_run(const SweepResult& ref, const SweepResult& res) {
  ASSERT_EQ(ref.stats.size(), res.stats.size());
  for (std::size_t c = 0; c < ref.stats.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    expect_identical(ref.stats[c], res.stats[c]);
  }
  ASSERT_EQ(ref.units.size(), res.units.size());
  for (std::size_t j = 0; j < ref.units.size(); ++j) {
    SCOPED_TRACE("unit " + std::to_string(ref.units[j].unit));
    EXPECT_EQ(ref.units[j].unit, res.units[j].unit);
    EXPECT_EQ(ref.units[j].outcome.converged, res.units[j].outcome.converged);
    EXPECT_EQ(ref.units[j].outcome.synced_at, res.units[j].outcome.synced_at);
    EXPECT_EQ(ref.units[j].outcome.msgs_per_beat,
              res.units[j].outcome.msgs_per_beat);
    EXPECT_EQ(ref.units[j].outcome.trace_commitment,
              res.units[j].outcome.trace_commitment);
  }
}

TEST(CheckpointRecovery, TornCheckpointRecomputesTheTailBitIdentically) {
  TempDir dir("ssbft_torn");
  const std::string ckpt = (dir.path / "sweep.ckpt").string();

  // Uninterrupted reference (traced, with commitments).
  SweepOptions ref_opts;
  ref_opts.jobs = 1;
  ref_opts.trace_dir = (dir.path / "traces_ref").string();
  ref_opts.collect_commitments = true;
  const SweepResult ref = run_sweep_ex(small_grid(), ref_opts);

  // A completed checkpointed run, then mutilate the checkpoint: keep the
  // header and the first records, cut the last one mid-line (what a
  // non-atomic filesystem or a bad copy could leave behind).
  SweepOptions run_opts = ref_opts;
  run_opts.trace_dir = (dir.path / "traces_res").string();
  run_opts.checkpoint_path = ckpt;
  run_opts.checkpoint_every = 1;
  run_sweep_ex(small_grid(), run_opts);
  std::string text;
  {
    std::ifstream in(ckpt, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  text.resize(text.size() * 2 / 3);  // mid-record with high probability
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << text;
  }

  SweepOptions resume_opts = run_opts;
  resume_opts.resume = true;
  const SweepResult res = run_sweep_ex(small_grid(), resume_opts);
  EXPECT_GT(res.resumed_units, 0u);
  EXPECT_LT(res.resumed_units, res.units.size());
  expect_same_run(ref, res);
}

TEST(CheckpointRecovery, ResumeRefusesForeignCheckpoints) {
  TempDir dir("ssbft_foreign");
  const std::string ckpt = (dir.path / "sweep.ckpt").string();
  SweepOptions run_opts;
  run_opts.jobs = 1;
  run_opts.checkpoint_path = ckpt;
  run_sweep_ex(small_grid(), run_opts);

  // A different grid (one extra trial) must refuse the checkpoint.
  auto other = small_grid();
  other[0].cfg.trials += 1;
  SweepOptions resume_opts = run_opts;
  resume_opts.resume = true;
  EXPECT_THROW(run_sweep_ex(other, resume_opts), contract_error);

  // Same grid, different shard: also a refusal.
  SweepOptions shard_opts = resume_opts;
  shard_opts.shard = ShardSpec{0, 2};
  EXPECT_THROW(run_sweep_ex(small_grid(), shard_opts), contract_error);

  // Missing checkpoint file: structured refusal, not a silent cold start.
  SweepOptions missing_opts = resume_opts;
  missing_opts.checkpoint_path = (dir.path / "absent.ckpt").string();
  EXPECT_THROW(run_sweep_ex(small_grid(), missing_opts), contract_error);
}

// The headline robustness claim, end to end: fork a child sweeping with
// per-unit checkpoints, SIGKILL it mid-flight (no destructors, no
// flushes — a real crash), then resume in the parent and require stats
// AND per-unit SHA-256 trace commitments bit-identical to a run that was
// never interrupted.
TEST(CheckpointRecovery, SigkillMidSweepThenResumeBitIdentical) {
  TempDir dir("ssbft_kill");
  const std::string ckpt = (dir.path / "sweep.ckpt").string();

  SweepOptions ref_opts;
  ref_opts.jobs = 1;
  ref_opts.trace_dir = (dir.path / "traces_ref").string();
  ref_opts.collect_commitments = true;
  const SweepResult ref = run_sweep_ex(small_grid(), ref_opts);

  SweepOptions child_opts;
  child_opts.jobs = 1;
  child_opts.trace_dir = (dir.path / "traces_res").string();
  child_opts.collect_commitments = true;
  child_opts.checkpoint_path = ckpt;
  child_opts.checkpoint_every = 1;

  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    // Child: plain serial sweep; _exit keeps gtest/atexit machinery out.
    try {
      run_sweep_ex(small_grid(), child_opts);
    } catch (...) {
      _exit(3);
    }
    _exit(0);
  }

  // Parent: wait until at least 3 units are durably checkpointed, then
  // kill -9. write_checkpoint publishes via rename, so every observed
  // file is a complete version — polling it is race-free.
  bool child_exited = false;
  for (int i = 0; i < 30000; ++i) {
    const CheckpointLoad l = load_checkpoint(ckpt);
    if (l.ok && l.state.done.size() >= 3) break;
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      child_exited = true;  // finished before we could kill it: still fine
      EXPECT_EQ(status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!child_exited) {
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
  }

  SweepOptions resume_opts = child_opts;
  resume_opts.resume = true;
  const SweepResult res = run_sweep_ex(small_grid(), resume_opts);
  EXPECT_GE(res.resumed_units, 3u);
  expect_same_run(ref, res);

  // And the recovered checkpoint now covers the whole slice.
  const CheckpointLoad final_ckpt = load_checkpoint(ckpt);
  ASSERT_TRUE(final_ckpt.ok) << final_ckpt.error;
  EXPECT_EQ(final_ckpt.state.done.size(), res.units.size());
}

}  // namespace
}  // namespace ssbft
