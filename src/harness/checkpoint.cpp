#include "harness/checkpoint.h"

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <set>
#include <sstream>

#include "harness/jsonl.h"
#include "harness/report.h"

namespace ssbft {

bool parse_u64_strict(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

namespace {

bool is_hex_lower(const std::string& s, std::size_t len) {
  if (s.size() != len) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

std::string hex8(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

// "prefix=value" -> value, or nullopt when the prefix does not match.
std::optional<std::string> strip_prefix(const std::string& s,
                                        const char* prefix) {
  const std::size_t n = std::string(prefix).size();
  if (s.compare(0, n, prefix) != 0) return std::nullopt;
  return s.substr(n);
}

constexpr char kCkptMagic[] = "ssbft-ckpt-v1";
constexpr char kShardSchema[] = "ssbft-shard-v1";

// One checkpoint record's body (everything before " crc="). The trailing
// v= field (streaming-checker violation count) is emitted only when
// nonzero, so checkpoints from non-live-checked sweeps stay byte-for-byte
// in the original five-field ssbft-ckpt-v1 shape.
std::string record_body(std::uint64_t unit, const TrialOutcome& o) {
  std::string body = "u=" + std::to_string(unit);
  body += o.converged ? " c=1" : " c=0";
  body += " s=" + std::to_string(o.synced_at);
  body += " m=" + double_to_hex(o.msgs_per_beat);
  body += " t=";
  body += o.trace_commitment.empty() ? "-" : o.trace_commitment;
  if (o.check_violations != 0) {
    body += " v=" + std::to_string(o.check_violations);
  }
  return body;
}

}  // namespace

std::optional<ShardSpec> parse_shard_spec(const std::string& s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos) return std::nullopt;
  ShardSpec spec;
  if (!parse_u64_strict(s.substr(0, slash), &spec.index)) return std::nullopt;
  if (!parse_u64_strict(s.substr(slash + 1), &spec.count)) return std::nullopt;
  if (spec.count == 0 || spec.index >= spec.count) return std::nullopt;
  return spec;
}

std::string double_to_hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool hex_to_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  // strtod skips leading whitespace and accepts '+'; the writer emits
  // neither, so reject both outright.
  const char first = s[0];
  if (!(first == '-' || (first >= '0' && first <= '9'))) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::uint32_t crc32(const void* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::string& s) { return crc32(s.data(), s.size()); }

// ---------------------------------------------------------------------------
// Checkpoint codec.

std::string encode_checkpoint(const CheckpointState& state) {
  std::string out = std::string(kCkptMagic) + " fp=" + state.fingerprint +
                    " shard=" + std::to_string(state.shard.index) + "/" +
                    std::to_string(state.shard.count) +
                    " units=" + std::to_string(state.total_units) + "\n";
  for (const auto& [unit, outcome] : state.done) {
    const std::string body = record_body(unit, outcome);
    out += body + " crc=" + hex8(crc32(body)) + "\n";
  }
  return out;
}

CheckpointLoad decode_checkpoint(const std::string& text) {
  CheckpointLoad res;
  std::istringstream in(text);
  std::string line;

  // Header: "ssbft-ckpt-v1 fp=<64hex> shard=<i>/<k> units=<N>". A file
  // whose header does not decode is not a (version of a) checkpoint at
  // all — wrong file, wrong tool — so that is a hard error, unlike the
  // record tail, where damage means "a crash got here" and the safe
  // answer is to recompute.
  auto bad_header = [&](const std::string& why) {
    res.error = "not an ssbft-ckpt-v1 checkpoint: " + why;
    return res;
  };
  if (!std::getline(in, line)) return bad_header("empty file");
  // The header has no CRC, and a numeric tail is prefix-closed — a header
  // cut mid-digit would otherwise parse as a smaller grid. Requiring the
  // newline makes every header truncation detectable.
  if (text.find('\n') == std::string::npos) {
    return bad_header("truncated header line");
  }
  {
    const std::vector<std::string> tok = split(line, ' ');
    if (tok.size() != 4 || tok[0] != kCkptMagic) {
      return bad_header("bad header line");
    }
    const auto fp = strip_prefix(tok[1], "fp=");
    if (!fp || !is_hex_lower(*fp, 64)) return bad_header("bad fingerprint");
    const auto shard = strip_prefix(tok[2], "shard=");
    std::optional<ShardSpec> spec;
    if (shard) spec = parse_shard_spec(*shard);
    if (!spec) return bad_header("bad shard spec");
    const auto units = strip_prefix(tok[3], "units=");
    if (!units || !parse_u64_strict(*units, &res.state.total_units)) {
      return bad_header("bad unit count");
    }
    res.state.fingerprint = *fp;
    res.state.shard = *spec;
  }

  // Records. The first undecodable or CRC-failing line marks a torn tail:
  // everything from it on is discarded (and later recomputed). A record
  // whose CRC passes but whose content breaks the grid's invariants is a
  // hard error instead — intact bytes carrying wrong facts mean this is
  // the wrong file, and resuming from it would corrupt results silently.
  std::size_t lineno = 1;
  bool counting_torn = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (counting_torn) {
      ++res.discarded_records;
      continue;
    }
    const auto torn = [&] {
      res.torn = true;
      res.discarded_records = 1;
      counting_torn = true;
    };

    // " crc=XXXXXXXX" suffix, CRC over the body before it.
    constexpr std::size_t kCrcLen = 13;
    if (line.size() < kCrcLen ||
        line.compare(line.size() - kCrcLen, 5, " crc=") != 0) {
      torn();
      continue;
    }
    const std::string body = line.substr(0, line.size() - kCrcLen);
    const std::string crc_text = line.substr(line.size() - 8);
    if (!is_hex_lower(crc_text, 8) || hex8(crc32(body)) != crc_text) {
      torn();
      continue;
    }

    auto bad_record = [&](const std::string& why) {
      res.error = "record at line " + std::to_string(lineno) + ": " + why;
      res.ok = false;
      return true;
    };
    const std::vector<std::string> tok = split(body, ' ');
    std::uint64_t unit = 0;
    TrialOutcome outcome;
    bool hard_error = false;
    do {
      if (tok.size() != 5 && tok.size() != 6) {
        hard_error = bad_record("wrong field count");
        break;
      }
      const auto u = strip_prefix(tok[0], "u=");
      const auto c = strip_prefix(tok[1], "c=");
      const auto s = strip_prefix(tok[2], "s=");
      const auto m = strip_prefix(tok[3], "m=");
      const auto t = strip_prefix(tok[4], "t=");
      if (!u || !c || !s || !m || !t) {
        hard_error = bad_record("bad field tags");
        break;
      }
      if (tok.size() == 6) {
        // Optional live-check violation count; the writer never emits
        // v=0, so zero is a wrong file, not a crash artifact.
        const auto vcount = strip_prefix(tok[5], "v=");
        if (!vcount || !parse_u64_strict(*vcount, &outcome.check_violations) ||
            outcome.check_violations == 0) {
          hard_error = bad_record("bad violation count");
          break;
        }
      }
      if (!parse_u64_strict(*u, &unit)) {
        hard_error = bad_record("bad unit index");
        break;
      }
      if (*c != "0" && *c != "1") {
        hard_error = bad_record("bad converged flag");
        break;
      }
      outcome.converged = *c == "1";
      if (!parse_u64_strict(*s, &outcome.synced_at)) {
        hard_error = bad_record("bad synced_at");
        break;
      }
      if (!hex_to_double(*m, &outcome.msgs_per_beat)) {
        hard_error = bad_record("bad msgs/beat");
        break;
      }
      if (*t != "-") {
        if (!is_hex_lower(*t, 64)) {
          hard_error = bad_record("bad trace commitment");
          break;
        }
        outcome.trace_commitment = *t;
      }
      if (unit >= res.state.total_units) {
        hard_error = bad_record("unit " + std::to_string(unit) +
                                " outside the grid's " +
                                std::to_string(res.state.total_units) +
                                " units");
        break;
      }
      if (unit % res.state.shard.count != res.state.shard.index) {
        hard_error = bad_record("unit " + std::to_string(unit) +
                                " outside shard " +
                                std::to_string(res.state.shard.index) + "/" +
                                std::to_string(res.state.shard.count));
        break;
      }
      if (!res.state.done.emplace(unit, std::move(outcome)).second) {
        hard_error = bad_record("duplicate unit " + std::to_string(unit));
        break;
      }
    } while (false);
    if (hard_error) return res;
  }

  res.ok = true;
  return res;
}

CheckpointLoad load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    CheckpointLoad res;
    res.error = "cannot open checkpoint file '" + path + "'";
    return res;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return decode_checkpoint(buf.str());
}

bool write_checkpoint(const std::string& path, const CheckpointState& state,
                      std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error) *error = "cannot open '" + tmp + "' for writing";
      return false;
    }
    out << encode_checkpoint(state);
    out.flush();
    if (!out) {
      if (error) *error = "write to '" + tmp + "' failed";
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error) {
      *error = "rename '" + tmp + "' -> '" + path + "': " + ec.message();
    }
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shard report codec.

std::string encode_shard_header(const ShardHeader& h) {
  std::string out = "{\"type\":\"shard\",\"schema\":\"";
  out += kShardSchema;
  out += "\",\"pattern\":\"" + json_escape(h.pattern) + "\"";
  out += ",\"shard\":" + std::to_string(h.shard.index);
  out += ",\"shards\":" + std::to_string(h.shard.count);
  out += ",\"fingerprint\":\"" + h.fingerprint + "\"";
  out += ",\"total_units\":" + std::to_string(h.total_units);
  out += ",\"cells\":" + std::to_string(h.cells.size());
  out += ",\"seed\":" + std::to_string(h.cli_seed);
  out += ",\"trials\":" + std::to_string(h.cli_trials);
  out += "}\n";
  for (std::size_t i = 0; i < h.cells.size(); ++i) {
    const ShardCellInfo& c = h.cells[i];
    out += "{\"type\":\"cell\",\"index\":" + std::to_string(i);
    out += ",\"name\":\"" + json_escape(c.name) + "\"";
    out += ",\"trials\":" + std::to_string(c.trials);
    out += ",\"base_seed\":" + std::to_string(c.base_seed);
    out += "}\n";
  }
  return out;
}

std::string encode_shard_unit(const ShardUnitRow& row) {
  std::string out = "{\"type\":\"unit\",\"unit\":" + std::to_string(row.unit);
  out += ",\"cell\":" + std::to_string(row.cell);
  out += ",\"trial\":" + std::to_string(row.trial);
  out += ",\"converged\":";
  out += row.outcome.converged ? "1" : "0";
  out += ",\"synced_at\":" + std::to_string(row.outcome.synced_at);
  out += ",\"msgs\":\"" + double_to_hex(row.outcome.msgs_per_beat) + "\"";
  if (!row.outcome.trace_commitment.empty()) {
    out += ",\"commitment\":\"" + row.outcome.trace_commitment + "\"";
  }
  if (row.outcome.check_violations != 0) {
    out += ",\"violations\":" + std::to_string(row.outcome.check_violations);
  }
  out += "}\n";
  return out;
}

namespace {

// Requires the line's integer keys to be exactly `ints` plus any of
// `opt_ints`, and its string keys to be exactly `strs` plus any of
// `opt_strs`; arrays are never legal in shard files.
bool exact_shard_shape(const jsonl::LineValues& v,
                       std::initializer_list<const char*> ints,
                       std::initializer_list<const char*> strs,
                       std::initializer_list<const char*> opt_strs,
                       std::initializer_list<const char*> opt_ints,
                       std::string& err) {
  for (const auto& [k, val] : v.ints) {
    bool known = false;
    for (const char* want : ints) {
      if (k == want) {
        known = true;
        break;
      }
    }
    for (const char* want : opt_ints) {
      if (k == want) {
        known = true;
        break;
      }
    }
    if (!known) {
      err = "unknown key '" + k + "'";
      return false;
    }
  }
  for (const char* want : ints) {
    if (jsonl::find_int(v, want) == nullptr) {
      err = std::string("missing key '") + want + "'";
      return false;
    }
  }
  for (const auto& [k, val] : v.strs) {
    bool known = false;
    for (const char* want : strs) {
      if (k == want) {
        known = true;
        break;
      }
    }
    for (const char* want : opt_strs) {
      if (k == want) {
        known = true;
        break;
      }
    }
    if (!known) {
      err = "unknown key '" + k + "'";
      return false;
    }
  }
  for (const char* want : strs) {
    if (jsonl::find_str(v, want) == nullptr) {
      err = std::string("missing key '") + want + "'";
      return false;
    }
  }
  if (!v.arrs.empty()) {
    err = "unknown key '" + v.arrs.front().first + "'";
    return false;
  }
  return true;
}

}  // namespace

ShardParse parse_shard_file(std::istream& in) {
  ShardParse res;
  std::string line;
  std::size_t lineno = 0;
  bool have_header = false;
  std::uint64_t want_cells = 0;
  // Prefix sums over cell trial counts: unit u of cell c, trial t must
  // satisfy u == prefix[c] + t — the canonical flattening the sweep uses.
  std::vector<std::uint64_t> prefix;
  std::uint64_t running = 0;
  std::set<std::uint64_t> seen_units;

  auto fail = [&](std::string msg) {
    res.ok = false;
    res.error = std::move(msg);
    res.error_line = lineno;
    return res;
  };

  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) return fail("empty line");
    jsonl::LineValues v;
    std::string err;
    if (!jsonl::parse_line(line, v, err)) return fail(err);

    const std::string* type = jsonl::find_str(v, "type");
    if (type == nullptr) return fail("missing key 'type'");

    if (*type == "shard") {
      if (have_header) return fail("duplicate shard header");
      if (!exact_shard_shape(
              v, {"shard", "shards", "total_units", "cells", "seed", "trials"},
              {"type", "schema", "pattern", "fingerprint"}, {}, {}, err)) {
        return fail(err);
      }
      if (*jsonl::find_str(v, "schema") != kShardSchema) {
        return fail("unsupported schema '" + *jsonl::find_str(v, "schema") +
                    "' (want " + kShardSchema + ")");
      }
      ShardHeader& h = res.file.header;
      h.pattern = *jsonl::find_str(v, "pattern");
      h.fingerprint = *jsonl::find_str(v, "fingerprint");
      if (!is_hex_lower(h.fingerprint, 64)) return fail("bad fingerprint");
      h.shard.index = *jsonl::find_int(v, "shard");
      h.shard.count = *jsonl::find_int(v, "shards");
      if (h.shard.count == 0 || h.shard.index >= h.shard.count) {
        return fail("bad shard spec " + std::to_string(h.shard.index) + "/" +
                    std::to_string(h.shard.count));
      }
      h.total_units = *jsonl::find_int(v, "total_units");
      h.cli_seed = *jsonl::find_int(v, "seed");
      h.cli_trials = *jsonl::find_int(v, "trials");
      want_cells = *jsonl::find_int(v, "cells");
      have_header = true;
      continue;
    }

    if (!have_header) return fail("record before shard header");

    if (*type == "cell") {
      if (res.file.header.cells.size() >= want_cells) {
        return fail("more cell lines than the header's " +
                    std::to_string(want_cells));
      }
      if (!seen_units.empty() || !prefix.empty()) {
        return fail("cell line after unit lines");
      }
      if (!exact_shard_shape(v, {"index", "trials", "base_seed"},
                             {"type", "name"}, {}, {}, err)) {
        return fail(err);
      }
      if (*jsonl::find_int(v, "index") != res.file.header.cells.size()) {
        return fail("cell index " +
                    std::to_string(*jsonl::find_int(v, "index")) +
                    " out of order");
      }
      ShardCellInfo c;
      c.name = *jsonl::find_str(v, "name");
      c.trials = *jsonl::find_int(v, "trials");
      c.base_seed = *jsonl::find_int(v, "base_seed");
      if (running > UINT64_MAX - c.trials) return fail("trial count overflow");
      running += c.trials;
      res.file.header.cells.push_back(std::move(c));
      continue;
    }

    if (*type == "unit") {
      const ShardHeader& h = res.file.header;
      if (h.cells.size() != want_cells) {
        return fail("unit line before the preamble's " +
                    std::to_string(want_cells) + " cell lines completed");
      }
      if (prefix.empty() && want_cells > 0) {
        prefix.reserve(want_cells);
        std::uint64_t acc = 0;
        for (const ShardCellInfo& c : h.cells) {
          prefix.push_back(acc);
          acc += c.trials;
        }
      }
      if (running != h.total_units) {
        return fail("header total_units " + std::to_string(h.total_units) +
                    " != sum of cell trials " + std::to_string(running));
      }
      if (!exact_shard_shape(v,
                             {"unit", "cell", "trial", "converged",
                              "synced_at"},
                             {"type", "msgs"}, {"commitment"}, {"violations"},
                             err)) {
        return fail(err);
      }
      ShardUnitRow row;
      row.unit = *jsonl::find_int(v, "unit");
      const std::uint64_t cell = *jsonl::find_int(v, "cell");
      if (cell >= h.cells.size()) return fail("cell index out of range");
      row.cell = static_cast<std::uint32_t>(cell);
      row.trial = *jsonl::find_int(v, "trial");
      if (row.trial >= h.cells[cell].trials) {
        return fail("trial " + std::to_string(row.trial) +
                    " out of range for cell '" + h.cells[cell].name + "'");
      }
      if (row.unit != prefix[cell] + row.trial) {
        return fail("unit " + std::to_string(row.unit) +
                    " does not match (cell, trial) flattening (want " +
                    std::to_string(prefix[cell] + row.trial) + ")");
      }
      if (row.unit % h.shard.count != h.shard.index) {
        return fail("unit " + std::to_string(row.unit) + " outside shard " +
                    std::to_string(h.shard.index) + "/" +
                    std::to_string(h.shard.count));
      }
      if (!seen_units.insert(row.unit).second) {
        return fail("duplicate unit " + std::to_string(row.unit));
      }
      const std::uint64_t conv = *jsonl::find_int(v, "converged");
      if (conv > 1) return fail("bad converged flag");
      row.outcome.converged = conv == 1;
      row.outcome.synced_at = *jsonl::find_int(v, "synced_at");
      if (!hex_to_double(*jsonl::find_str(v, "msgs"),
                         &row.outcome.msgs_per_beat)) {
        return fail("bad msgs/beat value");
      }
      if (const std::string* c = jsonl::find_str(v, "commitment")) {
        if (!is_hex_lower(*c, 64)) return fail("bad trace commitment");
        row.outcome.trace_commitment = *c;
      }
      if (const std::uint64_t* vio = jsonl::find_int(v, "violations")) {
        // The writer omits the key when zero, so an explicit 0 is a
        // malformed file, not an empty result.
        if (*vio == 0) return fail("bad violation count");
        row.outcome.check_violations = *vio;
      }
      res.file.units.push_back(std::move(row));
      continue;
    }

    return fail("unknown type '" + *type + "'");
  }

  if (!have_header) return fail("missing shard header");
  if (res.file.header.cells.size() != want_cells) {
    return fail("truncated preamble: " +
                std::to_string(res.file.header.cells.size()) + " of " +
                std::to_string(want_cells) + " cell lines");
  }
  if (running != res.file.header.total_units) {
    return fail("header total_units " +
                std::to_string(res.file.header.total_units) +
                " != sum of cell trials " + std::to_string(running));
  }
  res.ok = true;
  return res;
}

ShardMerge merge_shard_files(std::vector<ShardFile> files) {
  ShardMerge res;
  if (files.empty()) {
    res.error = "no shard files to merge";
    return res;
  }
  const ShardHeader& h0 = files[0].header;
  for (std::size_t i = 1; i < files.size(); ++i) {
    const ShardHeader& h = files[i].header;
    const char* mismatch = nullptr;
    if (h.fingerprint != h0.fingerprint) mismatch = "grid fingerprint";
    else if (h.pattern != h0.pattern) mismatch = "pattern";
    else if (h.shard.count != h0.shard.count) mismatch = "shard count";
    else if (h.total_units != h0.total_units) mismatch = "total unit count";
    else if (h.cli_seed != h0.cli_seed) mismatch = "--seed override";
    else if (h.cli_trials != h0.cli_trials) mismatch = "--trials override";
    else if (!(h.cells == h0.cells)) mismatch = "cell list";
    if (mismatch != nullptr) {
      res.error = std::string("shard file ") + std::to_string(i + 1) + " " +
                  mismatch + " differs from file 1 (different grid or "
                  "invocation — refusing to merge)";
      return res;
    }
  }

  // Every unit exactly once across all files; duplicates mean overlapping
  // shards (or the same shard supplied twice).
  std::map<std::uint64_t, const ShardUnitRow*> by_unit;
  std::uint64_t with_commitment = 0, without_commitment = 0;
  for (const ShardFile& f : files) {
    for (const ShardUnitRow& row : f.units) {
      if (!by_unit.emplace(row.unit, &row).second) {
        res.error = "unit " + std::to_string(row.unit) +
                    " appears more than once (overlapping shard files)";
        return res;
      }
      if (row.outcome.trace_commitment.empty()) ++without_commitment;
      else ++with_commitment;
    }
  }
  if (by_unit.size() != h0.total_units) {
    // First missing unit, for a pointable error message.
    std::uint64_t missing = 0;
    for (const auto& [unit, row] : by_unit) {
      if (unit != missing) break;
      ++missing;
    }
    res.error = "incomplete merge: " + std::to_string(by_unit.size()) +
                " of " + std::to_string(h0.total_units) +
                " units present (first missing: unit " +
                std::to_string(missing) + " — supply all " +
                std::to_string(h0.shard.count) + " shards)";
    return res;
  }
  if (with_commitment != 0 && without_commitment != 0) {
    res.error = "mixed trace-commitment coverage (" +
                std::to_string(with_commitment) + " units with, " +
                std::to_string(without_commitment) +
                " without) — rerun the shards uniformly";
    return res;
  }

  res.header = h0;
  res.header.shard = ShardSpec{0, 1};  // the merge is the whole grid
  res.have_commitments = with_commitment != 0;
  res.per_cell.resize(h0.cells.size());
  for (std::size_t c = 0; c < h0.cells.size(); ++c) {
    res.per_cell[c].resize(h0.cells[c].trials);
  }
  if (res.have_commitments) res.commitments.reserve(h0.total_units);
  for (const auto& [unit, row] : by_unit) {
    res.per_cell[row->cell][row->trial] = row->outcome;
    if (res.have_commitments) {
      res.commitments.push_back(row->outcome.trace_commitment);
    }
  }
  res.ok = true;
  return res;
}

}  // namespace ssbft
