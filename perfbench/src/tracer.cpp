#include "tracer.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer l) {
  static const char* const kNames[kLayerCount] = {
      "sim.run_beat",     "adversary.act",    "core.send",
      "core.recv",        "coin.pipeline",    "coin.oracle",
      "coin.deal.send",   "coin.cross.send",  "coin.vote.send",
      "coin.share.send",  "coin.deal.recv",   "coin.cross.recv",
      "coin.vote.recv",   "coin.recover",
  };
  return l < kLayerCount ? kNames[l] : "?";
}

Tracer::Tracer(std::size_t log_capacity) : log_capacity_(log_capacity) {
  log_.reserve(log_capacity_);
}

void Tracer::open(Layer layer) {
  if (depth_ == stack_.size()) throw std::logic_error("span stack overflow");
  Open& o = stack_[depth_];
  o.layer = layer;
  o.child_ns = 0;
  o.log_id = -1;
  if (log_.size() < log_capacity_) {
    o.log_id = static_cast<std::int64_t>(log_.size());
    log_.push_back({beats_, 0, 0,
                    depth_ == 0 ? -1 : stack_[depth_ - 1].log_id, layer});
  }
  ++depth_;
  o.start = now_ns();
}

void Tracer::close() {
  const std::uint64_t end = now_ns();
  if (depth_ == 0) throw std::logic_error("span closed twice");
  const Open& o = stack_[--depth_];
  const std::uint64_t dur = end - o.start;
  const auto self = static_cast<std::int64_t>(dur) -
                    static_cast<std::int64_t>(o.child_ns);
  self_ns_[o.layer] += static_cast<std::uint64_t>(self);
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (o.layer == kBeat) {
    beat_ns_ += dur;
    if (self < min_plumbing_ns_) min_plumbing_ns_ = self;
  }
  if (o.log_id >= 0) {
    Logged& l = log_[static_cast<std::size_t>(o.log_id)];
    l.start = o.start;
    l.end = end;
  }
}

void Tracer::reset() {
  self_ns_.fill(0);
  round_bytes_.fill(0);
  beat_ns_ = 0;
  beats_ = 0;
  min_plumbing_ns_ = INT64_MAX;
  log_.clear();
}

bool Tracer::write_log(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tbeat\tlayer\tstart_ns\tend_ns\tparent\n";
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Logged& l = log_[i];
    out << i << '\t' << l.beat << '\t' << layer_name(l.layer) << '\t'
        << l.start << '\t' << l.end << '\t' << l.parent << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
