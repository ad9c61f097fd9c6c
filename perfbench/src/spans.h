// Span recording for the traced run. The benchmark wraps every call it
// makes into a layer (client op, registration, repack, CRC verify, engine
// run, recover/fsck, set-up) in a span that stores both clocks: virtual
// time from the simulation engine and host CPU time of this process.
// Spans stay in memory and are written as one Chrome trace at exit, with
// the virtual and the host timeline as two processes.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_{enabled} {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  // Open a span; returns its id (0 when tracing is off). Its parent is the
  // current synchronous scope; `virt_ns` is the engine's clock at the
  // boundary.
  std::uint64_t open(const char* layer, std::string name, std::int64_t virt_ns);
  void close(std::uint64_t id, std::int64_t virt_ns);

  // Synchronous scopes (set-up, engine run, recover/fsck) nest: spans
  // opened while one is current get it as their parent.
  std::uint64_t current() const { return stack_.empty() ? 0 : stack_.back(); }
  // Each session starts a fresh engine at virtual time 0; shifting the
  // base lays sessions end to end on the trace's virtual timeline.
  void advance_virtual_base(std::int64_t ns) { virt_base_ += ns; }
  void push(std::uint64_t id) {
    if (id != 0) stack_.push_back(id);
  }
  void pop() {
    if (!stack_.empty()) stack_.pop_back();
  }

  struct LayerRow {
    std::uint64_t spans = 0;
    double virt_ms = 0.0;       // summed virtual duration
    double host_ms = 0.0;       // summed host CPU duration
    double host_self_ms = 0.0;  // host duration not covered by child spans
  };
  // Per-layer totals over closed spans, keyed by layer name.
  std::map<std::string, LayerRow> layer_table() const;
  std::size_t size() const { return spans_.size(); }

  void write_chrome_json(std::ostream& out) const;

 private:
  struct Span {
    const char* layer;
    std::string name;
    std::uint64_t parent;
    std::int64_t virt_begin, virt_end;
    double host_begin, host_end;
    bool open;
  };

  bool enabled_;
  std::int64_t virt_base_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
};

// RAII span over a synchronous scope; also makes it the current parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* layer, std::string name, std::int64_t virt_ns)
      : log_{log}, id_{log.open(layer, std::move(name), virt_ns)}, virt_ns_{virt_ns} {
    log_.push(id_);
  }
  ~ScopedSpan() {
    if (id_ != 0) {
      log_.pop();
      log_.close(id_, end_virt_ns_ >= 0 ? end_virt_ns_ : virt_ns_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Virtual time at the end of the scope (defaults to the start's).
  void set_end(std::int64_t virt_ns) { end_virt_ns_ = virt_ns; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
  std::int64_t virt_ns_;
  std::int64_t end_virt_ns_ = -1;
};

}  // namespace perfbench
