#include "spans.h"

#include <algorithm>
#include <iomanip>
#include <utility>

#include "stats.h"

namespace perfbench {

namespace {

void write_escaped(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

// Length of the union of [begin, end) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_b = 0.0, cur_e = 0.0;
  bool have = false;
  for (auto [b, e] : iv) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (have && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (have) total += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    have = true;
  }
  if (have) total += cur_e - cur_b;
  return total;
}

}  // namespace

std::uint64_t SpanLog::open(const char* layer, std::string name, std::int64_t virt_ns) {
  if (!enabled_) return 0;
  const double host = process_cpu_seconds();
  spans_.push_back(Span{.layer = layer,
                        .name = std::move(name),
                        .parent = current(),
                        .virt_begin = virt_base_ + virt_ns,
                        .virt_end = virt_base_ + virt_ns,
                        .host_begin = host,
                        .host_end = host,
                        .open = true});
  return spans_.size();  // ids are 1-based indices
}

void SpanLog::close(std::uint64_t id, std::int64_t virt_ns) {
  if (id == 0 || id > spans_.size()) return;
  auto& s = spans_[id - 1];
  s.virt_end = virt_base_ + virt_ns;
  s.host_end = process_cpu_seconds();
  s.open = false;
}

std::map<std::string, SpanLog::LayerRow> SpanLog::layer_table() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size() + 1);
  for (const auto& s : spans_) {
    if (!s.open && s.parent != 0) children[s.parent].emplace_back(s.host_begin, s.host_end);
  }
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.open) continue;
    auto& row = rows[s.layer];
    const double host = s.host_end - s.host_begin;
    ++row.spans;
    row.virt_ms += static_cast<double>(s.virt_end - s.virt_begin) / 1e6;
    row.host_ms += host * 1e3;
    row.host_self_ms += (host - covered(children[i + 1], s.host_begin, s.host_end)) * 1e3;
  }
  return rows;
}

void SpanLog::write_chrome_json(std::ostream& out) const {
  // pid 1 = virtual clock, pid 2 = host CPU clock; one thread row per layer.
  std::vector<std::string> layers;
  for (const auto& s : spans_) {
    if (std::find(layers.begin(), layers.end(), s.layer) == layers.end()) {
      layers.emplace_back(s.layer);
    }
  }
  const auto tid = [&](const char* layer) {
    return std::find(layers.begin(), layers.end(), layer) - layers.begin() + 1;
  };
  const double host0 = spans_.empty() ? 0.0 : spans_.front().host_begin;

  out << std::fixed << std::setprecision(3);  // microseconds, to the nanosecond
  out << "{\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"virtual "
         "clock\"}},\n";
  out << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"host "
         "CPU clock\"}}";
  for (const int pid : {1, 2}) {
    for (const auto& layer : layers) {
      out << ",\n{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid(layer.c_str())
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      write_escaped(out, layer);
      out << "\"}}";
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.open) continue;
    const double vts = static_cast<double>(s.virt_begin) / 1e3;
    const double vdur = static_cast<double>(s.virt_end - s.virt_begin) / 1e3;
    const double hts = (s.host_begin - host0) * 1e6;
    const double hdur = (s.host_end - s.host_begin) * 1e6;
    for (const int pid : {1, 2}) {
      out << ",\n{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid(s.layer)
          << ",\"name\":\"";
      write_escaped(out, s.name);
      out << "\",\"ts\":" << (pid == 1 ? vts : hts) << ",\"dur\":" << (pid == 1 ? vdur : hdur)
          << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent << "}}";
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
