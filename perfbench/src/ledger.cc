#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

void Ledger::Add(LedgerSpan span) { spans_.push_back(std::move(span)); }

void Ledger::AddTracer(const cloudia::obs::Tracer& tracer) {
  for (const cloudia::obs::TraceEvent& e : tracer.Snapshot()) {
    if (e.kind != cloudia::obs::TraceEvent::Kind::kSpan || e.duration_ns < 0) {
      continue;
    }
    LedgerSpan span;
    span.name = e.name;
    span.layer = e.category;
    span.id = e.id;
    span.parent = e.parent;
    span.start_s = static_cast<double>(e.start_ns) * 1e-9;
    span.duration_s = static_cast<double>(e.duration_ns) * 1e-9;
    for (const cloudia::obs::TraceArg& arg : e.args) {
      if (arg.key == "class") span.request_class = arg.text;
    }
    spans_.push_back(std::move(span));
  }
}

std::vector<double> Ledger::SelfTimes() const {
  std::unordered_map<int64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i);
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const LedgerSpan& s = spans_[i];
    const double end = s.start_s + s.duration_s;
    std::vector<std::pair<double, double>> covered;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const double lo = std::max(s.start_s, spans_[c].start_s);
        const double hi =
            std::min(end, spans_[c].start_s + spans_[c].duration_s);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_s = 0.0, cursor = s.start_s;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, cursor);
      if (hi > from) union_s += hi - from;
      cursor = std::max(cursor, hi);
    }
    self[i] = std::max(0.0, s.duration_s - union_s);
  }
  return self;
}

std::vector<size_t> Ledger::Roots() const {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<size_t> roots(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    size_t root = i;
    for (int depth = 0; spans_[root].parent != 0 && depth < 64; ++depth) {
      auto it = index.find(spans_[root].parent);
      if (it == index.end()) break;
      root = it->second;
    }
    roots[i] = root;
  }
  return roots;
}

std::map<std::string, double> Ledger::SelfByLayer() const {
  const std::vector<double> self = SelfTimes();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].layer] += self[i];
  return out;
}

std::map<std::string, std::map<std::string, double>> Ledger::SelfByClass()
    const {
  const std::vector<double> self = SelfTimes();
  const std::vector<size_t> roots = Roots();
  std::map<std::string, std::map<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[roots[i]].request_class][spans_[i].layer] += self[i];
  }
  return out;
}

double Ledger::BusyS(const std::string& name) const {
  double total = 0.0;
  for (const LedgerSpan& s : spans_) {
    if (s.name == name) total += s.duration_s;
  }
  return total;
}

namespace {

std::pair<std::string, double> TopLayer(
    const std::map<std::string, double>& by_layer, double* total) {
  std::pair<std::string, double> top{"-", 0.0};
  *total = 0.0;
  for (const auto& [layer, s] : by_layer) {
    *total += s;
    if (s > top.second) top = {layer, s};
  }
  return top;
}

}  // namespace

void Ledger::Print(const std::string& workload) const {
  double total = 0.0;
  const auto by_layer = SelfByLayer();
  TopLayer(by_layer, &total);
  std::printf("ledger %s: self time by layer over %.3f s of traced requests\n",
              workload.c_str(), total);
  for (const auto& [layer, s] : by_layer) {
    std::printf("  %-10s %10.4f s  %5.1f%%\n", layer.c_str(), s,
                total > 0 ? 100.0 * s / total : 0.0);
  }
  for (const auto& [cls, layers] : SelfByClass()) {
    double class_total = 0.0;
    const auto top = TopLayer(layers, &class_total);
    std::printf("  top layer of %-22s %-10s %5.1f%% of %.3f s\n",
                (cls.empty() ? "(setup)" : cls).c_str(), top.first.c_str(),
                class_total > 0 ? 100.0 * top.second / class_total : 0.0,
                class_total);
  }
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Ledger::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = 0.0;
  if (!spans_.empty()) {
    origin = spans_.front().start_s;
    for (const LedgerSpan& s : spans_) origin = std::min(origin, s.start_s);
  }
  // Requests that overlap in time (the service workload) get separate
  // lanes, so every lane holds properly nested spans: each root takes the
  // lowest lane free at its start.
  const std::vector<size_t> roots = Roots();
  std::vector<size_t> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (roots[i] == i) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return spans_[a].start_s < spans_[b].start_s;
  });
  std::vector<int> lane(spans_.size(), 0);
  std::vector<double> lane_free;  // end of the last root in each lane
  for (size_t r : order) {
    size_t l = 0;
    while (l < lane_free.size() && lane_free[l] > spans_[r].start_s) ++l;
    if (l == lane_free.size()) lane_free.push_back(0.0);
    lane_free[l] = spans_[r].start_s + spans_[r].duration_s;
    lane[r] = static_cast<int>(l) + 1;
  }
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const LedgerSpan& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %lld, \"parent\": %lld, \"class\": \"%s\"}}",
                 i == 0 ? "" : ",", JsonEscape(s.name).c_str(),
                 JsonEscape(s.layer).c_str(), (s.start_s - origin) * 1e6,
                 s.duration_s * 1e6, lane[roots[i]],
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 JsonEscape(spans_[roots[i]].request_class).c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
