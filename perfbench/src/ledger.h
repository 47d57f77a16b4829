// Per-layer self-time ledger of a traced run. Spans come from the
// benchmark's own obs::Tracer (recorded around each public library call)
// or, for the service workload, from the per-request timings the service
// reports. A layer's self time is its spans' duration minus the part their
// child spans cover.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct LedgerSpan {
  std::string name;
  std::string layer;
  /// Request class; child spans inherit their root's.
  std::string request_class;
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = a root (one request)
  double start_s = 0.0;
  double duration_s = 0.0;
};

class Ledger {
 public:
  /// Adds a span; ids must be unique across the ledger.
  void Add(LedgerSpan span);
  /// Imports every closed span of `tracer`: the span category is the layer
  /// and a root span's "class" argument its request class.
  void AddTracer(const cloudia::obs::Tracer& tracer);

  /// Self time (s) per layer, summed over all requests.
  std::map<std::string, double> SelfByLayer() const;
  /// Self time (s) per request class, then per layer.
  std::map<std::string, std::map<std::string, double>> SelfByClass() const;
  /// Summed duration (s) of spans with this exact name.
  double BusyS(const std::string& name) const;

  /// Prints the per-layer table and the top layer of every request class.
  void Print(const std::string& workload) const;
  /// Chrome trace_event JSON of every span (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<double> SelfTimes() const;
  /// Index of each span's root (its request).
  std::vector<size_t> Roots() const;

  std::vector<LedgerSpan> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
