//===- perfbench/Trace.h - In-memory spans for the traced run -------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span recording for the benchmark's traced run. Spans are taken by the
/// benchmark around its calls into the library (never inside the library),
/// kept in memory, and written out as Chrome trace-event JSON when the run
/// ends. Also the offline arithmetic over them: per-span self time, the
/// share of wall time the top-level spans cover, and the critical path
/// through the call-graph condensation weighted by measured SCC costs.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_PERFBENCH_TRACE_H
#define PINPOINT_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct TraceSpan {
  std::string Name;
  double Start = 0, End = 0; ///< Seconds since the recorder was created.
  int Parent = -1;           ///< Index of the enclosing span; -1 = top level.
  uint64_t Thread = 0;       ///< Small per-thread number (0 = main thread).
  bool Derived = false;      ///< Placed from a library-reported duration.
};

/// Thread-safe span log. begin/end bracket a call; add() records a span
/// whose duration the library measured itself (e.g. phaseSeconds()).
class SpanRecorder {
public:
  SpanRecorder() : Origin(std::chrono::steady_clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Origin)
        .count();
  }
  int begin(const std::string &Name, int Parent = -1);
  void end(int Id);
  int add(const std::string &Name, double Start, double End, int Parent);

  std::vector<TraceSpan> spans() const {
    std::lock_guard<std::mutex> L(Mu);
    return Spans;
  }
  /// Writes every span as a Chrome trace-event ("ph":"X") JSON array.
  bool writeChrome(const std::string &Path) const;

private:
  std::chrono::steady_clock::time_point Origin;
  mutable std::mutex Mu;
  std::vector<TraceSpan> Spans;
};

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (children on other threads included;
/// overlapping children are merged, not double-counted).
std::vector<double> selfSeconds(const std::vector<TraceSpan> &Spans);

/// Union length of the top-level spans' intervals divided by \p Wall.
double topLevelCoverage(const std::vector<TraceSpan> &Spans, double Wall);

/// Longest path through a DAG whose node I has cost \p Costs[I] and edges
/// to \p Callees[I] (each callee id smaller than its caller, as the call
/// graph's condensation numbers SCCs bottom-up).
uint64_t criticalPath(const std::vector<std::vector<uint32_t>> &Callees,
                      const std::vector<uint64_t> &Costs);

} // namespace perfbench

#endif // PINPOINT_PERFBENCH_TRACE_H
