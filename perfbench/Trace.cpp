//===- perfbench/Trace.cpp ------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

uint64_t threadNumber() {
  static std::atomic<uint64_t> Next{0};
  thread_local uint64_t Mine = Next.fetch_add(1);
  return Mine;
}

/// Total length of the union of [first, second) intervals.
double unionLength(std::vector<std::pair<double, double>> Iv) {
  std::sort(Iv.begin(), Iv.end());
  double Total = 0, CurS = 0, CurE = 0;
  bool Open = false;
  for (const auto &[S, E] : Iv) {
    if (Open && S <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Open)
      Total += CurE - CurS;
    CurS = S;
    CurE = E;
    Open = true;
  }
  if (Open)
    Total += CurE - CurS;
  return Total;
}

} // namespace

int SpanRecorder::begin(const std::string &Name, int Parent) {
  double T = now();
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back({Name, T, T, Parent, threadNumber(), false});
  return static_cast<int>(Spans.size() - 1);
}

void SpanRecorder::end(int Id) {
  double T = now();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Id].End = T;
}

int SpanRecorder::add(const std::string &Name, double Start, double End,
                      int Parent) {
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back({Name, Start, End, Parent, threadNumber(), true});
  return static_cast<int>(Spans.size() - 1);
}

bool SpanRecorder::writeChrome(const std::string &Path) const {
  std::vector<TraceSpan> All = spans();
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("[\n", F);
  for (size_t I = 0; I < All.size(); ++I) {
    const TraceSpan &S = All[I];
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"derived\": %s}}%s\n",
                 S.Name.c_str(), (unsigned long long)S.Thread, S.Start * 1e6,
                 (S.End - S.Start) * 1e6, I, S.Parent,
                 S.Derived ? "true" : "false", I + 1 < All.size() ? "," : "");
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

std::vector<double> selfSeconds(const std::vector<TraceSpan> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const TraceSpan &S : Spans)
    if (S.Parent >= 0)
      Kids[S.Parent].push_back({S.Start, S.End});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    // Clip children to the parent: a derived child may overhang slightly.
    for (auto &[S, E] : Kids[I]) {
      S = std::clamp(S, Spans[I].Start, Spans[I].End);
      E = std::clamp(E, Spans[I].Start, Spans[I].End);
    }
    Self[I] = (Spans[I].End - Spans[I].Start) - unionLength(Kids[I]);
  }
  return Self;
}

double topLevelCoverage(const std::vector<TraceSpan> &Spans, double Wall) {
  std::vector<std::pair<double, double>> Top;
  for (const TraceSpan &S : Spans)
    if (S.Parent < 0)
      Top.push_back({S.Start, S.End});
  return Wall > 0 ? unionLength(Top) / Wall : 0;
}

uint64_t criticalPath(const std::vector<std::vector<uint32_t>> &Callees,
                      const std::vector<uint64_t> &Costs) {
  if (Callees.size() != Costs.size())
    throw std::invalid_argument("criticalPath: size mismatch");
  std::vector<uint64_t> Dist(Costs.size(), 0);
  uint64_t Best = 0;
  for (size_t I = 0; I < Costs.size(); ++I) {
    uint64_t Below = 0;
    for (uint32_t C : Callees[I]) {
      if (C >= I)
        throw std::invalid_argument("criticalPath: callee id not below caller");
      Below = std::max(Below, Dist[C]);
    }
    Dist[I] = Costs[I] + Below;
    Best = std::max(Best, Dist[I]);
  }
  return Best;
}

} // namespace perfbench
