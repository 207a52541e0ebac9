//===- perfbench/Oracle.cpp -----------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "workload/Evaluate.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace pinpoint::workload;

namespace perfbench {

namespace {

struct CheckerName {
  const char *Name;
  BugChecker Checker;
};

/// Report names (CheckerSpec::Name) of the checkers the generator plants
/// bugs for. Reports of any other checker are unexpected by construction.
const CheckerName PlantedCheckers[] = {
    {"use-after-free", BugChecker::UseAfterFree},
    {"double-free", BugChecker::DoubleFree},
    {"path-traversal", BugChecker::PathTraversal},
    {"data-transmission", BugChecker::DataTransmission},
};

/// Parses "fn:LINE:COL" and returns LINE.
bool lineOf(const std::string &Loc, uint32_t &Line) {
  size_t Last = Loc.rfind(':');
  if (Last == std::string::npos || Last == 0)
    return false;
  size_t Prev = Loc.rfind(':', Last - 1);
  if (Prev == std::string::npos)
    return false;
  try {
    Line = static_cast<uint32_t>(std::stoul(Loc.substr(Prev + 1, Last - Prev - 1)));
  } catch (...) {
    return false;
  }
  return true;
}

} // namespace

bool parseReports(const std::string &Output, std::vector<ParsedReport> &Out,
                  std::string &Err) {
  std::istringstream In(Output);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == ' ' || Line.find(" report(s)") != std::string::npos)
      continue;
    std::istringstream LS(Line);
    std::string Checker, SrcWord, Src, Arrow, SinkWord, Sink;
    LS >> Checker >> SrcWord >> Src >> Arrow >> SinkWord >> Sink;
    ParsedReport R;
    if (Checker.size() < 2 || Checker.back() != ':' || SrcWord != "source" ||
        Arrow != "->" || SinkWord != "sink" || !lineOf(Src, R.SourceLine) ||
        !lineOf(Sink, R.SinkLine)) {
      Err = "unparsable report line: " + Line;
      return false;
    }
    Checker.pop_back();
    R.Checker = Checker;
    Out.push_back(R);
  }
  return true;
}

std::string checkReports(const std::vector<PlantedBug> &Bugs,
                         const std::vector<ParsedReport> &Reports) {
  // Every plant a sound tool must report becomes Feasible for evaluate();
  // infeasible plants are dropped, so a report on one counts as unmatched.
  std::vector<PlantedBug> Expected;
  for (const PlantedBug &B : Bugs)
    if (B.Kind != BugKind::Infeasible) {
      Expected.push_back(B);
      Expected.back().Kind = BugKind::Feasible;
    }

  std::vector<ReportView> Views;
  for (const ParsedReport &R : Reports) {
    bool Known = false;
    for (const CheckerName &C : PlantedCheckers)
      if (R.Checker == C.Name) {
        Views.push_back({R.SourceLine, R.SinkLine, C.Checker});
        Known = true;
      }
    if (!Known)
      return "unexpected " + R.Checker + " report (source line " +
             std::to_string(R.SourceLine) + ")";
  }

  for (const CheckerName &C : PlantedCheckers) {
    int Plants = 0;
    for (const PlantedBug &B : Expected)
      Plants += B.Checker == C.Checker;
    EvalResult E = evaluate(Expected, Views, C.Checker);
    if (E.FalseNegatives != 0 || E.FalsePositives != 0 ||
        E.TruePositives != Plants)
      return std::string(C.Name) + ": " + std::to_string(Plants) +
             " plant(s) expected, " + std::to_string(E.Reports) +
             " reported, " + std::to_string(E.FalseNegatives) + " missed, " +
             std::to_string(E.FalsePositives) + " unexpected";
  }
  return "";
}

bool writeTruth(const std::string &Path, const std::vector<PlantedBug> &Bugs) {
  std::ofstream Out(Path);
  for (const PlantedBug &B : Bugs)
    Out << int(B.Kind) << '\t' << int(B.Checker) << '\t' << B.SourceLine
        << '\t' << B.SinkLine << '\t' << B.Shape << '\n';
  return bool(Out);
}

bool readTruth(const std::string &Path, std::vector<PlantedBug> &Bugs,
               std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot open " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    int Kind = -1, Checker = -1;
    PlantedBug B;
    if (!(LS >> Kind >> Checker >> B.SourceLine >> B.SinkLine) || Kind < 0 ||
        Kind > 2 || Checker < 0 || Checker > 3) {
      Err = "bad truth row in " + Path + ": " + Line;
      return false;
    }
    LS >> B.Shape;
    B.Kind = static_cast<BugKind>(Kind);
    B.Checker = static_cast<BugChecker>(Checker);
    Bugs.push_back(B);
  }
  return true;
}

} // namespace perfbench
