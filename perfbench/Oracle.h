//===- perfbench/Oracle.h - Ground-truth check of CLI report output -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness oracle. A generated subject's planted bugs
/// are written next to it as a truth file; the CLI's report lines are
/// parsed back and classified with workload::evaluate. An analysis passes
/// when every plant whose kind is not Infeasible is reported exactly once
/// and nothing else is reported (environment-guarded plants are statically
/// feasible, so a sound tool reports them too).
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_PERFBENCH_ORACLE_H
#define PINPOINT_PERFBENCH_ORACLE_H

#include "workload/Generator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One report line of the CLI: "<checker>: source f:L:C -> sink g:L:C".
struct ParsedReport {
  std::string Checker;
  uint32_t SourceLine = 0;
  uint32_t SinkLine = 0;
};

/// Collects the report lines of a CLI output (the indented "via" lines and
/// the trailing "N report(s)" line are skipped). Returns false, with a
/// reason in \p Err, on a line that looks like a report but does not parse.
bool parseReports(const std::string &Output, std::vector<ParsedReport> &Out,
                  std::string &Err);

/// Empty when \p Reports match \p Bugs exactly (see the file comment),
/// otherwise a one-line reason naming the first checker that failed.
std::string checkReports(const std::vector<pinpoint::workload::PlantedBug> &Bugs,
                         const std::vector<ParsedReport> &Reports);

/// Truth file: one tab-separated "kind checker source-line sink-line shape"
/// row per planted bug, kinds and checkers as their enum values.
bool writeTruth(const std::string &Path,
                const std::vector<pinpoint::workload::PlantedBug> &Bugs);
bool readTruth(const std::string &Path,
               std::vector<pinpoint::workload::PlantedBug> &Bugs,
               std::string &Err);

} // namespace perfbench

#endif // PINPOINT_PERFBENCH_ORACLE_H
