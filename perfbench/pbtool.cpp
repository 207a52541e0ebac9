//===- perfbench/pbtool.cpp - Helper program of the benchmark -------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of perfbench/run.py. Subcommands:
///
///   pbtool gen --seed=S --loc=N --out=DIR
///       Generates a subject with workload::generate and writes
///       DIR/subject.mc and its ground truth DIR/truth.tsv.
///   pbtool functions --dir=DIR
///       Lists the functions of DIR/subject.mc in DIR/functions.tsv: name,
///       header line, and whether the five-checker relevance slice holds it.
///   pbtool check TRUTH OUTPUT [TRUTH OUTPUT ...]
///       Classifies each CLI output against its truth file (Oracle.h).
///   pbtool trace [--jobs=N] [--demand=on|off] [--cache-dir=D]
///                --trace-out=T --report-out=R FILE
///       The traced run: calls the library entry points the CLI calls, in
///       the CLI's order and with its defaults, under spans taken here.
///       Writes the report text (byte-identical to the CLI's stdout without
///       --stats) to R, the spans to T, and one JSON object of per-layer
///       figures to stdout.
///   pbtool probe --seed=S
///       Median wall time of one SMT backend query behind the staged solver.
///   pbtool calibrate [--threads=N]
///       Wall and CPU seconds of a fixed loop, run on N threads at once,
///       that calls nothing in the library: a measure of the host's speed
///       at that moment, which run.py divides the analysis times by.
///   pbtool selftest
///       Unit checks of the oracle and the critical-path arithmetic.
///
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Trace.h"

#include "checkers/Checker.h"
#include "checkers/SpecialCheckers.h"
#include "frontend/Parser.h"
#include "ir/CallGraph.h"
#include "ir/SSA.h"
#include "smt/Solver.h"
#include "support/ResourceGovernor.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "support/ThreadPool.h"
#include "svfa/Demand.h"
#include "svfa/GlobalSVFA.h"
#include "svfa/Pipeline.h"
#include "workload/Generator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace pinpoint;
using namespace perfbench;

namespace {

/// The checker list every workload runs, in CLI order.
const std::vector<std::string> CheckerNames = {"uaf", "df", "taint-path",
                                               "taint-data", "null-deref"};

checkers::CheckerSpec specFor(const std::string &Name) {
  if (Name == "uaf")
    return checkers::useAfterFreeChecker();
  if (Name == "df")
    return checkers::doubleFreeChecker();
  if (Name == "taint-path")
    return checkers::pathTraversalChecker();
  if (Name == "taint-data")
    return checkers::dataTransmissionChecker();
  return checkers::nullDerefChecker();
}

svfa::DemandSpec allCheckersSpec() {
  svfa::DemandSpec DS;
  for (const std::string &Name : CheckerNames)
    DS.Checkers.push_back(specFor(Name));
  return DS;
}

/// "--key=value" lookup over argv; \p Def when absent.
std::string flag(int Argc, char **Argv, const std::string &Key,
                 const std::string &Def = "") {
  const std::string Prefix = "--" + Key + "=";
  for (int I = 2; I < Argc; ++I)
    if (std::string(Argv[I]).rfind(Prefix, 0) == 0)
      return Argv[I] + Prefix.size();
  return Def;
}

std::string lastPositional(int Argc, char **Argv) {
  for (int I = Argc - 1; I >= 2; --I)
    if (Argv[I][0] != '-')
      return Argv[I];
  return "";
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Minimal JSON object writer for flat name -> number maps.
std::string jsonObject(const std::map<std::string, double> &M) {
  std::string S = "{";
  char Buf[64];
  for (const auto &[K, V] : M) {
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    S += (S.size() > 1 ? ", \"" : "\"") + K + "\": " + Buf;
  }
  return S + "}";
}

//===--- gen --------------------------------------------------------------===//

int cmdGen(int Argc, char **Argv) {
  workload::WorkloadConfig C;
  C.Seed = std::stoull(flag(Argc, Argv, "seed", "1"));
  C.TargetLoC = std::stoull(flag(Argc, Argv, "loc", "10000"));
  // The ROADMAP subject mix shared by every workload.
  C.FeasibleUAF = 5;
  C.InfeasibleUAF = 5;
  C.EnvGuardedUAF = 2;
  C.FeasibleDF = 2;
  C.FeasibleTaint = 3;
  C.InfeasibleTaint = 3;
  C.AliasNoise = 20;
  const std::string Dir = flag(Argc, Argv, "out");
  if (Dir.empty()) {
    std::fprintf(stderr, "gen: --out=DIR is required\n");
    return 2;
  }
  workload::Workload W = workload::generate(C);
  std::filesystem::create_directories(Dir);
  {
    std::ofstream Out(Dir + "/subject.mc", std::ios::binary);
    Out << W.Source;
  }
  if (!writeTruth(Dir + "/truth.tsv", W.Bugs))
    return 1;
  std::printf("loc=%zu\n", W.LoC);
  return 0;
}

//===--- functions --------------------------------------------------------===//

/// Writes DIR/functions.tsv: one row per function of DIR/subject.mc with its
/// name, the 1-based line of its header and whether it lies inside the
/// relevance slice of the CLI's default demand mode, computed the way the
/// pipeline does (post-SSA call graph). warm_edit alternates its edits
/// between functions inside and outside that slice.
int cmdFunctions(int Argc, char **Argv) {
  const std::string Dir = flag(Argc, Argv, "dir");
  std::string Source;
  if (Dir.empty() || !readFile(Dir + "/subject.mc", Source)) {
    std::fprintf(stderr, "functions: --dir=DIR with a subject.mc is "
                         "required\n");
    return 2;
  }
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  if (!frontend::parseModule(Source, M, Diags)) {
    std::fprintf(stderr, "functions: subject does not parse\n");
    return 1;
  }
  // The parser gives each function's return statement the location of its
  // header; SSA keeps it.
  std::vector<uint32_t> HeaderLines;
  for (ir::Function *F : M.functions())
    HeaderLines.push_back(F->returnStmt()->loc().Line);
  for (ir::Function *F : M.functions()) {
    F->recomputeCFGEdges();
    ir::constructSSA(*F);
  }
  ir::CallGraph CG(M);
  svfa::RelevanceSet Rel = svfa::computeRelevance(CG, M, allCheckersSpec());
  std::ofstream Out(Dir + "/functions.tsv");
  size_t I = 0;
  for (ir::Function *F : M.functions())
    Out << F->name() << '\t' << HeaderLines[I++] << '\t'
        << (Rel.relevant(F) ? 1 : 0) << '\n';
  return Out ? 0 : 1;
}

//===--- check ------------------------------------------------------------===//

int cmdCheck(int Argc, char **Argv) {
  if (Argc < 4 || (Argc - 2) % 2 != 0) {
    std::fprintf(stderr, "check: expected TRUTH OUTPUT pairs\n");
    return 2;
  }
  int Failed = 0;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::vector<workload::PlantedBug> Bugs;
    std::vector<ParsedReport> Reports;
    std::string Output, Err;
    if (!readTruth(Argv[I], Bugs, Err) || !readFile(Argv[I + 1], Output) ||
        !parseReports(Output, Reports, Err)) {
      std::printf("FAIL %s: %s\n", Argv[I + 1],
                  Err.empty() ? "unreadable output" : Err.c_str());
      ++Failed;
      continue;
    }
    Err = checkReports(Bugs, Reports);
    if (Err.empty())
      std::printf("ok %s: %zu report(s)\n", Argv[I + 1], Reports.size());
    else {
      std::printf("FAIL %s: %s\n", Argv[I + 1], Err.c_str());
      ++Failed;
    }
  }
  return Failed ? 1 : 0;
}

//===--- trace ------------------------------------------------------------===//

uint64_t dirBytes(const std::string &Dir) {
  uint64_t Total = 0;
  std::error_code EC;
  for (auto It = std::filesystem::recursive_directory_iterator(Dir, EC);
       !EC && It != std::filesystem::recursive_directory_iterator();
       It.increment(EC))
    if (It->is_regular_file(EC))
      Total += It->file_size(EC);
  return Total;
}

int cmdTrace(int Argc, char **Argv) {
  const std::string File = lastPositional(Argc, Argv);
  const unsigned Jobs = std::stoul(flag(Argc, Argv, "jobs", "1"));
  const bool Demand = flag(Argc, Argv, "demand", "on") == "on";
  const std::string CacheDir = flag(Argc, Argv, "cache-dir");
  const std::string TraceOut = flag(Argc, Argv, "trace-out");
  const std::string ReportOut = flag(Argc, Argv, "report-out");
  if (File.empty() || TraceOut.empty() || ReportOut.empty()) {
    std::fprintf(stderr, "trace: FILE, --trace-out and --report-out are "
                         "required\n");
    return 2;
  }
  const std::map<std::string, int64_t> CountersBefore =
      Counters::get().snapshot();
  auto counterDelta = [&](const std::string &Name) {
    auto It = CountersBefore.find(Name);
    return double(Counters::get().value(Name) -
                  (It == CountersBefore.end() ? 0 : It->second));
  };

  SpanRecorder Rec;
  const double WallStart = Rec.now();

  // Frontend: read + parse, as the CLI's parse phase.
  int Sp = Rec.begin("frontend");
  std::string Source;
  if (!readFile(File, Source)) {
    std::fprintf(stderr, "trace: cannot open %s\n", File.c_str());
    return 2;
  }
  Source += "\n";
  auto M = std::make_unique<ir::Module>();
  std::vector<frontend::Diag> Diags;
  if (!frontend::parseModule(Source, *M, Diags)) {
    std::fprintf(stderr, "trace: %s does not parse\n", File.c_str());
    return 2;
  }
  Rec.end(Sp);
  const double Lines = double(std::count(Source.begin(), Source.end(), '\n'));

  // Run set-up the CLI does before the pipeline: governor, pool, cache.
  Sp = Rec.begin("support.setup");
  ResourceGovernor Gov{Budget{}, FaultInjector{}};
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs, ThreadPool::Schedule::Steal);
  std::unique_ptr<SummaryCache> Cache;
  if (!CacheDir.empty()) {
    Cache = std::make_unique<SummaryCache>(CacheDir,
                                           SummaryCache::Mode::ReadWrite);
    std::string Err;
    if (!Cache->prepare(Err)) {
      std::fprintf(stderr, "trace: --cache-dir: %s\n", Err.c_str());
      return 2;
    }
  }
  auto Ctx = std::make_unique<smt::ExprContext>();
  svfa::DemandSpec DS = allCheckersSpec();
  svfa::PipelineOptions PO;
  PO.Governor = &Gov;
  PO.Pool = Pool.get();
  PO.Cache = Cache.get();
  PO.Demand = Demand ? &DS : nullptr;
  PO.PlanDemand = &DS;
  Rec.end(Sp);

  // Pipeline: SSA, relevance pre-pass, then per-SCC PTA / transform / SEG.
  // SSA starts the constructor; the pre-pass follows the call-graph build,
  // so its derived span is placed right after SSA (duration exact, start
  // approximate).
  Sp = Rec.begin("pipeline");
  auto AM = std::make_unique<svfa::AnalyzedModule>(*M, *Ctx, PO);
  Rec.end(Sp);
  const svfa::AnalyzedModule::PhaseSeconds PS = AM->phaseSeconds();
  {
    const double S0 = Rec.spans()[Sp].Start;
    Rec.add("ir.ssa", S0, S0 + PS.SSA, Sp);
    if (Demand)
      Rec.add("demand.prepass", S0 + PS.SSA, S0 + PS.SSA + PS.Prepass, Sp);
  }

  // Checkers: one GlobalSVFA per checker, fanned out on the pool as the
  // CLI does when it has one.
  svfa::GlobalOptions GO;
  GO.Demand = Demand;
  GO.Governor = &Gov;
  GO.Pool = Pool.get();
  struct CheckerRun {
    std::vector<svfa::Report> Reports;
    svfa::GlobalSVFA::Stats Engine;
    smt::StagedSolver::Stats Solver;
    std::string Error;
  };
  std::vector<CheckerRun> Runs(CheckerNames.size());
  const int FanOut = Rec.begin("svfa.checkers");
  auto runChecker = [&](size_t Idx) {
    CheckerRun &Slot = Runs[Idx];
    const int Id = Rec.begin("svfa.run." + CheckerNames[Idx], FanOut);
    try {
      svfa::GlobalSVFA Engine(*AM, specFor(CheckerNames[Idx]), GO);
      Slot.Reports = Engine.run();
      Slot.Engine = Engine.stats();
      Slot.Solver = Engine.solverStats();
    } catch (const std::exception &Ex) {
      Slot.Error = Ex.what();
    }
    Rec.end(Id);
  };
  if (Pool) {
    ThreadPool::TaskGroup G(*Pool);
    for (size_t Idx = 0; Idx < CheckerNames.size(); ++Idx)
      G.spawn([&runChecker, Idx] { runChecker(Idx); });
    G.wait();
  } else {
    for (size_t Idx = 0; Idx < CheckerNames.size(); ++Idx)
      runChecker(Idx);
  }
  Rec.end(FanOut);

  // Report: the CLI's report lines, in checker order.
  Sp = Rec.begin("report");
  std::string Text;
  int TotalReports = 0;
  char Buf[1024];
  for (size_t Idx = 0; Idx < Runs.size(); ++Idx) {
    if (!Runs[Idx].Error.empty()) {
      std::fprintf(stderr, "warning: checker %s failed (%s); continuing\n",
                   CheckerNames[Idx].c_str(), Runs[Idx].Error.c_str());
      continue;
    }
    for (const svfa::Report &R : Runs[Idx].Reports) {
      ++TotalReports;
      std::snprintf(Buf, sizeof(Buf), "%s: source %s:%s -> sink %s:%s%s\n",
                    R.Checker.c_str(), R.SourceFn.c_str(),
                    R.Source.str().c_str(), R.SinkFn.c_str(),
                    R.Sink.str().c_str(),
                    R.Verdict == smt::SatResult::Unknown
                        ? " [verdict=unknown]"
                        : "");
      Text += Buf;
      for (const std::string &Step : R.Path)
        Text += "    via " + Step + "\n";
    }
  }
  Text += std::to_string(TotalReports) + " report(s)\n";
  {
    std::ofstream Out(ReportOut, std::ios::binary);
    Out << Text;
  }
  Rec.end(Sp);

  // Figures that need the live objects; numNodes() is a single atomic load
  // (no intern-table walk).
  std::map<std::string, double> Out;
  Out["smt.expr_nodes"] = double(Ctx->numNodes());
  Out["pipeline.seg_edges"] = double(AM->totalSEGEdges());
  Out["pipeline.arena_peak_mb"] = MemStats::get().peakBytes() / 1e6;
  Out["demand.relevant_fns"] = double(AM->relevantFunctions());
  Out["demand.dirty_fns"] = double(AM->dirtyFunctions());
  const std::vector<uint64_t> Costs = AM->sccCostsUs();
  std::vector<std::vector<uint32_t>> Callees;
  for (const ir::CallGraph::SCCNode &N : AM->callGraph().sccs())
    Callees.emplace_back(N.CalleeSCCs.begin(), N.CalleeSCCs.end());
  uint64_t Busy = 0;
  for (uint64_t C : Costs)
    Busy += C;
  Out["pipeline.scc_busy_s"] = Busy / 1e6;
  Out["pipeline.critical_path_s"] = criticalPath(Callees, Costs) / 1e6;
  Out["sched.steals"] = Pool ? double(Pool->schedStats().Steals) : 0.0;
  double Hits = 0, Calls = 0;
  for (const CheckerRun &R : Runs) {
    Out["svfa.closure_steps"] += double(R.Engine.ClosureSteps);
    Out["svfa.events"] += double(R.Engine.Events);
    Out["svfa.candidates"] += double(R.Engine.Candidates);
    Out["svfa.linear_pruned"] += double(R.Engine.LinearPruned);
    Out["smt.queries"] += double(R.Solver.Queries);
    Calls += double(R.Solver.BackendCalls);
    Hits += double(R.Solver.CacheHits);
  }
  Out["smt.backend_calls"] = Calls;
  Out["smt.cache_hits"] = Hits;
  Out["smt.cache_hit_ratio"] = Hits + Calls > 0 ? Hits / (Hits + Calls) : 0;

  // Teardown in the CLI's destruction order: the analysed module, the
  // expression context, cache and pool, then the IR module.
  const int Teardown = Rec.begin("teardown");
  Runs.clear();
  Sp = Rec.begin("teardown.module", Teardown);
  AM.reset();
  Rec.end(Sp);
  Sp = Rec.begin("teardown.exprs", Teardown);
  Ctx.reset();
  Rec.end(Sp);
  Sp = Rec.begin("teardown.support", Teardown);
  Cache.reset();
  Pool.reset();
  Rec.end(Sp);
  Sp = Rec.begin("teardown.module", Teardown);
  M.reset();
  Rec.end(Sp);
  Rec.end(Teardown);
  const double Wall = Rec.now() - WallStart;

  // Per-layer figures from the spans (self time, so nested work is never
  // counted twice) and the counters (as deltas over this run).
  const std::vector<TraceSpan> Spans = Rec.spans();
  const std::vector<double> Self = selfSeconds(Spans);
  std::map<std::string, double> SelfByName;
  for (size_t I = 0; I < Spans.size(); ++I)
    SelfByName[Spans[I].Name] += Self[I];
  Out["frontend.parse_s"] = SelfByName["frontend"];
  Out["frontend.kloc_per_s"] =
      SelfByName["frontend"] > 0 ? Lines / 1000.0 / SelfByName["frontend"] : 0;
  Out["ir.ssa_s"] = PS.SSA;
  Out["demand.prepass_s"] = PS.Prepass;
  Out["demand.prepass_fns"] = counterDelta("demand.prepass-fns");
  Out["pipeline.build_s"] = SelfByName["pipeline"];
  Out["teardown.module_s"] = SelfByName["teardown.module"];
  Out["teardown.exprs_s"] = SelfByName["teardown.exprs"];

  double RunMax = 0, RunSum = 0;
  for (const TraceSpan &S : Spans)
    if (S.Parent == FanOut) {
      const double D = S.End - S.Start;
      Out["svfa.run_s." + S.Name.substr(std::strlen("svfa.run."))] = D;
      RunMax = std::max(RunMax, D);
      RunSum += D;
    }
  Out["svfa.run_s_max"] = RunMax;
  Out["cache.hits"] = counterDelta("cache.hits");
  Out["cache.misses"] = counterDelta("cache.misses");
  Out["cache.stored"] = counterDelta("cache.stored");
  Out["cache.dir_bytes"] = CacheDir.empty() ? 0.0 : double(dirBytes(CacheDir));
  // Busy time on the scheduled phases (per-SCC pipeline tasks, checker
  // runs) over the capacity the job count offered during them.
  const double PoolPhases =
      Out["pipeline.build_s"] + (Spans[FanOut].End - Spans[FanOut].Start);
  Out["sched.utilization"] =
      PoolPhases > 0 ? (Busy / 1e6 + RunSum) / (PoolPhases * Jobs) : 0;
  Out["trace.coverage"] = topLevelCoverage(Spans, Wall);
  // Self time of every span name, so the traced wall is attributed. Serial
  // runs: these plus the unattributed remainder (1 - trace.coverage) sum to
  // the wall; with a pool the checker spans overlap in time.
  for (const auto &[Name, S] : SelfByName)
    Out["self_s." + Name] = S;
  Out["trace.wall_s"] = Wall;

  if (!Rec.writeChrome(TraceOut)) {
    std::fprintf(stderr, "trace: cannot write %s\n", TraceOut.c_str());
    return 1;
  }
  std::printf("%s\n", jsonObject(Out).c_str());
  return 0;
}


//===--- probe ------------------------------------------------------------===//

/// Times one backend query: 41 distinct satisfiable conjunctions over fresh
/// integer variables, each connected (so conjunct slicing keeps it whole)
/// and free of complementary atoms (so the linear filter passes it on). The staged solver runs without a verdict cache, as each query is
/// new anyway; every query must reach the backend exactly once.
int cmdProbe(int Argc, char **Argv) {
  const int N = 41;
  const int64_t Seed = std::stoll(flag(Argc, Argv, "seed", "1"));
  smt::ExprContext Ctx;
  smt::StagedSolver S(Ctx, smt::createDefaultSolver(Ctx));
  std::vector<double> Ms;
  for (int I = 0; I < N; ++I) {
    const std::string Id = std::to_string(I);
    const smt::Expr *X = Ctx.freshIntVar("px" + Id);
    const smt::Expr *Y = Ctx.freshIntVar("py" + Id);
    const smt::Expr *Z = Ctx.freshIntVar("pz" + Id);
    const int64_t K = (Seed * 7919 + I * 104729) % 1000;
    const smt::Expr *Atoms[] = {
        Ctx.mkEq(Ctx.mkArith(smt::ExprKind::Add, X, Y), Ctx.getInt(K + 10)),
        Ctx.mkCmp(smt::ExprKind::Gt, X, Ctx.getInt(K)),
        Ctx.mkCmp(smt::ExprKind::Lt, Y, Z),
        Ctx.mkCmp(smt::ExprKind::Le, Z, Ctx.getInt(K + 100)),
    };
    const smt::Expr *Q = Ctx.mkAndN(Atoms);
    const uint64_t CallsBefore = S.stats().BackendCalls;
    const auto T0 = std::chrono::steady_clock::now();
    const smt::SatResult R = S.checkSat(Q);
    Ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - T0)
                     .count());
    if (R != smt::SatResult::Sat || S.stats().BackendCalls != CallsBefore + 1) {
      std::fprintf(stderr, "probe: query %d was not a satisfiable backend "
                           "call\n", I);
      return 1;
    }
  }
  std::sort(Ms.begin(), Ms.end());
  std::printf("{\"smt.backend_query_ms\": %.9g, \"queries\": %d}\n",
              Ms[Ms.size() / 2], N);
  return 0;
}

//===--- calibrate --------------------------------------------------------===//

double processCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return T.tv_sec + T.tv_nsec * 1e-9;
}

/// A fixed loop shaped like the analysis's own work (hash-map updates over a
/// table that fits in L2, allocation, a sort, dependent lookups) but built
/// only from the standard library, so a change to src/ never moves it.
uint64_t calibrationLoop() {
  uint64_t X = 88172645463325252ull, Acc = 0;
  for (int Round = 0; Round < 8; ++Round) {
    std::unordered_map<uint32_t, uint32_t> Map;
    std::vector<uint32_t> Keys;
    for (int I = 0; I < 60000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Map[uint32_t(X) & 0xffff] += I;
      Keys.push_back(uint32_t(X >> 32));
    }
    std::sort(Keys.begin(), Keys.end());
    for (uint32_t K : Keys) {
      auto It = Map.find(K & 0xffff);
      if (It != Map.end())
        Acc += It->second;
    }
  }
  return Acc;
}

/// Runs calibrationLoop once on each of --threads=N threads at once and
/// prints the wall seconds and the CPU seconds per thread. Its time follows
/// the host's speed: a shared host that slows down for seconds or minutes,
/// or takes away the cores a --jobs=N analysis runs on, slows this loop and
/// the CLI alike.
int cmdCalibrate(int Argc, char **Argv) {
  const int N = std::max(1, std::stoi(flag(Argc, Argv, "threads", "1")));
  std::vector<uint64_t> Acc(N);
  const auto W0 = std::chrono::steady_clock::now();
  const double C0 = processCpuSeconds();
  std::vector<std::thread> Threads;
  for (int T = 1; T < N; ++T)
    Threads.emplace_back([&Acc, T] { Acc[T] = calibrationLoop(); });
  Acc[0] = calibrationLoop();
  for (std::thread &T : Threads)
    T.join();
  const double Wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - W0)
                          .count();
  uint64_t Sum = 0;
  for (uint64_t A : Acc)
    Sum += A;
  // Printing the checksum keeps the loops from being optimised away.
  std::printf("%.9f %.9f %llu\n", Wall, (processCpuSeconds() - C0) / N,
              (unsigned long long)(Sum & 1));
  return 0;
}

//===--- selftest ---------------------------------------------------------===//

int Failures = 0;

void expect(bool Cond, const char *What) {
  std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What);
  Failures += !Cond;
}

int cmdSelftest() {
  using workload::BugChecker;
  using workload::BugKind;
  const std::vector<workload::PlantedBug> Bugs = {
      {BugKind::Feasible, BugChecker::UseAfterFree, "a", 10, 14},
      {BugKind::EnvGuarded, BugChecker::UseAfterFree, "b", 30, 33},
      {BugKind::Infeasible, BugChecker::UseAfterFree, "c", 50, 55},
      {BugKind::Feasible, BugChecker::DataTransmission, "d", 70, 72},
  };
  const std::string Good =
      "use-after-free: source f:10:3 -> sink f:14:5\n"
      "    via p\n"
      "use-after-free: source g:30:3 -> sink g:33:5\n"
      "data-transmission: source h:70:9 -> sink h:72:2\n"
      "3 report(s)\n";
  std::vector<ParsedReport> R;
  std::string Err;
  expect(parseReports(Good, R, Err) && R.size() == 3, "parses report lines");
  expect(checkReports(Bugs, R).empty(), "accepts the exact ground truth");

  std::vector<ParsedReport> Dropped = {R[0], R[2]};
  expect(!checkReports(Bugs, Dropped).empty(), "rejects a dropped plant");

  std::vector<ParsedReport> Added = R;
  Added.push_back({"use-after-free", 50, 55});
  expect(!checkReports(Bugs, Added).empty(),
         "rejects a report on an infeasible plant");

  std::vector<ParsedReport> Shifted = R;
  Shifted[0].SourceLine += 1;
  Shifted[0].SinkLine += 1;
  expect(!checkReports(Bugs, Shifted).empty(), "rejects a shifted line");

  std::vector<ParsedReport> Twice = R;
  Twice.push_back(R[0]);
  expect(!checkReports(Bugs, Twice).empty(), "rejects a duplicate report");

  std::vector<ParsedReport> Other = R;
  Other.push_back({"null-deref", 10, 14});
  expect(!checkReports(Bugs, Other).empty(),
         "rejects a report of an unplanted checker");

  std::vector<ParsedReport> Junk;
  expect(!parseReports("use-after-free: nonsense\n", Junk, Err),
         "rejects an unparsable report line");

  // Condensation (callee ids below callers):
  //   0 <- 2 <- 4,  1 <- 3 <- 4,  costs 5, 1, 2, 10, 1.
  // Paths to 4: 5+2+1 = 8 and 1+10+1 = 12.
  const std::vector<std::vector<uint32_t>> Callees = {{}, {}, {0}, {1}, {2, 3}};
  expect(criticalPath(Callees, {5, 1, 2, 10, 1}) == 12,
         "critical path takes the heavier branch");
  expect(criticalPath({{}, {}, {}}, {3, 7, 2}) == 7,
         "critical path of independent SCCs is the largest cost");
  bool Threw = false;
  try {
    criticalPath({{1}, {}}, {1, 1});
  } catch (const std::invalid_argument &) {
    Threw = true;
  }
  expect(Threw, "critical path rejects a non-topological condensation");

  const std::vector<TraceSpan> Spans = {
      {"top", 0.0, 10.0, -1, 0, false},
      {"a", 1.0, 4.0, 0, 1, false},
      {"b", 3.0, 6.0, 0, 2, false},
      {"late", 12.0, 13.0, -1, 0, false},
  };
  const std::vector<double> Self = selfSeconds(Spans);
  expect(Self[0] == 5.0 && Self[1] == 3.0, "self time merges overlapping kids");
  expect(topLevelCoverage(Spans, 20.0) == 0.55,
         "coverage is the top-level union over wall");
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "gen")
    return cmdGen(Argc, Argv);
  if (Cmd == "functions")
    return cmdFunctions(Argc, Argv);
  if (Cmd == "check")
    return cmdCheck(Argc, Argv);
  if (Cmd == "trace")
    return cmdTrace(Argc, Argv);
  if (Cmd == "probe")
    return cmdProbe(Argc, Argv);
  if (Cmd == "calibrate")
    return cmdCalibrate(Argc, Argv);
  if (Cmd == "selftest")
    return cmdSelftest();
  std::fprintf(stderr, "usage: pbtool "
                       "gen|functions|check|trace|probe|calibrate|selftest "
                       "...\n");
  return 2;
}
