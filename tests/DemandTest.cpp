//===- tests/DemandTest.cpp - Demand-driven slicing tests ------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demand-slicing contract (DESIGN.md section 13), enforced end to end:
///
///  * CLI differential: for every checker individually, at --jobs 1 and 4,
///    with and without a summary cache (cold and warm), the output of
///    `--demand=on` is byte-identical to `--demand=off` once the
///    work-reflecting stats lines ([pipeline]/[exprs]/[cache]/[lifecycle]/
///    [demand]) are filtered out — reports, degradation log and, on the
///    hand-written subject, the whole [checker] lines; on a generated
///    subject, where `events` and `linear-pruned` count work outside the
///    slice, the verdict-bearing [checker] fields;
///  * the pre-pass actually skips: on a subject with disconnected filler
///    functions, `skipped-fns` is positive and relevant+skipped covers the
///    module;
///  * cache interplay: skipped functions neither probe nor populate the
///    cache, and cached artifacts are demand-mode-independent (a warm
///    `--demand=on` run happily consumes a `--demand=off` run's cache);
///  * the relevance computation itself: seeds, caller closure, callee
///    closure, SCC uniformity and the leak-checker malloc seeds;
///  * the ReachOracle rewrite: exact agreement with a brute-force CFG
///    reachability check on every statement pair, and lazy row
///    materialisation (unqueried functions build no rows).
///
/// The CLI tests fork a child that calls `pinpointToolMain` directly (the
/// LifecycleTest harness) and are skipped under TSan.
///
//===----------------------------------------------------------------------===//

#include "checkers/Checker.h"
#include "checkers/SpecialCheckers.h"
#include "frontend/Parser.h"
#include "ir/CallGraph.h"
#include "support/Statistics.h"
#include "svfa/Demand.h"
#include "svfa/GlobalSVFA.h"
#include "svfa/ReachOracle.h"
#include "tools/PinpointTool.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define PINPOINT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PINPOINT_TSAN 1
#endif
#endif

using namespace pinpoint;

namespace {

//===----------------------------------------------------------------------===
// Harness
//===----------------------------------------------------------------------===

class TempDir {
public:
  explicit TempDir(const std::string &Tag) {
    Path = "demand_" + Tag + "_" +
           std::to_string(Counter.fetch_add(1, std::memory_order_relaxed));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string file(const std::string &Name) const {
    return (std::filesystem::path(Path) / Name).string();
  }

private:
  static inline std::atomic<uint64_t> Counter{0};
  std::string Path;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// A subject with one source region per checker plus a disconnected chain
/// of filler functions no checker can ever need: the fillers are pointer
/// code with no sources, no callers into the source regions and no callees
/// from them, so the relevance pre-pass must skip all of them while every
/// report stays identical.
///
/// Every function that is *irrelevant* to some single-checker run is
/// branch-free: `linear-pruned` counts the filter's pruning work wherever
/// it happens — including summary construction inside functions another
/// checker's run never needs — so a function with an infeasible flow would
/// (correctly) shift that one counter between modes. Branch-free bodies
/// have nothing to prune, keeping even the work-reflecting [checker]
/// fields byte-identical. (uaf_df keeps its branches: it contributes no
/// pruning, and the temporal checkers need the guards.)
std::string demandSubject() {
  std::string S;
  // use-after-free + double-free sources (also exercises TemporalOrder).
  S += "int uaf_df(int *p, int c) {\n"
       "  if (c > 0) { free(p); }\n"
       "  if (c > 1) { free(p); }\n"
       "  return *p;\n"
       "}\n";
  // Taint sources/sinks for path-traversal and data-transmission.
  S += "int taints(int c) {\n"
       "  int v = read_input();\n"
       "  int k = load_key();\n"
       "  open(v);\n"
       "  send(k);\n"
       "  return v + k;\n"
       "}\n";
  // Null-deref source (null constant) and leak source (malloc).
  S += "int nulls(int c) {\n"
       "  int *z = 0;\n"
       "  int w = *z;\n"
       "  int *m = malloc(4);\n"
       "  return c + w;\n"
       "}\n";
  // Disconnected fillers: a call chain rooted at fillRoot, never calling
  // into (or called from) the source functions above.
  for (int I = 0; I < 6; ++I) {
    std::string N = std::to_string(I);
    std::string Callee =
        I == 0 ? std::string() : ("  int t = fill" + std::to_string(I - 1) +
                                  "(p);\n");
    S += "int fill" + N + "(int *p) {\n" + Callee +
         "  int *q = p;\n"
         "  return *q;\n"
         "}\n";
  }
  S += "int fillRoot(int *a) {\n"
       "  int r = fill5(a);\n"
       "  return r;\n"
       "}\n";
  return S;
}

#if !defined(_WIN32) && !defined(PINPOINT_TSAN)

/// Forks a child running the production CLI entry point (stdout to
/// \p OutFile, stderr to /dev/null); returns its exit code.
int runTool(const std::vector<std::string> &Args, const std::string &OutFile) {
  pid_t Pid = fork();
  if (Pid == 0) {
    if (!std::freopen(OutFile.c_str(), "w", stdout))
      std::exit(90);
    if (!std::freopen("/dev/null", "w", stderr))
      std::exit(91);
    std::vector<std::string> Store = Args;
    std::vector<char *> Argv;
    static char Name[] = "pinpoint";
    Argv.push_back(Name);
    for (std::string &A : Store)
      Argv.push_back(A.data());
    std::exit(
        tools::pinpointToolMain(static_cast<int>(Argv.size()), Argv.data()));
  }
  int Status = 0;
  if (waitpid(Pid, &Status, 0) != Pid)
    return -1000;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1001;
}

/// Strips the stats lines that reflect work performed rather than findings
/// — the demand determinism contract exempts exactly these (they change
/// when functions are skipped).
std::string filterVolatile(const std::string &Out) {
  static const char *const Volatile[] = {"[pipeline]",   "[phase]",
                                         "[exprs]",      "[cache]",
                                         "[lifecycle]",  "[demand]",
                                         "[sched]"};
  std::string Keep;
  std::stringstream SS(Out);
  std::string Line;
  while (std::getline(SS, Line)) {
    bool Drop = false;
    for (const char *P : Volatile)
      if (Line.rfind(P, 0) == 0)
        Drop = true;
    if (!Drop)
      Keep += Line + "\n";
  }
  return Keep;
}

/// Extracts `Key=<number>` from \p Out (first occurrence); -1 if absent.
long long statValue(const std::string &Out, const std::string &Key) {
  size_t Pos = Out.find(Key + "=");
  if (Pos == std::string::npos)
    return -1;
  return std::atoll(Out.c_str() + Pos + Key.size() + 1);
}

//===----------------------------------------------------------------------===
// CLI differential: --demand=on ≡ --demand=off
//===----------------------------------------------------------------------===

TEST(DemandCLI, PerCheckerDifferentialAcrossJobs) {
  TempDir T("diff");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << demandSubject();

  const char *const Checkers[] = {"uaf",        "df",         "taint-path",
                                  "taint-data", "null-deref", "leak"};
  for (const char *Checker : Checkers) {
    for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
      const std::string On = T.file("on.out"), Off = T.file("off.out");
      ASSERT_EQ(runTool({std::string("--checker=") + Checker, Jobs, "--stats",
                         "--degradation-log", "--demand=on", Subject},
                        On),
                0)
          << Checker;
      ASSERT_EQ(runTool({std::string("--checker=") + Checker, Jobs, "--stats",
                         "--degradation-log", "--demand=off", Subject},
                        Off),
                0)
          << Checker;
      EXPECT_EQ(filterVolatile(readFile(On)), filterVolatile(readFile(Off)))
          << "checker=" << Checker << " " << Jobs;
    }
  }
}

TEST(DemandCLI, AllCheckersTogetherDifferential) {
  TempDir T("union");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << demandSubject();

  const std::string All = "--checker=uaf,df,taint-path,taint-data,"
                          "null-deref,leak";
  for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
    const std::string On = T.file("on.out"), Off = T.file("off.out");
    ASSERT_EQ(runTool({All, Jobs, "--stats", "--degradation-log",
                       "--demand=on", Subject},
                      On),
              0);
    ASSERT_EQ(runTool({All, Jobs, "--stats", "--degradation-log",
                       "--demand=off", Subject},
                      Off),
              0);
    EXPECT_EQ(filterVolatile(readFile(On)), filterVolatile(readFile(Off)))
        << Jobs;
  }
}

TEST(DemandCLI, SkipsTheDisconnectedFillers) {
  TempDir T("skip");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << demandSubject();

  const std::string Out = T.file("run.out");
  ASSERT_EQ(runTool({"--checker=uaf", "--stats", Subject}, Out), 0);
  const std::string Text = readFile(Out);
  // uaf's only source function is uaf_df; it has no callers and no
  // module-level callees, so everything else (taints, nulls and the seven
  // fill* functions) is skipped.
  EXPECT_EQ(statValue(Text, "relevant-fns"), 1) << Text;
  EXPECT_EQ(statValue(Text, "skipped-fns"), 9) << Text;
  EXPECT_EQ(statValue(Text, "source-fns"), 1) << Text;
  EXPECT_GT(statValue(Text, "csr-bytes"), 0) << Text;
}

/// The reports, their `via` steps and the `[degradation]` log: every output
/// line but the `[...]` stats lines.
std::string findings(const std::string &Out) {
  std::string Keep;
  std::stringstream SS(Out);
  std::string Line;
  while (std::getline(SS, Line))
    if (Line.rfind("[", 0) != 0 || Line.rfind("[degradation]", 0) == 0)
      Keep += Line + "\n";
  return Keep;
}

/// The verdict-bearing fields of every `[checker]` stats line, one
/// "[name] key=value" entry each, in output order.
std::vector<std::string> verdictFields(const std::string &Out) {
  static const char *const Keys[] = {"candidates", "sat",
                                     "unsat",      "unknown",
                                     "smt-queries", "isolated-failures"};
  std::vector<std::string> Fields;
  std::stringstream SS(Out);
  std::string Line;
  while (std::getline(SS, Line)) {
    if (Line.find(" candidates=") == std::string::npos)
      continue;
    std::stringstream Toks(Line);
    std::string Tag, Tok;
    Toks >> Tag;
    while (Toks >> Tok)
      for (const char *K : Keys)
        if (Tok.rfind(std::string(K) + "=", 0) == 0)
          Fields.push_back(Tag + " " + Tok);
  }
  return Fields;
}

TEST(DemandCLI, VerdictFieldsMatchOnGeneratedSubject) {
  // A generated subject has pointer noise and infeasible flows in
  // functions outside every checker's slice, so `events` and
  // `linear-pruned` legitimately differ between modes there (on this
  // one, [uaf] shows events 17 vs 22 and linear-pruned 29 vs 434). The
  // findings and the verdict-bearing [checker] fields may not differ.
  TempDir T("generated");
  workload::WorkloadConfig Cfg;
  Cfg.Seed = 1;
  Cfg.TargetLoC = 4000;
  Cfg.FeasibleUAF = 5;
  Cfg.InfeasibleUAF = 5;
  Cfg.EnvGuardedUAF = 2;
  Cfg.FeasibleDF = 2;
  Cfg.FeasibleTaint = 3;
  Cfg.InfeasibleTaint = 3;
  Cfg.AliasNoise = 20;
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << workload::generate(Cfg).Source;

  const std::string Checkers =
      "--checker=uaf,df,taint-path,taint-data,null-deref";
  const std::string On = T.file("on.out"), Off = T.file("off.out");
  ASSERT_EQ(runTool({Checkers, "--stats", "--degradation-log", "--demand=on",
                     Subject},
                    On),
            0);
  ASSERT_EQ(runTool({Checkers, "--stats", "--degradation-log",
                     "--demand=off", Subject},
                    Off),
            0);
  const std::string OnText = readFile(On), OffText = readFile(Off);
  ASSERT_GT(statValue(OnText, "skipped-fns"), 0) << OnText;
  EXPECT_EQ(findings(OnText), findings(OffText));
  const std::vector<std::string> OnFields = verdictFields(OnText);
  EXPECT_EQ(OnFields.size(), 5u * 6u) << OnText;
  EXPECT_EQ(OnFields, verdictFields(OffText));
  EXPECT_GT(statValue(OnText, "candidates"), 0) << OnText;
}

//===----------------------------------------------------------------------===
// Cache interplay
//===----------------------------------------------------------------------===

TEST(DemandCLI, ColdWarmCacheDifferential) {
  TempDir T("cache");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << demandSubject();
  const std::string DirOn = T.file("cache_on"), DirOff = T.file("cache_off");

  // Cold and warm runs in each mode; all four filtered outputs must agree.
  std::vector<std::string> Filtered;
  struct RunSpec {
    const char *Mode;
    const std::string *Dir;
    const char *Tag;
  } RunSpecs[] = {{"--demand=on", &DirOn, "on_cold"},
                  {"--demand=on", &DirOn, "on_warm"},
                  {"--demand=off", &DirOff, "off_cold"},
                  {"--demand=off", &DirOff, "off_warm"}};
  for (const RunSpec &R : RunSpecs) {
    const std::string Out = T.file(std::string(R.Tag) + ".out");
    ASSERT_EQ(runTool({"--checker=uaf,df", "--stats", "--degradation-log",
                       R.Mode, "--cache-dir=" + *R.Dir, Subject},
                      Out),
              0)
        << R.Tag;
    Filtered.push_back(filterVolatile(readFile(Out)));
  }
  EXPECT_EQ(Filtered[0], Filtered[1]);
  EXPECT_EQ(Filtered[0], Filtered[2]);
  EXPECT_EQ(Filtered[0], Filtered[3]);

  // Warm demand=on probed only relevant functions: every probe hits, and
  // the store count of the cold run equals the relevant-function count
  // (skipped functions were never written).
  const std::string OnCold = readFile(T.file("on_cold.out"));
  const std::string OnWarm = readFile(T.file("on_warm.out"));
  EXPECT_EQ(statValue(OnCold, "stored"), statValue(OnCold, "relevant-fns"))
      << OnCold;
  // " hits" (with the space) targets the [cache] line's own field.
  EXPECT_EQ(statValue(OnWarm, " hits"), statValue(OnWarm, "relevant-fns"))
      << OnWarm;
  EXPECT_EQ(statValue(OnWarm, "misses"), 0) << OnWarm;
  // The exhaustive run stored strictly more (the fillers too).
  const std::string OffCold = readFile(T.file("off_cold.out"));
  EXPECT_GT(statValue(OffCold, "stored"), statValue(OnCold, "stored"));
}

TEST(DemandCLI, CacheArtifactsAreModeIndependent) {
  TempDir T("xmode");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << demandSubject();
  const std::string Dir = T.file("cache");

  // Cold exhaustive run populates; a warm demand run consumes the same
  // artifacts (the cache key has no demand bit) and still matches.
  const std::string Cold = T.file("cold.out"), Warm = T.file("warm.out");
  ASSERT_EQ(runTool({"--checker=uaf", "--stats", "--demand=off",
                     "--cache-dir=" + Dir, Subject},
                    Cold),
            0);
  ASSERT_EQ(runTool({"--checker=uaf", "--stats", "--demand=on",
                     "--cache-dir=" + Dir, Subject},
                    Warm),
            0);
  EXPECT_EQ(filterVolatile(readFile(Cold)), filterVolatile(readFile(Warm)));
  const std::string WarmText = readFile(Warm);
  EXPECT_EQ(statValue(WarmText, " hits"), statValue(WarmText, "relevant-fns"))
      << WarmText;
  EXPECT_EQ(statValue(WarmText, "misses"), 0) << WarmText;
}

#endif // !_WIN32 && !PINPOINT_TSAN

//===----------------------------------------------------------------------===
// Relevance computation
//===----------------------------------------------------------------------===

class RelevanceTest : public ::testing::Test {
protected:
  void parse(const std::string &Source) {
    std::vector<frontend::Diag> Diags;
    ASSERT_TRUE(frontend::parseModule(Source, M, Diags))
        << (Diags.empty() ? "" : Diags[0].str());
    CG = std::make_unique<ir::CallGraph>(M);
  }
  const ir::Function *fn(const std::string &Name) {
    for (ir::Function *F : M.functions())
      if (F->name() == Name)
        return F;
    return nullptr;
  }
  svfa::RelevanceSet uafRelevance() {
    svfa::DemandSpec DS;
    DS.Checkers.push_back(checkers::useAfterFreeChecker());
    return svfa::computeRelevance(*CG, M, DS);
  }

  ir::Module M;
  std::unique_ptr<ir::CallGraph> CG;
};

TEST_F(RelevanceTest, CallerAndCalleeClosure) {
  parse("int leaf(int *p) { return *p; }\n"
        "int src(int *p) { free(p); int x = leaf(p); return x; }\n"
        "int mid(int *p) { int r = src(p); return r; }\n"
        "int top(int *p) { int r = mid(p); return r; }\n"
        "int helper(int *p) { return *p; }\n"
        "int stranger(int *p) { int r = helper(p); return r; }\n");
  svfa::RelevanceSet R = uafRelevance();
  EXPECT_FALSE(R.All);
  EXPECT_EQ(R.SourceFns, 1u);
  // Seed + transitive callers + their transitive callees.
  EXPECT_TRUE(R.relevant(fn("src")));
  EXPECT_TRUE(R.relevant(fn("mid")));
  EXPECT_TRUE(R.relevant(fn("top")));
  EXPECT_TRUE(R.relevant(fn("leaf")));
  // The disconnected pair is out.
  EXPECT_FALSE(R.relevant(fn("helper")));
  EXPECT_FALSE(R.relevant(fn("stranger")));
}

TEST_F(RelevanceTest, CalleeClosureReachesSiblingsOfTheSource) {
  // A caller pulled in by the caller closure drags in its *other* callees:
  // they define the interfaces the caller's analysis depends on.
  parse("int src(int *p) { free(p); return 0; }\n"
        "int sibling(int *p) { return *p; }\n"
        "int caller(int *p) { int a = src(p); int b = sibling(p); "
        "return a + b; }\n");
  svfa::RelevanceSet R = uafRelevance();
  EXPECT_TRUE(R.relevant(fn("caller")));
  EXPECT_TRUE(R.relevant(fn("sibling")));
}

TEST_F(RelevanceTest, RelevanceIsSCCUniform) {
  // Mutually recursive functions: the source sits in one member, the deref
  // (the uaf sink seed) in the other — each cone marks the whole SCC.
  parse("int ping(int *p, int c) { if (c > 0) { int r = pong(p, c); "
        "return r; } free(p); return 0; }\n"
        "int pong(int *p, int c) { int v = *p; int r = ping(p, c); "
        "return r + v; }\n"
        "int lonely(int *p) { return *p; }\n");
  svfa::RelevanceSet R = uafRelevance();
  EXPECT_TRUE(R.relevant(fn("ping")));
  EXPECT_TRUE(R.relevant(fn("pong")));
  EXPECT_FALSE(R.relevant(fn("lonely")));
}

TEST_F(RelevanceTest, LeakSourcesSeedMallocSites) {
  parse("int *maker(int n) { int *m = malloc(n); return m; }\n"
        "int other(int *p) { return *p; }\n");
  svfa::DemandSpec DS;
  DS.LeakSources = true;
  svfa::RelevanceSet R = svfa::computeRelevance(*CG, M, DS);
  EXPECT_TRUE(R.relevant(fn("maker")));
  EXPECT_FALSE(R.relevant(fn("other")));
  EXPECT_EQ(R.SourceFns, 1u);
}

TEST_F(RelevanceTest, EmptySpecKeepsNothing) {
  parse("int f(int *p) { free(p); return *p; }\n");
  svfa::DemandSpec DS; // No checkers, no leak: nothing is a source.
  svfa::RelevanceSet R = svfa::computeRelevance(*CG, M, DS);
  EXPECT_FALSE(R.All);
  EXPECT_FALSE(R.relevant(fn("f")));
  EXPECT_EQ(R.SourceFns, 0u);
}

TEST_F(RelevanceTest, DefaultRelevanceSetKeepsEverything) {
  parse("int f(int *p) { return *p; }\n");
  svfa::RelevanceSet R; // All = true: demand off.
  EXPECT_TRUE(R.relevant(fn("f")));
}

//===----------------------------------------------------------------------===
// Library-level report equivalence
//===----------------------------------------------------------------------===

TEST(DemandLibrary, ReportsMatchExhaustive) {
  const std::string Source = demandSubject();
  auto runMode = [&](bool Demand, const checkers::CheckerSpec &Spec) {
    ir::Module M;
    std::vector<frontend::Diag> Diags;
    if (!frontend::parseModule(Source, M, Diags))
      ADD_FAILURE() << "parse failed";
    smt::ExprContext Ctx;
    svfa::GlobalOptions GO;
    GO.Demand = Demand;
    auto Reports = svfa::checkModule(M, Ctx, Spec, GO);
    std::vector<std::string> Keys;
    for (const auto &R : Reports) {
      std::string K = R.Checker + " " + R.SourceFn + ":" + R.Source.str() +
                      "->" + R.SinkFn + ":" + R.Sink.str();
      for (const auto &Step : R.Path)
        K += "|" + Step;
      Keys.push_back(K);
    }
    return Keys;
  };
  for (const auto &Spec :
       {checkers::useAfterFreeChecker(), checkers::doubleFreeChecker(),
        checkers::pathTraversalChecker(), checkers::nullDerefChecker()}) {
    auto On = runMode(true, Spec), Off = runMode(false, Spec);
    EXPECT_EQ(On, Off) << Spec.Name;
    EXPECT_FALSE(Off.empty()) << Spec.Name << ": subject has no findings";
  }
}

//===----------------------------------------------------------------------===
// ReachOracle: exactness and laziness
//===----------------------------------------------------------------------===

namespace {

/// Brute-force reference: control reaches B strictly after A — same block
/// compares statement order, distinct blocks need a >= 1 edge CFG path.
bool bruteReaches(const ir::Function &F, const ir::Stmt *A,
                  const ir::Stmt *B) {
  if (A == B)
    return false;
  if (A->parent() == B->parent())
    return F.stmtOrder(A) < F.stmtOrder(B);
  std::vector<const ir::BasicBlock *> Work(A->parent()->succs().begin(),
                                           A->parent()->succs().end());
  std::vector<const ir::BasicBlock *> Seen;
  while (!Work.empty()) {
    const ir::BasicBlock *Cur = Work.back();
    Work.pop_back();
    if (std::find(Seen.begin(), Seen.end(), Cur) != Seen.end())
      continue;
    Seen.push_back(Cur);
    if (Cur == B->parent())
      return true;
    for (const ir::BasicBlock *S : Cur->succs())
      Work.push_back(S);
  }
  return false;
}

} // namespace

TEST(ReachOracleTest, MatchesBruteForceOnBranchyCFG) {
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(
      "int branchy(int *p, int a, int b) {\n"
      "  int x = 0;\n"
      "  if (a > 0) {\n"
      "    if (b > 0) { free(p); } else { x = 1; }\n"
      "    x = x + 1;\n"
      "  } else {\n"
      "    if (b > 1) { x = 2; } else { x = 3; }\n"
      "  }\n"
      "  int y = *p;\n"
      "  return x + y;\n"
      "}\n",
      M, Diags));
  ir::Function &F = *M.functions().front();
  F.renumberStmts(); // stmtOrder needs numbering (the pipeline's SSA
                     // stage does this for real runs).
  svfa::ReachOracle RO(F);

  std::vector<const ir::Stmt *> Stmts;
  for (const ir::BasicBlock *B : F.blocks())
    for (const ir::Stmt *S : B->stmts())
      Stmts.push_back(S);
  ASSERT_GT(Stmts.size(), 10u);
  for (const ir::Stmt *A : Stmts)
    for (const ir::Stmt *B : Stmts)
      EXPECT_EQ(RO.reaches(A, B), bruteReaches(F, A, B))
          << "A=" << F.stmtOrder(A) << " B=" << F.stmtOrder(B);
}

TEST(ReachOracleTest, RowsMaterialiseLazily) {
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(
      "int few(int a) {\n"
      "  int x = 0;\n"
      "  if (a > 0) { x = 1; }\n"
      "  if (a > 1) { x = 2; }\n"
      "  if (a > 2) { x = 3; }\n"
      "  return x;\n"
      "}\n",
      M, Diags));
  ir::Function &F = *M.functions().front();
  F.renumberStmts();
  Counters &C = Counters::get();

  const int64_t Before = C.value("svfa.lazy-reach-rows");
  svfa::ReachOracle RO(F);
  // Construction alone builds nothing.
  EXPECT_EQ(C.value("svfa.lazy-reach-rows"), Before);

  // A same-block query and an O(1)-pruned backward query build nothing
  // either: find two stmts in the same block, and an entry->... forward
  // pair answered by the condensation interval check.
  const ir::BasicBlock *Entry = F.blocks().front();
  ASSERT_GE(Entry->stmts().size(), 2u);
  RO.reaches(Entry->stmts()[0], Entry->stmts()[1]);
  const ir::BasicBlock *Last = F.blocks().back();
  RO.reaches(Last->stmts().front(), Entry->stmts().front());
  EXPECT_EQ(C.value("svfa.lazy-reach-rows"), Before);

  // A genuine cross-block forward query from the entry materialises
  // exactly one row; repeating it (and querying other targets from the
  // same source block) adds none.
  EXPECT_TRUE(RO.reaches(Entry->stmts().front(), Last->stmts().front()));
  EXPECT_EQ(C.value("svfa.lazy-reach-rows"), Before + 1);
  RO.reaches(Entry->stmts().front(), Last->stmts().front());
  EXPECT_EQ(C.value("svfa.lazy-reach-rows"), Before + 1);
}

TEST(ReachOracleTest, OrderingFreeSubjectBuildsNoOracles) {
  // Construction is lazy: the Tarjan pass is deferred to the first
  // cross-block reaches() query, so a checker that never consults temporal
  // order (TemporalOrder = false short-circuits the query) builds zero
  // oracles no matter how many events it processes.
  Counters &C = Counters::get();
  const std::string Source = demandSubject();

  auto runSpec = [&](const checkers::CheckerSpec &Spec) {
    ir::Module M;
    std::vector<frontend::Diag> Diags;
    if (!frontend::parseModule(Source, M, Diags))
      ADD_FAILURE() << "parse failed";
    smt::ExprContext Ctx;
    return svfa::checkModule(M, Ctx, Spec, svfa::GlobalOptions());
  };

  const int64_t Before = C.value("svfa.reach-oracles-built");
  auto Taint = runSpec(checkers::pathTraversalChecker());
  EXPECT_FALSE(Taint.empty()) << "ordering-free subject has no findings";
  EXPECT_EQ(C.value("svfa.reach-oracles-built"), Before)
      << "ordering-free checker paid for a reach oracle";

  // The same subject under a temporal checker whose source and sink sit in
  // different blocks does build one — the counter moves exactly when
  // ordering is consulted across blocks.
  auto Uaf = runSpec(checkers::useAfterFreeChecker());
  EXPECT_FALSE(Uaf.empty());
  EXPECT_GT(C.value("svfa.reach-oracles-built"), Before);
}

} // namespace
