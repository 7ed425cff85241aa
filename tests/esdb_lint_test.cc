// Unit tests for tools/lint: each invariant is exercised twice — on
// inline snippets (precise line/message assertions) and on the
// on-disk fixture trees under tools/lint/testdata (the same trees the
// ctest WILL_FAIL entries run the real binary against). A final
// self-check asserts src/ is lint-clean, so the invariant inventory
// in DESIGN.md §11 is enforced by the tier-1 suite.

#include "linter.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace esdb_lint {
namespace {

namespace fs = std::filesystem;

std::vector<SourceFile> LoadTree(const fs::path& root) {
  std::vector<SourceFile> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(
        {fs::relative(entry.path(), root).generic_string(), buf.str()});
  }
  return files;
}

bool HasCheck(const std::vector<Finding>& findings, const std::string& check) {
  for (const Finding& f : findings) {
    if (f.check == check) return true;
  }
  return false;
}

// --- StripComments ----------------------------------------------------

TEST(StripComments, RemovesCommentsKeepsLineStructure) {
  const std::string in =
      "int a; // trailing\n"
      "/* block\n"
      "   spanning */ int b;\n";
  const std::string out = StripComments(in, /*strip_strings=*/false);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  EXPECT_EQ(out.find("trailing"), std::string::npos);
  EXPECT_EQ(out.find("spanning"), std::string::npos);
}

TEST(StripComments, CommentMarkersInsideStringsAreNotComments) {
  const std::string in = "const char* s = \"// not a comment\"; int c;\n";
  const std::string kept = StripComments(in, /*strip_strings=*/false);
  EXPECT_NE(kept.find("// not a comment"), std::string::npos);
  EXPECT_NE(kept.find("int c;"), std::string::npos);
  const std::string blanked = StripComments(in, /*strip_strings=*/true);
  EXPECT_EQ(blanked.find("not a comment"), std::string::npos);
  EXPECT_NE(blanked.find("int c;"), std::string::npos);
}

TEST(StripComments, StringsInsideCommentsStayStripped) {
  const std::string in = "// \"quoted\" in comment\nint d;\n";
  const std::string out = StripComments(in, /*strip_strings=*/false);
  EXPECT_EQ(out.find("quoted"), std::string::npos);
  EXPECT_NE(out.find("int d;"), std::string::npos);
}

// --- layer-dag --------------------------------------------------------

TEST(LayerDag, UpwardIncludeIsAnError) {
  const std::vector<SourceFile> files = {
      {"storage/store.h", "#include \"query/executor.h\"\n"},
  };
  const std::vector<Finding> findings = CheckLayerDag(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "layer-dag");
  EXPECT_EQ(findings[0].file, "storage/store.h");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("upward include"), std::string::npos);
}

TEST(LayerDag, DownwardSameLayerAndSystemIncludesAreFine) {
  const std::vector<SourceFile> files = {
      {"query/executor.h",
       "#include <vector>\n"
       "#include \"common/status.h\"\n"
       "#include \"storage/segment.h\"\n"
       "#include \"routing/router.h\"\n"},
  };
  EXPECT_TRUE(CheckLayerDag(files).empty());
}

TEST(LayerDag, CommentedIncludeDoesNotCount) {
  const std::vector<SourceFile> files = {
      {"storage/store.h", "// #include \"query/executor.h\"\n"},
  };
  EXPECT_TRUE(CheckLayerDag(files).empty());
}

TEST(LayerDag, UnknownDirectoryIsItselfAFinding) {
  const std::vector<SourceFile> files = {{"mystery/x.h", "int a;\n"}};
  const std::vector<Finding> findings = CheckLayerDag(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("no layer assignment"),
            std::string::npos);
}

// --- raw-primitive ----------------------------------------------------

TEST(RawPrimitive, BansStdMutexOutsideWrapper) {
  const std::vector<SourceFile> files = {
      {"storage/cache.h",
       "#include <mutex>\n"
       "std::mutex mu;\n"},
  };
  const std::vector<Finding> findings = CheckRawPrimitives(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_NE(findings[1].message.find("esdb::Mutex"), std::string::npos);
}

TEST(RawPrimitive, WrapperFilesAreAllowed) {
  const std::vector<SourceFile> files = {
      {"common/mutex.h", "#include <mutex>\nstd::mutex mu;\n"},
      {"common/thread_pool.h", "#include <thread>\nstd::thread t;\n"},
  };
  EXPECT_TRUE(CheckRawPrimitives(files).empty());
}

TEST(RawPrimitive, ThreadPoolMayNotUseMutexAllowance) {
  const std::vector<SourceFile> files = {
      {"common/thread_pool.h", "std::mutex mu;\n"},
  };
  EXPECT_EQ(CheckRawPrimitives(files).size(), 1u);
}

TEST(RawPrimitive, TokenBoundaryNoFalsePositiveOnMention) {
  // The banned identifier inside a comment or string is not a use.
  const std::vector<SourceFile> files = {
      {"storage/a.h", "// std::mutex is banned here\n"},
      {"storage/b.h", "const char* kMsg = \"std::thread\";\n"},
  };
  EXPECT_TRUE(CheckRawPrimitives(files).empty());
}

// --- lock-order -------------------------------------------------------

TEST(LockOrder, AcyclicAnnotationsPass) {
  const std::vector<SourceFile> files = {
      {"storage/s.h",
       "class S {\n"
       "  Mutex write_mu_;\n"
       "  Mutex buffer_mu_ ACQUIRED_AFTER(write_mu_);\n"
       "  Mutex epoch_mu_ ACQUIRED_AFTER(write_mu_);\n"
       "};\n"},
  };
  EXPECT_TRUE(CheckLockOrder(files).empty());
}

TEST(LockOrder, TwoLockCycleIsReported) {
  const std::vector<SourceFile> files = {
      {"storage/s.h",
       "class S {\n"
       "  Mutex a_mu_ ACQUIRED_AFTER(b_mu_);\n"
       "  Mutex b_mu_ ACQUIRED_AFTER(a_mu_);\n"
       "};\n"},
  };
  const std::vector<Finding> findings = CheckLockOrder(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "lock-order");
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("S::a_mu_"), std::string::npos);
}

TEST(LockOrder, AcquiredBeforeEdgesJoinTheSameGraph) {
  // a BEFORE b  and  a AFTER b  together form a cycle.
  const std::vector<SourceFile> files = {
      {"storage/s.h",
       "class S {\n"
       "  Mutex a_mu_ ACQUIRED_BEFORE(b_mu_) ACQUIRED_AFTER(b_mu_);\n"
       "};\n"},
  };
  EXPECT_EQ(CheckLockOrder(files).size(), 1u);
}

TEST(LockOrder, SameMemberNamesInDifferentClassesAreDistinctLocks) {
  const std::vector<SourceFile> files = {
      {"storage/s.h",
       "class A {\n"
       "  Mutex a_mu_ ACQUIRED_AFTER(b_mu_);\n"
       "};\n"
       "class B {\n"
       "  Mutex b_mu_ ACQUIRED_AFTER(a_mu_);\n"
       "};\n"},
  };
  // A::b_mu_ -> A::a_mu_ and B::a_mu_ -> B::b_mu_: no cycle.
  EXPECT_TRUE(CheckLockOrder(files).empty());
}

// --- failpoint-registry ----------------------------------------------

const char kRegistryHeader[] =
    "namespace failsite {\n"
    "inline constexpr const char* kAlpha = \"demo/alpha\";\n"
    "inline constexpr const char* kBeta = \"demo/beta\";\n"
    "}  // namespace failsite\n";

TEST(FailPointRegistry, BalancedRegistryPasses) {
  const std::vector<SourceFile> files = {
      {"common/failpoint.h", kRegistryHeader},
      {"common/failpoint.cc",
       "const char** AllSites() {\n"
       "  static const char* s[] = {failsite::kAlpha, failsite::kBeta};\n"
       "  return s;\n"
       "}\n"},
      {"storage/store.cc",
       "void F() {\n"
       "  ESDB_FAIL_POINT(failsite::kAlpha);\n"
       "  ESDB_FAIL_POINT(failsite::kBeta);\n"
       "}\n"},
  };
  EXPECT_TRUE(CheckFailPointRegistry(files).empty());
}

TEST(FailPointRegistry, UnregisteredUseIsReported) {
  const std::vector<SourceFile> files = {
      {"common/failpoint.h", kRegistryHeader},
      {"common/failpoint.cc",
       "const char** AllSites() {\n"
       "  static const char* s[] = {failsite::kAlpha};\n"
       "  return s;\n"
       "}\n"},
      {"storage/store.cc",
       "void F() {\n"
       "  ESDB_FAIL_POINT(failsite::kAlpha);\n"
       "  ESDB_FAIL_POINT(failsite::kBeta);\n"
       "}\n"},
  };
  const std::vector<Finding> findings = CheckFailPointRegistry(files);
  // Two findings: the use of kBeta is unregistered, and the declared
  // constant kBeta is missing from AllSites().
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(HasCheck(findings, "failpoint-registry"));
}

TEST(FailPointRegistry, UndeclaredSiteIsReported) {
  const std::vector<SourceFile> files = {
      {"common/failpoint.h", kRegistryHeader},
      {"common/failpoint.cc",
       "const char** AllSites() {\n"
       "  static const char* s[] = {failsite::kAlpha, failsite::kBeta};\n"
       "  return s;\n"
       "}\n"},
      {"storage/store.cc",
       "void F() {\n"
       "  ESDB_FAIL_POINT(failsite::kAlpha);\n"
       "  ESDB_FAIL_POINT(failsite::kBeta);\n"
       "  ESDB_FAIL_POINT(failsite::kGamma);\n"
       "}\n"},
  };
  const std::vector<Finding> findings = CheckFailPointRegistry(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "storage/store.cc");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("not declared"), std::string::npos);
}

TEST(FailPointRegistry, AdHocSiteNameIsReported) {
  const std::vector<SourceFile> files = {
      {"common/failpoint.h", kRegistryHeader},
      {"common/failpoint.cc",
       "const char** AllSites() {\n"
       "  static const char* s[] = {failsite::kAlpha, failsite::kBeta};\n"
       "  return s;\n"
       "}\n"},
      {"storage/store.cc",
       "void F() {\n"
       "  ESDB_FAIL_POINT(failsite::kAlpha);\n"
       "  ESDB_FAIL_POINT(failsite::kBeta);\n"
       "  ESDB_FAIL_POINT(\"storage/adhoc\");\n"
       "}\n"},
  };
  const std::vector<Finding> findings = CheckFailPointRegistry(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("not a failsite:: constant"),
            std::string::npos);
}

TEST(FailPointRegistry, DeadRegistryEntryIsReported) {
  const std::vector<SourceFile> files = {
      {"common/failpoint.h", kRegistryHeader},
      {"common/failpoint.cc",
       "const char** AllSites() {\n"
       "  static const char* s[] = {failsite::kAlpha, failsite::kBeta};\n"
       "  return s;\n"
       "}\n"},
      {"storage/store.cc",
       "void F() { ESDB_FAIL_POINT(failsite::kAlpha); }\n"},
  };
  const std::vector<Finding> findings = CheckFailPointRegistry(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("no ESDB_FAIL_POINT site"),
            std::string::npos);
}

// --- guarded-member ---------------------------------------------------

const char kGuardedClassPrefix[] =
    "class Store {\n"
    " private:\n"
    "  Mutex mu_;\n";

TEST(GuardedMember, UnannotatedMemberOfMutexClassIsReported) {
  const std::vector<SourceFile> files = {
      {"storage/s.h",
       std::string(kGuardedClassPrefix) + "  int rows_ = 0;\n};\n"},
  };
  const std::vector<Finding> findings = CheckGuardedMembers(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "guarded-member");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("'rows_'"), std::string::npos);
}

TEST(GuardedMember, AnnotatedConstAtomicAndWaivedMembersPass) {
  const std::vector<SourceFile> files = {
      {"storage/s.h",
       std::string(kGuardedClassPrefix) +
           "  int rows_ GUARDED_BY(mu_) = 0;\n"
           "  const int capacity_ = 4;\n"
           "  std::atomic<int> hits_{0};\n"
           "  CondVar cv_;\n"
           "  // lint:unguarded(scratch, single-threaded)\n"
           "  int scratch_ = 0;\n"
           "  int inline_waived_ = 0;  // lint:unguarded(reason)\n"
           "};\n"},
  };
  EXPECT_TRUE(CheckGuardedMembers(files).empty());
}

TEST(GuardedMember, ClassWithoutMutexIsNotAudited) {
  const std::vector<SourceFile> files = {
      {"storage/s.h", "class Plain {\n  int rows_ = 0;\n};\n"},
  };
  EXPECT_TRUE(CheckGuardedMembers(files).empty());
}

TEST(GuardedMember, MutexPointerIsNotACapability) {
  // A pointer to someone else's mutex does not make this class
  // mutex-owning.
  const std::vector<SourceFile> files = {
      {"storage/s.h", "class Ref {\n  Mutex* mu_;\n  int rows_ = 0;\n};\n"},
  };
  EXPECT_TRUE(CheckGuardedMembers(files).empty());
}

TEST(GuardedMember, NestedClassMembersAttributeToInnerClass) {
  // The outer class owns the mutex; the inner struct's members are
  // not the outer class's members.
  const std::vector<SourceFile> files = {
      {"storage/s.h",
       "class Outer {\n"
       "  Mutex mu_;\n"
       "  struct Inner {\n"
       "    int x_ = 0;\n"
       "  };\n"
       "  Inner inner_ GUARDED_BY(mu_);\n"
       "};\n"},
  };
  EXPECT_TRUE(CheckGuardedMembers(files).empty());
}

// --- plan-node-sync ---------------------------------------------------

namespace plan_sync {

const char kPlanH[] =
    "struct PlanNode {\n"
    "  enum class Kind {\n"
    "    kEmpty,\n"
    "    kFullScan,\n"
    "  };\n"
    "  Kind kind = Kind::kEmpty;\n"
    "};\n";

const char kExecutorFull[] =
    "unsigned EvalPlan(const PlanNode& plan) {\n"
    "  switch (plan.kind) {\n"
    "    case PlanNode::Kind::kEmpty: return 0;\n"
    "    case PlanNode::Kind::kFullScan: return 1;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

const char kFingerprintFull[] =
    "void FingerprintFields(const PlanNode& plan, std::string* out) {\n"
    "  if (plan.kind == PlanNode::Kind::kEmpty) out->push_back('0');\n"
    "  if (plan.kind == PlanNode::Kind::kFullScan) out->push_back('1');\n"
    "}\n";

const char kToStringFull[] =
    "std::string PlanNode::ToString(int indent) const {\n"
    "  switch (kind) {\n"
    "    case Kind::kEmpty: return \"Empty\";\n"
    "    case Kind::kFullScan: return \"FullScan\";\n"
    "  }\n"
    "  return \"\";\n"
    "}\n";

}  // namespace plan_sync

TEST(PlanNodeSync, CompleteTreeIsClean) {
  const std::vector<SourceFile> files = {
      {"query/plan.h", plan_sync::kPlanH},
      {"query/executor.cc", plan_sync::kExecutorFull},
      {"query/filter_cache.cc", plan_sync::kFingerprintFull},
      {"query/plan.cc", plan_sync::kToStringFull},
  };
  const std::vector<Finding> findings = CheckPlanNodeSync(files);
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

TEST(PlanNodeSync, MissingExecutorCaseIsReported) {
  const std::vector<SourceFile> files = {
      {"query/plan.h", plan_sync::kPlanH},
      {"query/executor.cc",
       "unsigned EvalPlan(const PlanNode& plan) {\n"
       "  if (plan.kind == PlanNode::Kind::kEmpty) return 0;\n"
       "  return 1;\n"  // kFullScan silently folded into the default
       "}\n"},
      {"query/filter_cache.cc", plan_sync::kFingerprintFull},
      {"query/plan.cc", plan_sync::kToStringFull},
  };
  const std::vector<Finding> findings = CheckPlanNodeSync(files);
  ASSERT_EQ(findings.size(), 1u) << ToText(findings);
  EXPECT_EQ(findings[0].check, "plan-node-sync");
  EXPECT_EQ(findings[0].file, "query/executor.cc");
  EXPECT_NE(findings[0].message.find("kFullScan"), std::string::npos);
  EXPECT_NE(findings[0].message.find("EvalPlan"), std::string::npos);
}

TEST(PlanNodeSync, CallSitesDoNotSatisfyTheCheck) {
  // A mention of Kind::kFullScan outside EvalPlan's body (here, in a
  // helper) must not count as the dispatch handling the kind.
  const std::vector<SourceFile> files = {
      {"query/plan.h", plan_sync::kPlanH},
      {"query/executor.cc",
       "bool IsScan(const PlanNode& p) {\n"
       "  return p.kind == PlanNode::Kind::kFullScan;\n"
       "}\n"
       "unsigned EvalPlan(const PlanNode& plan) {\n"
       "  if (plan.kind == PlanNode::Kind::kEmpty) return 0;\n"
       "  return 1;\n"
       "}\n"},
      {"query/filter_cache.cc", plan_sync::kFingerprintFull},
      {"query/plan.cc", plan_sync::kToStringFull},
  };
  const std::vector<Finding> findings = CheckPlanNodeSync(files);
  ASSERT_EQ(findings.size(), 1u) << ToText(findings);
  EXPECT_NE(findings[0].message.find("kFullScan"), std::string::npos);
}

TEST(PlanNodeSync, TreesWithoutThePlanHeaderAreSkipped) {
  const std::vector<SourceFile> files = {
      {"storage/segment.cc", "int x;\n"},
  };
  EXPECT_TRUE(CheckPlanNodeSync(files).empty());
}

// --- single-coordinator -----------------------------------------------

TEST(SingleCoordinator, CallsOutsideTheCoordinatorAreReported) {
  const std::vector<SourceFile> files = {
      {"cluster/distributed.cc",
       "Result<QueryResult> Serial(const Query& q) {\n"
       "  ESDB_ASSIGN_OR_RETURN(QueryResult r,\n"
       "                        ExecuteOnShard(q, *plan, *snap, &stats));\n"
       "  auto refs = esdb::ExecuteQueryPhase(q, *plan, *snap, 0, &s, &m);\n"
       "  return AggregateResults(q, std::move(results));\n"
       "}\n"},
  };
  const std::vector<Finding> findings = CheckSingleCoordinator(files);
  ASSERT_EQ(findings.size(), 3u) << ToText(findings);
  EXPECT_EQ(findings[0].check, "single-coordinator");
  EXPECT_EQ(findings[0].file, "cluster/distributed.cc");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("ExecuteOnShard"), std::string::npos);
  EXPECT_EQ(findings[1].line, 4);
  EXPECT_EQ(findings[2].line, 5);
}

TEST(SingleCoordinator, DeclarationsDefinitionsAndTheCoordinatorPass) {
  const std::vector<SourceFile> files = {
      {"query/executor.h",
       "[[nodiscard]] Result<QueryResult> ExecuteOnShard(\n"
       "    const Query& query, const PlanNode& plan);\n"
       "QueryResult AggregateResults(const Query& query,\n"
       "                             std::vector<QueryResult> results);\n"
       "// ExecuteFetchPhase(refs) runs after the merge.\n"},
      {"query/executor.cc",
       "Result<std::vector<Document>> ExecuteFetchPhase(\n"
       "    const Query& query) {\n"
       "  const char* s = \"ExecuteQueryPhase(\";\n"
       "  return {};\n"
       "}\n"},
      {"cluster/query_coordinator.cc",
       "Result<QueryResult> Run(const Query& q) {\n"
       "  auto r = ExecuteOnShard(q, *plan);\n"
       "  return AggregateResults(q, std::move(results));\n"
       "}\n"},
  };
  const std::vector<Finding> findings = CheckSingleCoordinator(files);
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

// --- output formats ---------------------------------------------------

TEST(Output, JsonIsWellFormedAndEscaped) {
  const std::vector<Finding> findings = {
      {"layer-dag", "storage/a.h", 3, "message with \"quotes\""},
  };
  const std::string json = ToJson(findings);
  EXPECT_NE(json.find("\"check\": \"layer-dag\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
}

TEST(Output, EmptyFindingsIsEmptyArray) {
  EXPECT_EQ(ToJson({}), "[]\n");
  EXPECT_EQ(ToText({}), "");
}

TEST(Output, TextFormatIsFileLineCheckMessage) {
  const std::vector<Finding> findings = {
      {"lock-order", "storage/s.h", 7, "cycle"},
  };
  EXPECT_EQ(ToText(findings), "storage/s.h:7: [lock-order] cycle\n");
}

// --- fixture trees (same inputs as the ctest WILL_FAIL entries) -------

TEST(Fixtures, CleanTreeHasNoFindings) {
  const std::vector<Finding> findings =
      RunLint(LoadTree(fs::path(ESDB_LINT_TESTDATA) / "clean"));
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

TEST(Fixtures, BrokenTreesProduceTheExpectedDiagnostic) {
  const struct {
    const char* tree;
    const char* check;
  } kCases[] = {
      {"broken_dag", "layer-dag"},
      {"broken_lock_cycle", "lock-order"},
      {"broken_failpoint", "failpoint-registry"},
      {"broken_mutex", "raw-primitive"},
      {"broken_unguarded", "guarded-member"},
      {"broken_plan_sync", "plan-node-sync"},
      {"broken_coordinator", "single-coordinator"},
  };
  for (const auto& c : kCases) {
    const std::vector<Finding> findings =
        RunLint(LoadTree(fs::path(ESDB_LINT_TESTDATA) / c.tree));
    EXPECT_TRUE(HasCheck(findings, c.check))
        << c.tree << " did not produce a " << c.check << " finding:\n"
        << ToText(findings);
  }
}

// --- the tree lints itself -------------------------------------------

TEST(SelfCheck, SrcIsLintClean) {
  const std::vector<Finding> findings =
      RunLint(LoadTree(fs::path(ESDB_LINT_SRC_ROOT)));
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

}  // namespace
}  // namespace esdb_lint
