// Self-tests for tools/tca_lint: every seeded fixture must flag its rule,
// every clean twin must pass, and the repository itself must lint clean
// (the check.sh gate depends on it). Fixture sources live in
// tests/lint/fixtures/ and are excluded from the repo-wide scan.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tca_lint/cfg.h"
#include "tca_lint/lexer.h"
#include "tca_lint/lint.h"

namespace {

using tca::lint::Finding;
using tca::lint::Options;
using tca::lint::run_lint;

std::string fixture(const std::string& name) {
  return std::string(TCA_LINT_FIXTURES) + "/" + name;
}

std::vector<Finding> lint_file(const std::string& name) {
  Options o;
  o.files.push_back(fixture(name));
  return run_lint(o);
}

std::size_t count_rule(const std::vector<Finding>& fs,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

testing::AssertionResult only_rules(const std::vector<Finding>& fs,
                                    const std::set<std::string>& expected) {
  for (const Finding& f : fs) {
    if (expected.find(f.rule) == expected.end()) {
      return testing::AssertionFailure()
             << "unexpected finding " << f.file << ":" << f.line << " ["
             << f.rule << "] " << f.message;
    }
  }
  return testing::AssertionSuccess();
}

TEST(LintCoroutine, TemporaryClosureFlagged) {
  const auto fs = lint_file("coro_temporary_closure_bad.cpp");
  EXPECT_EQ(count_rule(fs, "coro-temporary-closure"), 1u);
  EXPECT_TRUE(only_rules(fs, {"coro-temporary-closure"}));
}

TEST(LintCoroutine, SafeIdiomsPass) {
  EXPECT_TRUE(lint_file("coro_temporary_closure_good.cpp").empty());
}

TEST(LintCoroutine, RefParamsFlagged) {
  const auto fs = lint_file("coro_ref_param_bad.cpp");
  EXPECT_EQ(count_rule(fs, "coro-ref-param"), 2u);  // const T& and T&&
  EXPECT_TRUE(only_rules(fs, {"coro-ref-param"}));
}

TEST(LintCoroutine, ByValueParamsPass) {
  EXPECT_TRUE(lint_file("coro_ref_param_good.cpp").empty());
}

TEST(LintCoroutine, AwaitInConditionalFlagged) {
  const auto fs = lint_file("coro_await_in_conditional_bad.cpp");
  // Both arms of one conditional, one arm of a nested one.
  EXPECT_EQ(count_rule(fs, "coro-await-in-conditional"), 3u);
  EXPECT_TRUE(only_rules(fs, {"coro-await-in-conditional"}));
}

TEST(LintCoroutine, IfElsePathChoicePasses) {
  EXPECT_TRUE(lint_file("coro_await_in_conditional_good.cpp").empty());
}

TEST(LintDeterminism, WallClockFlagged) {
  const auto fs = lint_file("det_wall_clock_bad.cpp");
  EXPECT_EQ(count_rule(fs, "det-wall-clock"), 1u);
  EXPECT_TRUE(only_rules(fs, {"det-wall-clock"}));
}

TEST(LintDeterminism, SimulatedTimePasses) {
  EXPECT_TRUE(lint_file("det_wall_clock_good.cpp").empty());
}

TEST(LintDeterminism, RawRandFlagged) {
  const auto fs = lint_file("det_raw_rand_bad.cpp");
  EXPECT_EQ(count_rule(fs, "det-raw-rand"), 2u);  // mt19937 and rand
  EXPECT_TRUE(only_rules(fs, {"det-raw-rand"}));
}

TEST(LintDeterminism, SeededRngPasses) {
  EXPECT_TRUE(lint_file("det_raw_rand_good.cpp").empty());
}

TEST(LintDeterminism, UnorderedIterationFlagged) {
  const auto fs = lint_file("det_unordered_iter_bad.cpp");
  EXPECT_EQ(count_rule(fs, "det-unordered-iter"), 1u);
  EXPECT_TRUE(only_rules(fs, {"det-unordered-iter"}));
}

TEST(LintDeterminism, KeyedLookupAndOrderedIterationPass) {
  EXPECT_TRUE(lint_file("det_unordered_iter_good.cpp").empty());
}

TEST(LintDeterminism, ShardSharedStateFlagged) {
  const auto fs = lint_file("det_shard_shared_state_bad.cpp");
  // namespace-scope static, namespace-scope inline variable and
  // function-local static
  EXPECT_EQ(count_rule(fs, "det-shard-shared-state"), 3u);
  EXPECT_TRUE(only_rules(fs, {"det-shard-shared-state"}));
}

TEST(LintDeterminism, SynchronizedOrPerThreadStatePasses) {
  EXPECT_TRUE(lint_file("det_shard_shared_state_good.cpp").empty());
}

TEST(LintRegisters, MagicMmioFlagged) {
  const auto fs = lint_file("reg_magic_mmio_bad.cpp");
  EXPECT_EQ(count_rule(fs, "reg-magic-mmio"), 3u);
  EXPECT_TRUE(only_rules(fs, {"reg-magic-mmio"}));
}

TEST(LintRegisters, NamedOffsetsPass) {
  EXPECT_TRUE(lint_file("reg_magic_mmio_good.cpp").empty());
}

TEST(LintSuppression, JustifiedAllowSuppresses) {
  EXPECT_TRUE(lint_file("suppression_good.cpp").empty());
}

TEST(LintSuppression, BareAllowIsAFindingAndDoesNotSuppress) {
  const auto fs = lint_file("suppression_bad.cpp");
  EXPECT_EQ(count_rule(fs, "lint-bad-suppression"), 1u);
  EXPECT_EQ(count_rule(fs, "det-wall-clock"), 1u);
  EXPECT_TRUE(only_rules(fs, {"lint-bad-suppression", "det-wall-clock"}));
}

TEST(LintProtocol, LeakOnAbortPathFlagged) {
  const auto fs = lint_file("proto_leak_bad.cpp");
  EXPECT_EQ(count_rule(fs, "proto-leak"), 1u);
  EXPECT_TRUE(only_rules(fs, {"proto-leak"}));
}

TEST(LintProtocol, BalancedAndTransferredLifecyclesPass) {
  EXPECT_TRUE(lint_file("proto_leak_good.cpp").empty());
}

TEST(LintProtocol, DoubleReleaseFlagged) {
  const auto fs = lint_file("proto_double_release_bad.cpp");
  EXPECT_EQ(count_rule(fs, "proto-double-release"), 1u);
  EXPECT_TRUE(only_rules(fs, {"proto-double-release"}));
}

TEST(LintProtocol, ExactlyOnceReleasePasses) {
  EXPECT_TRUE(lint_file("proto_double_release_good.cpp").empty());
}

TEST(LintProtocol, AckBeforeCommitFlagged) {
  const auto fs = lint_file("proto_ack_before_commit_bad.cpp");
  EXPECT_EQ(count_rule(fs, "proto-ack-before-commit"), 1u);
  EXPECT_TRUE(only_rules(fs, {"proto-ack-before-commit"}));
}

TEST(LintProtocol, AckAfterCommitPasses) {
  EXPECT_TRUE(lint_file("proto_ack_before_commit_good.cpp").empty());
}

// Reintroduction gate for the second PR 8 chaos bug: recycling the staging
// slot on only one destination path is a statically provable leak now.
TEST(LintProtocol, ZombieStagingStaleSlotReintroductionFlagged) {
  const auto fs = lint_file("zombie_staging_stale_slot_bad.cpp");
  EXPECT_EQ(count_rule(fs, "proto-leak"), 1u);
  EXPECT_TRUE(only_rules(fs, {"proto-leak"}));
}

TEST(LintProtocol, StagingSlotRecycledOnEveryPathPasses) {
  EXPECT_TRUE(lint_file("zombie_staging_stale_slot_good.cpp").empty());
}

TEST(LintProtocol, BadAnnotationsAreLoud) {
  const auto fs = lint_file("proto_bad_annotation_bad.cpp");
  // A typoed clause name and a dangling statement annotation.
  EXPECT_EQ(count_rule(fs, "proto-bad-annotation"), 2u);
  EXPECT_TRUE(only_rules(fs, {"proto-bad-annotation"}));
}

TEST(LintProtocol, BorrowAcrossSuspendFlagged) {
  const auto fs = lint_file("coro_borrow_across_suspend_bad.cpp");
  EXPECT_EQ(count_rule(fs, "coro-borrow-across-suspend"), 1u);
  EXPECT_TRUE(only_rules(fs, {"coro-borrow-across-suspend"}));
}

TEST(LintProtocol, BorrowUsedBeforeSuspendOrRefreshedPasses) {
  EXPECT_TRUE(lint_file("coro_borrow_across_suspend_good.cpp").empty());
}

TEST(LintCatalogue, RuleIdsAreUnique) {
  const auto ids = tca::lint::rule_ids();
  const std::set<std::string> unique(ids.begin(), ids.end());
  EXPECT_EQ(ids.size(), unique.size());
  EXPECT_EQ(ids.size(), 15u);
}

// A mistyped path must fail the run, not lint nothing and pass.
TEST(LintRun, UnreadableExplicitFileIsAFinding) {
  const auto fs = lint_file("no_such_fixture.cpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "lint-unreadable-file");
}

// --- CFG builder unit tests -------------------------------------------------
//
// These exercise tools/tca_lint/cfg.{h,cpp} directly on small snippets: node
// and edge counts, loop back edges, early-return exit edges, and co_await
// suspension-edge placement (the edges the protocol rules treat specially).

using tca::lint::build_cfgs;
using tca::lint::FunctionCfg;
using tca::lint::kCfgExit;
using tca::lint::lex;

std::vector<FunctionCfg> cfgs_of(std::string_view src) {
  return build_cfgs(lex(src));
}

std::size_t suspension_edge_count(const FunctionCfg& cfg) {
  return static_cast<std::size_t>(
      std::count_if(cfg.edges.begin(), cfg.edges.end(),
                    [](const tca::lint::CfgEdge& e) { return e.suspension; }));
}

std::size_t edges_to_exit(const FunctionCfg& cfg) {
  return static_cast<std::size_t>(
      std::count_if(cfg.edges.begin(), cfg.edges.end(),
                    [](const tca::lint::CfgEdge& e) {
                      return e.to == kCfgExit;
                    }));
}

TEST(LintCfg, EarlyReturnProducesTwoExitEdges) {
  const auto cfgs = cfgs_of("int f(int x) {\n"
                            "  if (x > 0) {\n"
                            "    return 1;\n"
                            "  }\n"
                            "  return 2;\n"
                            "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  const FunctionCfg& cfg = cfgs[0];
  EXPECT_EQ(cfg.name, "f");
  EXPECT_FALSE(cfg.is_coroutine);
  // entry, exit, cond, then-return, fallthrough-return + edges between them.
  EXPECT_EQ(cfg.nodes.size(), 6u);
  EXPECT_EQ(cfg.edges.size(), 6u);
  EXPECT_EQ(suspension_edge_count(cfg), 0u);
  EXPECT_EQ(edges_to_exit(cfg), 2u);
}

TEST(LintCfg, NestedLoopsHaveBackEdges) {
  const auto cfgs = cfgs_of("void g(int n) {\n"
                            "  for (int i = 0; i < n; ++i) {\n"
                            "    while (n > 0) {\n"
                            "      --n;\n"
                            "    }\n"
                            "  }\n"
                            "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  const FunctionCfg& cfg = cfgs[0];
  EXPECT_EQ(cfg.nodes.size(), 7u);
  EXPECT_EQ(cfg.edges.size(), 8u);
  // Each loop contributes one back edge: an edge whose target precedes its
  // source in node order (entry/exit aside, nodes are created in source
  // order, so backward edges are exactly the loop latches).
  const auto back_edges = std::count_if(
      cfg.edges.begin(), cfg.edges.end(), [](const tca::lint::CfgEdge& e) {
        return e.to > kCfgExit && e.to < e.from;
      });
  EXPECT_EQ(back_edges, 2);
}

TEST(LintCfg, CoAwaitSplitsStatementsWithSuspensionEdges) {
  const auto cfgs = cfgs_of("sim::Task<int> h(Chan c) {\n"
                            "  int v = co_await c.recv();\n"
                            "  co_await c.send(v);\n"
                            "  co_return v;\n"
                            "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  const FunctionCfg& cfg = cfgs[0];
  EXPECT_TRUE(cfg.is_coroutine);
  EXPECT_EQ(cfg.nodes.size(), 7u);
  EXPECT_EQ(cfg.edges.size(), 6u);
  EXPECT_EQ(suspension_edge_count(cfg), 2u);
  // A suspension edge's source node ends exactly at the co_await keyword:
  // everything after it only runs post-resume.
  const auto toks = lex("sim::Task<int> h(Chan c) {\n"
                        "  int v = co_await c.recv();\n"
                        "  co_await c.send(v);\n"
                        "  co_return v;\n"
                        "}\n").toks;
  for (const tca::lint::CfgEdge& e : cfg.edges) {
    if (!e.suspension) continue;
    const tca::lint::CfgNode& from = cfg.nodes[static_cast<std::size_t>(e.from)];
    ASSERT_GT(from.end, from.begin);
    EXPECT_EQ(toks[from.end - 1].text, "co_await");
  }
}

TEST(LintCfg, InfiniteLoopHasNoExitEdge) {
  const auto cfgs = cfgs_of("void loop() {\n"
                            "  for (;;) {\n"
                            "    step();\n"
                            "  }\n"
                            "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  EXPECT_EQ(edges_to_exit(cfgs[0]), 0u);
}

TEST(LintCfg, LambdaBodiesGetTheirOwnCfg) {
  const auto cfgs = cfgs_of("void outer() {\n"
                            "  auto fn = [](int x) { return x + 1; };\n"
                            "  fn(1);\n"
                            "}\n");
  ASSERT_EQ(cfgs.size(), 2u);
  const auto lambdas = std::count_if(
      cfgs.begin(), cfgs.end(),
      [](const FunctionCfg& c) { return c.is_lambda; });
  EXPECT_EQ(lambdas, 1);
  // The enclosing function's statement walk must skip the nested lambda's
  // token range rather than treating its body as its own statements.
  for (const FunctionCfg& c : cfgs) {
    if (c.is_lambda) continue;
    EXPECT_EQ(c.nested_lambdas.size(), 1u);
  }
}

// The actual gate: the repository (src/, tests/, tools/, examples/, bench/)
// must lint clean. Reintroducing a temporary capturing-lambda coroutine
// (coro-temporary-closure) anywhere fails this test.
TEST(LintRepo, RepositoryLintsClean) {
  Options o;
  o.root = TCA_LINT_REPO_ROOT;
  const auto fs = run_lint(o);
  for (const Finding& f : fs) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  EXPECT_TRUE(fs.empty());
}

}  // namespace
