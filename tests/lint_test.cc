// Tests for the fslint static analyzer (src/lint): lexer, layer manifest,
// rule engine, suppressions, and the engine/report layer, driven over the
// checked-in fixture files in tests/lint_fixtures/.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/concurrency.h"
#include "lint/engine.h"
#include "lint/layers.h"
#include "lint/lexer.h"
#include "lint/rules.h"

namespace fieldswap {
namespace lint {
namespace {

std::string RepoRoot() { return FIELDSWAP_REPO_ROOT; }

std::string ReadRepoFile(const std::string& rel_path) {
  std::ifstream in(RepoRoot() + "/" + rel_path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << rel_path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

LayerGraph RealLayers() {
  LayerGraph layers;
  std::string error;
  EXPECT_TRUE(LayerGraph::Parse(ReadRepoFile("tools/layers.txt"), &layers,
                                &error))
      << error;
  return layers;
}

/// Lints a checked-in fixture under its real repo-relative path.
FileLintResult LintFixture(const std::string& name) {
  std::string rel = "tests/lint_fixtures/" + name;
  return LintSource(rel, ReadRepoFile(rel), nullptr);
}

std::vector<std::pair<int, std::string>> LinesAndRules(
    const FileLintResult& result) {
  std::vector<std::pair<int, std::string>> out;
  for (const Diagnostic& diag : result.diagnostics) {
    out.emplace_back(diag.line, diag.rule);
  }
  return out;
}

using Expected = std::vector<std::pair<int, std::string>>;

// ---------------------------------------------------------------- lexer --

TEST(LintLexer, BlanksCommentsButRecordsThem) {
  LexedFile lexed = LexCppSource("int a; // trailing note\nint b;\n");
  EXPECT_EQ(lexed.code.find("trailing"), std::string::npos);
  EXPECT_NE(lexed.code.find("int a;"), std::string::npos);
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].start_line, 1);
  EXPECT_NE(lexed.comments[0].text.find("trailing note"), std::string::npos);
}

TEST(LintLexer, BlanksStringAndCharLiteralContents) {
  LexedFile lexed =
      LexCppSource("const char* s = \"secret\";\nchar c = 'x';\n");
  EXPECT_EQ(lexed.code.find("secret"), std::string::npos);
  EXPECT_EQ(lexed.code.find("'x'"), std::string::npos);
  // Delimiters stay so offsets line up byte-for-byte.
  EXPECT_EQ(lexed.code.size(), std::string("const char* s = \"secret\";\n"
                                           "char c = 'x';\n")
                                   .size());
}

TEST(LintLexer, BlanksRawStringsAcrossLines) {
  LexedFile lexed = LexCppSource(
      "auto s = R\"raw(line one\nline two)raw\";\nint after = 1;\n");
  EXPECT_EQ(lexed.code.find("line one"), std::string::npos);
  EXPECT_EQ(lexed.code.find("line two"), std::string::npos);
  EXPECT_NE(lexed.code.find("int after"), std::string::npos);
  // Newlines inside the raw string survive, keeping line numbers honest.
  EXPECT_EQ(lexed.LineAt(lexed.code.find("int after")), 3);
}

TEST(LintLexer, KeepsIncludePathsVisible) {
  LexedFile lexed = LexCppSource(
      "#include \"model/trainer.h\"\nconst char* s = \"model/hidden.h\";\n");
  EXPECT_NE(lexed.code.find("model/trainer.h"), std::string::npos);
  EXPECT_EQ(lexed.code.find("model/hidden.h"), std::string::npos);
}

TEST(LintLexer, MergesAdjacentStandaloneLineComments) {
  LexedFile lexed = LexCppSource(
      "// first line of a wrapped comment\n"
      "// second line of the same comment\n"
      "int code = 1;\n"
      "\n"
      "// separate comment after a blank line\n");
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].start_line, 1);
  EXPECT_EQ(lexed.comments[0].end_line, 2);
  EXPECT_EQ(lexed.comments[1].start_line, 5);
}

// --------------------------------------------------------- layer manifest --

TEST(LayerGraph, RealManifestParsesAndEncodesDesignRules) {
  LayerGraph layers = RealLayers();
  for (const char* name :
       {"util", "obs", "par", "doc", "ocr", "nn", "lint", "synth", "attack",
        "model", "core", "eval", "serve", "api", "bench", "examples",
        "tools"}) {
    EXPECT_TRUE(layers.IsLayer(name)) << name;
  }
  // attack never sees model/core/eval (PR 3's design rule).
  EXPECT_FALSE(layers.Allowed("attack", "model"));
  EXPECT_FALSE(layers.Allowed("attack", "core"));
  EXPECT_FALSE(layers.Allowed("attack", "eval"));
  // eval sits near the top; only the api facade may include it.
  for (const std::string& layer : layers.layers()) {
    if (layer != "eval" && layer != "api") {
      EXPECT_FALSE(layers.Allowed(layer, "eval")) << layer;
    }
  }
  EXPECT_TRUE(layers.Allowed("eval", "attack"));
  EXPECT_TRUE(layers.Allowed("model", "nn"));
  // Self-includes are implicit.
  EXPECT_TRUE(layers.Allowed("doc", "doc"));
  // serve/flat is a nested byte-layout layer (ISSUE 8): serve may reach
  // it, but the container format itself may touch only util — never the
  // model, document, or parallel layers it serializes for.
  EXPECT_TRUE(layers.IsLayer("serve/flat"));
  EXPECT_TRUE(layers.Allowed("serve", "serve/flat"));
  EXPECT_TRUE(layers.Allowed("serve/flat", "util"));
  EXPECT_FALSE(layers.Allowed("serve/flat", "model"));
  EXPECT_FALSE(layers.Allowed("serve/flat", "doc"));
  EXPECT_FALSE(layers.Allowed("serve/flat", "nn"));
  EXPECT_FALSE(layers.Allowed("serve/flat", "par"));
  EXPECT_FALSE(layers.Allowed("serve/flat", "serve"))
      << "the bridge points one way: serve -> serve/flat";
  // doc/formats is the same shape one layer down (ISSUE 10): doc may
  // reach its record-file container, but the byte layer may touch only
  // util — never documents, the parallel pool, or doc itself.
  EXPECT_TRUE(layers.IsLayer("doc/formats"));
  EXPECT_TRUE(layers.Allowed("doc", "doc/formats"));
  EXPECT_TRUE(layers.Allowed("doc", "par"));
  EXPECT_TRUE(layers.Allowed("doc/formats", "util"));
  EXPECT_FALSE(layers.Allowed("doc/formats", "doc"))
      << "the bridge points one way: doc -> doc/formats";
  EXPECT_FALSE(layers.Allowed("doc/formats", "par"));
  EXPECT_FALSE(layers.Allowed("doc/formats", "obs"));
  // Outside src/, only the facade (plus obs/util conveniences, and serve
  // for examples and tools) is reachable — internals must come through
  // api/fieldswap_api.h or api/internals.h.
  EXPECT_FALSE(layers.Allowed("bench", "serve"));
  EXPECT_TRUE(layers.Allowed("examples", "serve"));
  EXPECT_TRUE(layers.Allowed("tools", "serve"));
  for (const char* outside : {"bench", "examples", "tools"}) {
    EXPECT_TRUE(layers.Allowed(outside, "api")) << outside;
    EXPECT_TRUE(layers.Allowed(outside, "util")) << outside;
    EXPECT_FALSE(layers.Allowed(outside, "model")) << outside;
    EXPECT_FALSE(layers.Allowed(outside, "core")) << outside;
    EXPECT_FALSE(layers.Allowed(outside, "eval")) << outside;
    EXPECT_FALSE(layers.Allowed(outside, "attack")) << outside;
  }
}

TEST(LayerGraph, LayerForPath) {
  LayerGraph layers = RealLayers();
  EXPECT_EQ(layers.LayerForPath("src/model/trainer.cc"), "model");
  EXPECT_EQ(layers.LayerForPath("src/lint/rules.cc"), "lint");
  EXPECT_EQ(layers.LayerForPath("src/serve/server.cc"), "serve");
  // Longest-prefix resolution: the nested flat-format layer wins over its
  // parent for files under serve/flat/, and the bridge stays in serve.
  EXPECT_EQ(layers.LayerForPath("src/serve/flat/format.cc"), "serve/flat");
  EXPECT_EQ(layers.LayerForPath("src/serve/flat_snapshot.cc"), "serve");
  EXPECT_EQ(layers.LayerForPath("src/doc/formats/record_file.cc"),
            "doc/formats");
  EXPECT_EQ(layers.LayerForPath("src/doc/corpus.cc"), "doc");
  EXPECT_EQ(layers.LayerForPath("src/api/fieldswap_api.h"), "api");
  EXPECT_EQ(layers.LayerForPath("src/mystery/x.cc"), "");
  // Declared top-level directories are layers too; undeclared ones
  // (tests/) stay outside the graph.
  EXPECT_EQ(layers.LayerForPath("bench/attack_sweep.cc"), "bench");
  EXPECT_EQ(layers.LayerForPath("examples/quickstart.cpp"), "examples");
  EXPECT_EQ(layers.LayerForPath("tools/fslint.cc"), "tools");
  EXPECT_EQ(layers.LayerForPath("tests/lint_test.cc"), "");
  EXPECT_EQ(layers.LayerForPath("scripts/check.sh"), "");
}

TEST(LayerGraph, RejectsMalformedManifests) {
  LayerGraph layers;
  std::string error;
  EXPECT_FALSE(LayerGraph::Parse("a: b\nb: a\n", &layers, &error));
  EXPECT_NE(error.find("cycle"), std::string::npos);
  EXPECT_FALSE(LayerGraph::Parse("a: ghost\n", &layers, &error));
  EXPECT_NE(error.find("undeclared"), std::string::npos);
  EXPECT_FALSE(LayerGraph::Parse("a:\na:\n", &layers, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  EXPECT_FALSE(LayerGraph::Parse("a: a\n", &layers, &error));
  EXPECT_FALSE(LayerGraph::Parse("# only comments\n", &layers, &error));
}

// ---------------------------------------------------- rules via fixtures --

TEST(FslintRules, CatchesUnseededRngWithFileAndLine) {
  FileLintResult result = LintFixture("rng_bad.cc");
  Expected expected = {{5, "no-unseeded-rng"},
                       {6, "no-unseeded-rng"},
                       {7, "no-unseeded-rng"},
                       {8, "no-unseeded-rng"},
                       {9, "no-unseeded-rng"}};
  EXPECT_EQ(LinesAndRules(result), expected);
  EXPECT_EQ(result.diagnostics[0].file, "tests/lint_fixtures/rng_bad.cc");
}

TEST(FslintRules, CatchesWallClockReads) {
  FileLintResult result = LintFixture("wall_clock_bad.cc");
  Expected expected = {{6, "no-wall-clock"},
                       {7, "no-wall-clock"},
                       {8, "no-wall-clock"},
                       {9, "no-wall-clock"}};
  EXPECT_EQ(LinesAndRules(result), expected);
}

TEST(FslintRules, CatchesRawThreads) {
  FileLintResult result = LintFixture("thread_bad.cc");
  Expected expected = {{6, "no-raw-thread"}, {7, "no-raw-thread"}};
  EXPECT_EQ(LinesAndRules(result), expected);
}

TEST(FslintRules, CatchesUnorderedIteration) {
  FileLintResult result = LintFixture("unordered_bad.cc");
  Expected expected = {{9, "no-unordered-iteration"},
                       {12, "no-unordered-iteration"}};
  EXPECT_EQ(LinesAndRules(result), expected);
}

TEST(FslintRules, CatchesFloatLiteralEquality) {
  FileLintResult result = LintFixture("float_eq_bad.cc");
  Expected expected = {{4, "no-float-equality"},
                       {5, "no-float-equality"},
                       {6, "no-float-equality"},
                       {7, "no-float-equality"}};
  EXPECT_EQ(LinesAndRules(result), expected);
}

TEST(FslintRules, CatchesBannedFunctions) {
  FileLintResult result = LintFixture("banned_bad.cc");
  Expected expected = {{7, "banned-function"},
                       {8, "banned-function"},
                       {9, "banned-function"}};
  EXPECT_EQ(LinesAndRules(result), expected);
}

TEST(FslintRules, CatchesGuardedMemberAccessWithoutTheLock) {
  FileLintResult result = LintFixture("guarded_bad.cc");
  Expected expected = {{13, "guarded-by"},
                       {17, "guarded-by"},
                       {18, "guarded-by"}};
  EXPECT_EQ(LinesAndRules(result), expected);
  EXPECT_NE(result.diagnostics[0].message.find("FS_GUARDED_BY(mu_)"),
            std::string::npos);
  // Bump() (lock_guard held) and Reset() (FS_REQUIRES) are not flagged.
}

TEST(FslintRules, CatchesLockOrderInversionWithBothChains) {
  FileLintResult result = LintFixture("lock_order_bad.cc");
  Expected expected = {{12, "lock-order"}};
  EXPECT_EQ(LinesAndRules(result), expected);
  const std::string& message = result.diagnostics[0].message;
  EXPECT_NE(message.find("lock acquisition cycle"), std::string::npos);
  // Both chains appear, each anchored file:line at its witness.
  EXPECT_NE(message.find("chain 1: lock_order_bad::first_mu "
                         "(tests/lint_fixtures/lock_order_bad.cc:11) -> "
                         "lock_order_bad::second_mu "
                         "(tests/lint_fixtures/lock_order_bad.cc:12)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("chain 2: lock_order_bad::second_mu "
                         "(tests/lint_fixtures/lock_order_bad.cc:16) -> "
                         "lock_order_bad::first_mu "
                         "(tests/lint_fixtures/lock_order_bad.cc:17)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("tools/lock_order.txt"), std::string::npos);
}

TEST(FslintRules, CatchesCallbackInvokedUnderLock) {
  FileLintResult result = LintFixture("callback_bad.cc");
  Expected expected = {{12, "no-lock-across-callback"}};
  EXPECT_EQ(LinesAndRules(result), expected);
  EXPECT_NE(result.diagnostics[0].message.find("Notifier::notifier_mu_"),
            std::string::npos);
  // FireSafely (copy under lock, invoke after release) is not flagged.
}

TEST(FslintRules, JustifiedSuppressionsSilenceEachRule) {
  for (const char* fixture :
       {"rng_suppressed.cc", "wall_clock_suppressed.cc",
        "unordered_suppressed.cc", "thread_suppressed.cc",
        "float_eq_suppressed.cc", "banned_suppressed.cc",
        "guarded_suppressed.cc", "lock_order_suppressed.cc",
        "callback_suppressed.cc"}) {
    FileLintResult result = LintFixture(fixture);
    EXPECT_TRUE(result.diagnostics.empty())
        << fixture << ": " << (result.diagnostics.empty()
                                   ? ""
                                   : result.diagnostics[0].message);
    EXPECT_EQ(result.suppressions_used, 1) << fixture;
  }
}

TEST(FslintRules, UnjustifiedOrUnknownSuppressionsAreRejected) {
  FileLintResult result = LintFixture("suppression_unjustified.cc");
  Expected expected = {{5, "bad-suppression"},
                       {6, "banned-function"},
                       {7, "bad-suppression"}};
  EXPECT_EQ(LinesAndRules(result), expected);
  EXPECT_EQ(result.suppressions_used, 0);
}

TEST(FslintRules, LexerKeepsStringsAndCommentsFromTriggering) {
  FileLintResult result = LintFixture("lexer_clean.cc");
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics[0].rule << ": " << result.diagnostics[0].message;
  EXPECT_EQ(result.suppressions_used, 0);
}

TEST(FslintRules, WallClockAllowedOnlyInObsParBench) {
  const std::string content = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(LintSource("src/obs/x.cc", content, nullptr)
                  .diagnostics.empty());
  EXPECT_TRUE(LintSource("src/par/x.cc", content, nullptr)
                  .diagnostics.empty());
  EXPECT_TRUE(LintSource("bench/x.cc", content, nullptr)
                  .diagnostics.empty());
  EXPECT_EQ(LintSource("src/model/x.cc", content, nullptr)
                .diagnostics.size(),
            1u);
  EXPECT_EQ(LintSource("examples/x.cpp", content, nullptr)
                .diagnostics.size(),
            1u);
}

// ----------------------------------------------------------------- layering --

TEST(FslintLayering, BackEdgeFixtureIsCaughtWithFileAndLine) {
  LayerGraph layers = RealLayers();
  std::string rel = "tests/lint_fixtures/layering_backedge.cc";
  FileLintResult result = LintSource("src/attack/layering_backedge.cc",
                                     ReadRepoFile(rel), &layers);
  Expected expected = {{6, "layering"}, {7, "layering"}};
  EXPECT_EQ(LinesAndRules(result), expected);
  EXPECT_NE(result.diagnostics[0].message.find("model"), std::string::npos);
  EXPECT_NE(result.diagnostics[1].message.find("eval"), std::string::npos);
}

TEST(FslintLayering, AllowedEdgesAndUndeclaredDirsPass) {
  LayerGraph layers = RealLayers();
  const std::string content =
      "#include \"attack/ladder.h\"\n#include \"model/trainer.h\"\n";
  // eval may include both attack and model.
  EXPECT_TRUE(LintSource("src/eval/x.cc", content, &layers)
                  .diagnostics.empty());
  // tests/ is not declared in the manifest, so it is not layer-checked.
  EXPECT_TRUE(LintSource("tests/x.cc", content, &layers)
                  .diagnostics.empty());
}

TEST(FslintLayering, BenchAndExamplesMustGoThroughTheFacade) {
  LayerGraph layers = RealLayers();
  // Direct internal includes from declared top-level dirs are back-edges.
  const std::string internal =
      "#include \"attack/ladder.h\"\n#include \"model/trainer.h\"\n";
  Expected expected = {{1, "layering"}, {2, "layering"}};
  EXPECT_EQ(LinesAndRules(LintSource("bench/x.cc", internal, &layers)),
            expected);
  EXPECT_EQ(LinesAndRules(LintSource("examples/x.cpp", internal, &layers)),
            expected);
  EXPECT_EQ(LinesAndRules(LintSource("tools/x.cc", internal, &layers)),
            expected);
  // The sanctioned surface passes: api facade, obs, util, and serve for
  // examples (benches reach serving through the facade).
  const std::string sanctioned =
      "#include \"api/fieldswap_api.h\"\n"
      "#include \"obs/metrics.h\"\n"
      "#include \"util/table.h\"\n";
  const std::string serve = "#include \"serve/server.h\"\n";
  EXPECT_TRUE(LintSource("bench/x.cc", sanctioned, &layers)
                  .diagnostics.empty());
  EXPECT_EQ(LinesAndRules(LintSource("bench/x.cc", serve, &layers)),
            (Expected{{1, "layering"}}));
  EXPECT_TRUE(LintSource("examples/x.cpp", sanctioned + serve, &layers)
                  .diagnostics.empty());
  // Local includes without a slash (bench_util.h) are never layer edges.
  EXPECT_TRUE(LintSource("bench/x.cc", "#include \"bench_util.h\"\n",
                         &layers)
                  .diagnostics.empty());
}

TEST(FslintLayering, UndeclaredSrcSubsystemIsReported) {
  LayerGraph layers = RealLayers();
  FileLintResult result =
      LintSource("src/mystery/x.cc", "int a = 1;\n", &layers);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "layering");
  EXPECT_NE(result.diagnostics[0].message.find("mystery"),
            std::string::npos);
}

// ------------------------------------------------------------- concurrency --

TEST(FslintConcurrency, RequiresAnnotationSeedsTheHeldLock) {
  const std::string content =
      "class Q {\n"
      " public:\n"
      "  void DrainLocked() FS_REQUIRES(mu_) { pending_ = 0; }\n"
      "  void Broken() { pending_ = 0; }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int pending_ FS_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  FileLintResult result = LintSource("src/serve/q.h", content, nullptr);
  Expected expected = {{4, "guarded-by"}};
  EXPECT_EQ(LinesAndRules(result), expected);
}

TEST(FslintConcurrency, OutOfLineDefinitionInheritsMethodAnnotations) {
  const std::string content =
      "class W {\n"
      " public:\n"
      "  void Tick() FS_REQUIRES(mu_);\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int beats_ FS_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "void W::Tick() { ++beats_; }\n";
  FileLintResult result = LintSource("src/obs/w.cc", content, nullptr);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics[0].message;
}

TEST(FslintConcurrency, ExcludesCallUnderTheLockIsSelfDeadlock) {
  const std::string content =
      "class S {\n"
      " public:\n"
      "  void Poke() FS_EXCLUDES(mu_);\n"
      "  void Loop() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    Poke();\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "};\n";
  FileLintResult result = LintSource("src/core/s.h", content, nullptr);
  Expected expected = {{6, "lock-order"}};
  EXPECT_EQ(LinesAndRules(result), expected);
  EXPECT_NE(result.diagnostics[0].message.find("self-deadlock"),
            std::string::npos);
}

TEST(LockOrderManifestTest, RealManifestDeclaresTheCanonicalEdges) {
  LockOrderManifest manifest;
  std::string error;
  ASSERT_TRUE(manifest.Parse(ReadRepoFile("tools/lock_order.txt"), &error))
      << error;
  EXPECT_TRUE(manifest.Allows("ThreadPool::run_mu_", "ThreadPool::mu_"));
  EXPECT_TRUE(manifest.Allows("MultiTenantServer::mu_", "ModelRegistry::mu_"));
  EXPECT_TRUE(manifest.Allows("parallel::PoolMutex()", "ThreadPool::mu_"));
  // Direction matters: the reverse orders are not blessed.
  EXPECT_FALSE(manifest.Allows("ThreadPool::mu_", "ThreadPool::run_mu_"));
  EXPECT_FALSE(manifest.Allows("ModelRegistry::mu_", "MultiTenantServer::mu_"));
}

TEST(LockOrderManifestTest, RejectsCyclesAndMalformedLines) {
  LockOrderManifest manifest;
  std::string error;
  // A manifest cycle would bless the deadlock the rule prevents.
  EXPECT_FALSE(manifest.Parse("A -> B\nB -> A\n", &error));
  EXPECT_NE(error.find("cycle"), std::string::npos);
  EXPECT_FALSE(manifest.Parse("A B\n", &error));
  EXPECT_NE(error.find("expected"), std::string::npos);
  EXPECT_FALSE(manifest.Parse("A -> A\n", &error));
  EXPECT_NE(error.find("malformed"), std::string::npos);
  // Comments and blank lines are fine.
  EXPECT_TRUE(manifest.Parse("# comment\n\nA -> B # trailing\n", &error))
      << error;
  EXPECT_TRUE(manifest.Allows("A", "B"));
}

// ------------------------------------------------------------------ engine --

TEST(FslintEngine, FixturesAreExcludedByDefaultButScannableOnDemand) {
  LintConfig config;
  config.root = RepoRoot();
  LintReport excluded = LintPaths(config, {"tests/lint_fixtures"});
  EXPECT_EQ(excluded.files_scanned, 0);

  config.exclude_substrings.clear();
  LintReport report = LintPaths(config, {"tests/lint_fixtures"});
  EXPECT_GE(report.files_scanned, 15);
  EXPECT_FALSE(report.clean());
  EXPECT_GT(report.violations_by_rule.at("no-unseeded-rng"), 0);
  EXPECT_GT(report.suppressions_used, 0);

  std::string text = RenderText(report);
  EXPECT_NE(text.find("rng_bad.cc:5: error[no-unseeded-rng]"),
            std::string::npos);
  std::string json = RenderJson(report);
  EXPECT_NE(json.find("\"violations\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"no-unseeded-rng\""), std::string::npos);
}

TEST(FslintEngine, TheRealTreeLintsClean) {
  LayerGraph layers = RealLayers();
  LintConfig config;
  config.root = RepoRoot();
  config.layers = &layers;
  LintReport report =
      LintPaths(config, {"src", "bench", "examples", "tests", "tools"});
  EXPECT_GT(report.files_scanned, 100);
  std::string text;
  if (!report.clean()) text = RenderText(report);
  EXPECT_TRUE(report.clean()) << text;
  // The whole-tree nested-acquisition graph is non-empty, and staying
  // clean above means every src/ edge is declared in tools/lock_order.txt
  // (manifest conformance is on by default when the file exists).
  EXPECT_NE(std::find(report.observed_lock_edges.begin(),
                      report.observed_lock_edges.end(),
                      "ThreadPool::run_mu_ -> ThreadPool::mu_"),
            report.observed_lock_edges.end());
}

}  // namespace
}  // namespace lint
}  // namespace fieldswap
