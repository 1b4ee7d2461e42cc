// Google-benchmark microbenchmarks of the core operations: document
// generation, OCR line detection, neighbor queries, phrase search, the
// FieldSwap swap itself, sparsemax, attention forward/backward, and
// candidate encoding. These quantify the cost of the augmentation pipeline
// relative to model training (augmentation is cheap; training dominates).

#include <benchmark/benchmark.h>

#include "api/internals.h"
#include "bench_util.h"
#include "obs/metrics.h"

namespace fieldswap {
namespace {

/// "BM_Sparsemax/24" -> "BM_Sparsemax_24": kernel names become metric-name
/// safe tokens under fieldswap.bench.micro.*.
std::string KernelSlug(const std::string& name) {
  std::string slug;
  for (char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      slug.push_back(c);
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

/// Console output as usual, plus one gauge pair per kernel so the timings
/// land in the micro_ops sidecar and the BENCH_<n>.json trajectory.
class SidecarReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::string slug = KernelSlug(run.benchmark_name());
      obs::GaugeSet("fieldswap.bench.micro." + slug + ".real_ns",
                    run.GetAdjustedRealTime());
      obs::GaugeSet("fieldswap.bench.micro." + slug + ".cpu_ns",
                    run.GetAdjustedCPUTime());
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

const Document& EarningsDoc() {
  static const Document* doc = new Document(
      GenerateDocument(EarningsSpec(), "bench", 0, Rng(1)));
  return *doc;
}

void BM_GenerateDocument(benchmark::State& state) {
  DomainSpec spec = EarningsSpec();
  uint64_t seed = 0;
  for (auto _ : state) {
    Document doc = GenerateDocument(spec, "b", 0, Rng(seed++));
    benchmark::DoNotOptimize(doc.num_tokens());
  }
}
BENCHMARK(BM_GenerateDocument);

void BM_DetectLines(benchmark::State& state) {
  Document doc = EarningsDoc();
  for (auto _ : state) {
    auto lines = DetectLines(doc);
    benchmark::DoNotOptimize(lines.size());
  }
}
BENCHMARK(BM_DetectLines);

void BM_NeighborIndices(benchmark::State& state) {
  const Document& doc = EarningsDoc();
  const BBox& anchor = doc.token(doc.num_tokens() / 2).box;
  for (auto _ : state) {
    auto neighbors = doc.NeighborIndices(anchor, 20);
    benchmark::DoNotOptimize(neighbors.size());
  }
}
BENCHMARK(BM_NeighborIndices);

void BM_FindPhrase(benchmark::State& state) {
  const Document& doc = EarningsDoc();
  std::vector<std::string> phrase{"Base", "Salary"};
  for (auto _ : state) {
    auto matches = doc.FindPhrase(phrase);
    benchmark::DoNotOptimize(matches.size());
  }
}
BENCHMARK(BM_FindPhrase);

void BM_SwapOnce(benchmark::State& state) {
  DomainSpec spec = EarningsSpec();
  HumanExpertConfig expert = MakeHumanExpertConfig(spec);
  // Find a document where the swap applies.
  Document doc = GenerateDocument(spec, "b", 0, Rng(7));
  KeyPhrase target;
  target.words = {"Bonus"};
  FieldSwapOptions options;
  for (auto _ : state) {
    auto synthetic = SwapOnce(doc, "current.salary", "current.bonus", target,
                              expert.phrases, options);
    benchmark::DoNotOptimize(synthetic.has_value());
  }
}
BENCHMARK(BM_SwapOnce);

void BM_GenerateCandidates(benchmark::State& state) {
  const Document& doc = EarningsDoc();
  for (auto _ : state) {
    auto candidates = GenerateCandidates(doc);
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_GenerateCandidates);

void BM_Sparsemax(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> z(static_cast<size_t>(state.range(0)));
  for (double& v : z) v = rng.Uniform(-1, 1);
  for (auto _ : state) {
    auto p = Sparsemax(z, 8.0);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_Sparsemax)->Arg(24)->Arg(128);

void BM_NeighborAttentionForward(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const int d = 32;
  Rng rng(4);
  Var q = Constant(Matrix::Gaussian(t, d, 1.0f, rng));
  Var k = Constant(Matrix::Gaussian(t, d, 1.0f, rng));
  Var v = Constant(Matrix::Gaussian(t, d, 1.0f, rng));
  std::vector<std::vector<int>> neighbors(static_cast<size_t>(t));
  for (int i = 0; i < t; ++i) {
    for (int j = std::max(0, i - 6); j < std::min(t, i + 6); ++j) {
      neighbors[static_cast<size_t>(i)].push_back(j);
    }
  }
  const std::shared_ptr<const NeighborLists> lists =
      NeighborLists::FromRows(neighbors);
  for (auto _ : state) {
    Var out = NeighborAttention(q, k, v, lists);
    benchmark::DoNotOptimize(out->value.data());
  }
}
BENCHMARK(BM_NeighborAttentionForward)->Arg(64)->Arg(160);

void BM_NeighborAttentionBackward(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const int d = 32;
  Rng rng(5);
  std::vector<std::vector<int>> neighbors(static_cast<size_t>(t));
  for (int i = 0; i < t; ++i) {
    for (int j = std::max(0, i - 6); j < std::min(t, i + 6); ++j) {
      neighbors[static_cast<size_t>(i)].push_back(j);
    }
  }
  const std::shared_ptr<const NeighborLists> lists =
      NeighborLists::FromRows(neighbors);
  for (auto _ : state) {
    Var q = Parameter(Matrix::Gaussian(t, d, 1.0f, rng));
    Var k = Parameter(Matrix::Gaussian(t, d, 1.0f, rng));
    Var v = Parameter(Matrix::Gaussian(t, d, 1.0f, rng));
    Var loss = MeanAll(NeighborAttention(q, k, v, lists));
    Backward(loss);
    benchmark::DoNotOptimize(q->grad.data());
  }
}
BENCHMARK(BM_NeighborAttentionBackward)->Arg(160);

void BM_CandidateEncode(benchmark::State& state) {
  CandidateModelConfig config;
  CandidateScoringModel model(config, {"f"});
  const Document& doc = EarningsDoc();
  Candidate cand =
      CandidateFromSpan(doc.annotations().back(), FieldType::kMoney);
  for (auto _ : state) {
    CandidateEncoding enc = model.Encode(doc, cand);
    benchmark::DoNotOptimize(enc.neighborhood.data());
  }
}
BENCHMARK(BM_CandidateEncode);

void BM_FullAugmentationHumanExpert(benchmark::State& state) {
  DomainSpec spec = EarningsSpec();
  auto docs = GenerateCorpus(spec, 10, 11, "aug");
  HumanExpertConfig expert = MakeHumanExpertConfig(spec);
  DomainSchema schema = spec.Schema();
  FieldSwapOptions options;
  for (auto _ : state) {
    auto synthetics = GenerateSyntheticDocuments(
        docs, expert.phrases, expert.pairs, options);
    benchmark::DoNotOptimize(synthetics.size());
  }
}
BENCHMARK(BM_FullAugmentationHumanExpert);

}  // namespace
}  // namespace fieldswap

// Custom main (instead of benchmark_main) so the run is wrapped in the
// standard bench banner/sidecar machinery: kernel timings are published as
// fieldswap.bench.micro.<kernel>.{real,cpu}_ns gauges and the at-exit hook
// writes micro_ops_kernel_timings.metrics.json for tools/bench_trajectory.
int main(int argc, char** argv) {
  fieldswap::PrintBanner("Micro ops kernel timings",
                         "augmentation ops are cheap relative to training; "
                         "encode/predict kernels dominate serving");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fieldswap::SidecarReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
