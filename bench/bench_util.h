#ifndef FIELDSWAP_BENCH_BENCH_UTIL_H_
#define FIELDSWAP_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "api/fieldswap_api.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace fieldswap {
namespace bench_internal {

/// State behind the at-exit metrics sidecar armed by PrintBanner.
inline std::string& SidecarSlug() {
  static std::string* slug = new std::string;
  return *slug;
}

inline std::chrono::steady_clock::time_point& BenchStart() {
  static std::chrono::steady_clock::time_point start;
  return start;
}

/// "Table I: Dataset Statistics" -> "table_i_dataset_statistics".
inline std::string SlugFromArtifact(const std::string& artifact) {
  std::string slug;
  for (char c : artifact) {
    if (c >= 'A' && c <= 'Z') {
      slug.push_back(static_cast<char>(c + 32));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      slug.push_back(c);
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? std::string("bench") : slug;
}

/// Version of the `.metrics.json` sidecar layout every bench binary emits.
/// v1 was the unversioned {bench, wall_time_s, peak_rss_kb, metrics} shape;
/// v2 adds this field, the aggregated span profile, and the
/// `fieldswap.process.*` gauges. Bump the number when the layout changes.
inline constexpr int kSidecarSchemaVersion = 2;

/// Writes the standardized bench sidecar: schema version, wall time, peak
/// RSS, the full global metrics registry (with `fieldswap.process.*`
/// gauges sampled at write time), and the deterministic span profile from
/// the global trace. This is the one writer every bench binary shares —
/// the per-binary hand-rolled emission it replaced is what made sidecars
/// impossible to diff.
inline void WriteBenchSidecar(const std::string& path, const std::string& slug,
                              double wall_s) {
  obs::PublishProcessGauges();
  obs::ProcessStats stats = obs::SampleProcessStats();
  std::ofstream out(path);
  if (!out) return;
  out << "{\"schema_version\": " << kSidecarSchemaVersion << ", \"bench\": \""
      << slug << "\", \"wall_time_s\": " << wall_s
      << ", \"peak_rss_kb\": " << stats.peak_rss_kb
      << ", \"metrics\": " << obs::GlobalMetrics().ExportJson()
      << ", \"profile\": " << obs::BuildGlobalProfile().ToJson() << "}\n";
  if (out) {
    std::cerr << "[bench] wrote metrics sidecar " << path << "\n";
  }
}

/// At-exit hook armed by PrintBanner: drops `<slug>.metrics.json` next to
/// the printed artifact.
inline void WriteMetricsSidecar() {
  if (SidecarSlug().empty()) return;
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - BenchStart())
                      .count();
  WriteBenchSidecar(SidecarSlug() + ".metrics.json", SidecarSlug(), wall_s);
}

}  // namespace bench_internal

/// Prints a banner naming the paper artifact this binary regenerates, and
/// arms an at-exit hook that drops a `<artifact-slug>.metrics.json` sidecar
/// next to the printed table/figure.
inline void PrintBanner(const std::string& artifact,
                        const std::string& paper_expectation) {
  if (bench_internal::SidecarSlug().empty()) {
    bench_internal::SidecarSlug() = bench_internal::SlugFromArtifact(artifact);
    bench_internal::BenchStart() = std::chrono::steady_clock::now();
    std::atexit(bench_internal::WriteMetricsSidecar);
  }
  std::cout << "================================================================\n"
            << "FieldSwap reproduction - " << artifact << "\n"
            << "Paper expectation: " << paper_expectation << "\n"
            << "================================================================\n\n";
}

/// Shared experiment configuration for the learning-curve benches. Defaults
/// are sized for a single CPU core; raise FIELDSWAP_SUBSETS /
/// FIELDSWAP_TRIALS / FIELDSWAP_TEST_DOCS to approach the paper's protocol
/// (3 subsets x 3 trials on the full test sets).
inline ExperimentConfig BenchConfig(int default_subsets, int default_trials) {
  ExperimentConfig config;
  config.num_subsets = default_subsets;
  config.num_trials = default_trials;
  config.test_size = 50;
  config.min_steps = 1500;
  config.steps_per_doc = 20;
  ApplyEnvOverrides(config);
  return config;
}

/// Loads (or trains once and caches) the invoice-pretrained candidate model
/// shared by all automatic-FieldSwap benches.
inline CandidateScoringModel BenchCandidateModel() {
  std::cout << "[setup] loading/pre-training out-of-domain candidate model "
               "(cached in data/fieldswap_candidate_model.ckpt)...\n";
  CandidateScoringModel model = GetOrTrainCachedCandidateModel();
  std::cout << "[setup] candidate model ready.\n\n";
  return model;
}

}  // namespace fieldswap

#endif  // FIELDSWAP_BENCH_BENCH_UTIL_H_
