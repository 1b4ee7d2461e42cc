// Kernel-backend benchmark (ISSUE 7 / ROADMAP item 1): measures the
// runtime-dispatched SIMD kernels and the graph-free serving forward
// against the seed's scalar serving path, single-threaded.
//
// Three sections:
//   1. backend inventory — which kernels this host dispatches to;
//   2. micro-kernels — GEMM / LayerNorm / neighbor-attention, scalar vs
//      every other available backend, on serving-shaped operands;
//   3. the serve pipeline — encode + predict over a generated corpus:
//      scalar graph forward (the pre-kernel baseline), graph-free forward
//      on the best backend, and the int8-quantized plan.
//
// The headline gauge fieldswap.kernel.bench.encode_predict.speedup is the
// acceptance number: >= 4x on an AVX2 host (on a scalar-only host it
// reports the tape-removal speedup alone, which is well under 4x — the
// gate compares like hosts via BENCH_<n>.json, it never compares across
// ISAs). The model config is sized so GEMMs dominate the way they do at
// production scale (override with FIELDSWAP_KERNEL_BENCH_*); the seed's
// tiny default config would measure tokenization, not kernels.
//
// All pipeline legs run with par::SetThreads(1): the speedup reported here
// is vectorization + tape removal + quantization, never core count.

#include <chrono>
#include <functional>
#include <memory>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "api/fieldswap_api.h"
#include "api/internals.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace fieldswap {
namespace {

double WallSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int EnvInt(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return ParseInt(raw, fallback);
}

/// Deterministic pseudo-random fill so every backend times identical data.
void FillMatrix(Matrix& m, uint64_t seed) {
  Rng rng(seed);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      m.At(r, c) = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    }
  }
}

bool SameSpans(const std::vector<EntitySpan>& a,
               const std::vector<EntitySpan>& b) {
  return a == b;
}

void MicroKernels(TablePrinter& table) {
  const int m = EnvInt("FIELDSWAP_KERNEL_BENCH_GEMM_M", 256);
  const int k = EnvInt("FIELDSWAP_KERNEL_BENCH_GEMM_K", 96);
  const int n = EnvInt("FIELDSWAP_KERNEL_BENCH_GEMM_N", 96);
  const int reps = EnvInt("FIELDSWAP_KERNEL_BENCH_MICRO_REPS", 200);

  Matrix a(m, k), b(k, n), out(m, n);
  FillMatrix(a, 101);
  FillMatrix(b, 202);
  Matrix x(m, k), gain(1, k), bias(1, k), normed(m, k);
  FillMatrix(x, 303);
  FillMatrix(gain, 404);
  FillMatrix(bias, 505);
  // Neighbor lists shaped like the model's: ~12 neighbors per row.
  std::vector<std::vector<int>> neighbors(m);
  for (int r = 0; r < m; ++r) {
    for (int j = -6; j <= 6; ++j) {
      int idx = r + j;
      if (idx >= 0 && idx < m) neighbors[r].push_back(idx);
    }
  }
  const std::shared_ptr<const NeighborLists> lists =
      NeighborLists::FromRows(neighbors);
  Matrix q(m, k), key(m, k), v(m, k), attn(m, k);
  FillMatrix(q, 606);
  FillMatrix(key, 707);
  FillMatrix(v, 808);

  struct Micro {
    const char* name;
    std::function<void()> run;
  };
  const Micro micros[] = {
      {"gemm", [&] { MatMulInto(a, b, out); }},
      {"layer_norm", [&] { LayerNormInto(x, gain, bias, normed); }},
      {"attention", [&] { NeighborAttentionInto(q, key, v, *lists, attn); }},
  };

  const std::vector<std::string> backends = nn::AvailableKernelBackends();
  for (const Micro& micro : micros) {
    nn::SetKernelBackend("scalar");
    micro.run();  // warm caches before any timed leg
    double scalar_s = WallSeconds([&] {
      for (int i = 0; i < reps; ++i) micro.run();
    });
    obs::GaugeSet(std::string("fieldswap.kernel.bench.") + micro.name +
                      ".scalar_s",
                  scalar_s);
    for (const std::string& backend : backends) {
      if (backend == "scalar") continue;
      nn::SetKernelBackend(backend);
      micro.run();
      double backend_s = WallSeconds([&] {
        for (int i = 0; i < reps; ++i) micro.run();
      });
      double speedup = backend_s > 0 ? scalar_s / backend_s : 0;
      obs::GaugeSet(std::string("fieldswap.kernel.bench.") + micro.name +
                        ".simd_s",
                    backend_s);
      obs::GaugeSet(std::string("fieldswap.kernel.bench.") + micro.name +
                        ".speedup",
                    speedup);
      table.AddRow({std::string(micro.name) + " (" + backend + ")",
                    FormatDouble(scalar_s * 1e3 / reps, 3),
                    FormatDouble(backend_s * 1e3 / reps, 3),
                    FormatDouble(speedup, 2) + "x"});
    }
  }
  nn::SetKernelBackend("auto");
}

void Run() {
  PrintBanner("Kernel ops (SIMD backends + int8 serving)",
              "graph-free SIMD serving >= 4x the scalar graph baseline on "
              "an AVX2 host; spans agree across paths");

  const std::vector<std::string> backends = nn::AvailableKernelBackends();
  std::cout << "available backends:";
  for (const std::string& b : backends) std::cout << " " << b;
  std::cout << "  (auto-dispatch picks " << backends.front() << ")\n\n";

  // Single-thread everywhere: this bench isolates per-core kernel speed.
  par::SetThreads(1);

  std::cout << "-- micro-kernels (per-call ms, scalar vs SIMD) --\n";
  TablePrinter micro_table({"kernel", "scalar ms", "simd ms", "speedup"});
  MicroKernels(micro_table);
  if (backends.size() > 1) {
    micro_table.Print(std::cout);
  } else {
    std::cout << "(scalar is the only backend on this host; "
                 "micro comparison skipped)\n";
  }

  // Serving pipeline: encode + predict, sized so GEMMs dominate.
  SequenceModelConfig config;
  config.d_model = EnvInt("FIELDSWAP_KERNEL_BENCH_DMODEL", 96);
  config.num_layers = EnvInt("FIELDSWAP_KERNEL_BENCH_LAYERS", 2);
  const int docs_count = EnvInt("FIELDSWAP_KERNEL_BENCH_DOCS", 24);
  const int reps = EnvInt("FIELDSWAP_KERNEL_BENCH_REPS", 3);
  std::cout << "\n-- serve pipeline: encode+predict, single thread "
            << "(d_model=" << config.d_model
            << ", layers=" << config.num_layers << ", docs=" << docs_count
            << ", reps=" << reps << ") --\n";

  DomainSpec spec = EarningsSpec();
  std::vector<Document> corpus = GenerateCorpus(spec, docs_count, 42, "kb");
  SequenceLabelingModel model(config, spec.Schema());

  // Encode is tokenization + neighbor search — it never touches the kernel
  // layer, so one timing serves every leg's total.
  std::vector<EncodedDoc> encoded;
  double encode_s = WallSeconds([&] {
    for (int rep = 0; rep < reps; ++rep) {
      encoded.clear();
      for (const Document& doc : corpus) {
        encoded.push_back(model.EncodeDoc(doc));
      }
    }
  });

  // Baseline: the seed's serving path — autodiff graph forward + decode on
  // the scalar reference backend.
  std::vector<std::vector<EntitySpan>> base_spans(encoded.size());
  nn::SetKernelBackend("scalar");
  double graph_scalar_s = WallSeconds([&] {
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t i = 0; i < encoded.size(); ++i) {
        base_spans[i] = model.PredictEncodedGraph(encoded[i]);
      }
    }
  });

  // Contract check: graph and graph-free forwards must decode identically
  // within a backend (bit-identical logits).
  bool scalar_bitwise = true;
  for (size_t i = 0; i < encoded.size(); ++i) {
    scalar_bitwise =
        scalar_bitwise && SameSpans(base_spans[i],
                                    model.PredictEncoded(encoded[i]));
  }

  // Kernel path: graph-free forward on the best backend this host has.
  std::vector<std::vector<EntitySpan>> kernel_spans(encoded.size());
  nn::SetKernelBackend(backends.front());
  double kernel_s = WallSeconds([&] {
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t i = 0; i < encoded.size(); ++i) {
        kernel_spans[i] = model.PredictEncoded(encoded[i]);
      }
    }
  });

  // Int8 path: quantize once (the snapshot-build cost), then serve.
  Int8Plan plan;
  double quantize_s = WallSeconds([&] { plan = model.MakeInt8Plan(); });
  std::vector<std::vector<EntitySpan>> int8_spans(encoded.size());
  double int8_s = WallSeconds([&] {
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t i = 0; i < encoded.size(); ++i) {
        int8_spans[i] = model.PredictEncodedInt8(plan, encoded[i]);
      }
    }
  });
  nn::SetKernelBackend("auto");

  int kernel_agree = 0, int8_agree = 0;
  for (size_t i = 0; i < encoded.size(); ++i) {
    kernel_agree += SameSpans(base_spans[i], kernel_spans[i]) ? 1 : 0;
    int8_agree += SameSpans(base_spans[i], int8_spans[i]) ? 1 : 0;
  }

  auto total = [&](double predict_s) { return encode_s + predict_s; };
  double speedup = total(kernel_s) > 0 ? total(graph_scalar_s) /
                                             total(kernel_s)
                                       : 0;
  double int8_speedup =
      total(int8_s) > 0 ? total(graph_scalar_s) / total(int8_s) : 0;

  obs::GaugeSet("fieldswap.kernel.bench.pipeline.encode_s", encode_s);
  obs::GaugeSet("fieldswap.kernel.bench.pipeline.graph_scalar_s",
                graph_scalar_s);
  obs::GaugeSet("fieldswap.kernel.bench.pipeline.kernel_s", kernel_s);
  obs::GaugeSet("fieldswap.kernel.bench.pipeline.int8_s", int8_s);
  obs::GaugeSet("fieldswap.kernel.bench.pipeline.quantize_s", quantize_s);
  obs::GaugeSet("fieldswap.kernel.bench.encode_predict.speedup", speedup);
  obs::GaugeSet("fieldswap.kernel.bench.encode_predict.int8_speedup",
                int8_speedup);
  double per_doc = reps * static_cast<double>(corpus.size());
  obs::GaugeSet("fieldswap.kernel.bench.pipeline.docs_per_s",
                total(kernel_s) > 0 ? per_doc / total(kernel_s) : 0);

  TablePrinter table({"serving path", "encode+predict s", "speedup",
                      "spans agree"});
  table.AddRow({"graph forward, scalar (baseline)",
                FormatDouble(total(graph_scalar_s), 3), "1.00x",
                scalar_bitwise ? "yes (bitwise)" : "NO"});
  table.AddRow({"graph-free, " + backends.front(),
                FormatDouble(total(kernel_s), 3),
                FormatDouble(speedup, 2) + "x",
                std::to_string(kernel_agree) + "/" +
                    std::to_string(encoded.size())});
  table.AddRow({"graph-free int8, " + backends.front(),
                FormatDouble(total(int8_s), 3),
                FormatDouble(int8_speedup, 2) + "x",
                std::to_string(int8_agree) + "/" +
                    std::to_string(encoded.size())});
  table.Print(std::cout);

  std::cout << "\nquantize-at-snapshot cost: "
            << FormatDouble(quantize_s * 1e3, 2) << " ms (once per swap)\n"
            << "acceptance: encode_predict.speedup >= 4x on an AVX2 host "
            << "(got " << FormatDouble(speedup, 2) << "x on "
            << backends.front() << ")\n";
}

}  // namespace
}  // namespace fieldswap

int main() {
  fieldswap::Run();
  return 0;
}
