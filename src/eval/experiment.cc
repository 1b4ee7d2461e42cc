#include "eval/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "doc/corpus.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "synth/generator.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/stats.h"

namespace fieldswap {

ExperimentSetting BaselineSetting() {
  return ExperimentSetting{"baseline", std::nullopt};
}

ExperimentSetting FieldSwapSetting(MappingStrategy strategy) {
  FieldSwapPipelineOptions options;
  options.strategy = strategy;
  return ExperimentSetting{
      "fieldswap (" + std::string(MappingStrategyName(strategy)) + ")",
      options};
}

ExperimentRunner::ExperimentRunner(DomainSpec spec, ExperimentConfig config,
                                   const CandidateScoringModel* candidate_model)
    : spec_(std::move(spec)),
      config_(std::move(config)),
      candidate_model_(candidate_model) {
  // Catch a drifted/bad training configuration here, before the hours of
  // subset x trial legs that would all inherit it.
  std::string train_error = config_.train.Validate();
  FS_CHECK(train_error.empty()) << train_error;
  // The full training pool and the fixed hold-out test set (Table I).
  pool_ = GenerateCorpus(spec_, spec_.train_pool_size, config_.seed,
                         spec_.name + "-train");
  int test_count = std::min(config_.test_size, spec_.test_size);
  test_docs_ = GenerateCorpus(spec_, test_count, config_.seed ^ 0x7e57ULL,
                              spec_.name + "-test");
}

std::vector<Document> ExperimentRunner::Subset(int train_size,
                                               int subset_index) const {
  Rng rng(config_.seed + 7919 * static_cast<uint64_t>(train_size) +
          104729 * static_cast<uint64_t>(subset_index));
  std::vector<size_t> picks = rng.SampleWithoutReplacement(
      pool_.size(), static_cast<size_t>(train_size));
  std::vector<Document> subset;
  subset.reserve(picks.size());
  for (size_t p : picks) subset.push_back(pool_[p]);
  return subset;
}

LearningCurve ExperimentRunner::Run(const ExperimentSetting& setting) {
  FS_TRACE_SPAN("eval.learning_curve");
  obs::CounterAdd("fieldswap.eval.curves");
  LearningCurve curve;
  curve.setting_label = setting.label;

  for (int size : config_.train_sizes) {
    std::vector<double> macros, micros, synth_counts;
    std::map<std::string, std::vector<double>> field_f1s;

    for (int subset_index = 0; subset_index < config_.num_subsets;
         ++subset_index) {
      std::vector<Document> originals = Subset(size, subset_index);

      std::vector<Document> synthetics;
      if (setting.augmentation.has_value()) {
        FieldSwapPipelineOptions options = *setting.augmentation;
        options.swap.max_synthetics = config_.max_synthetics_for_training;
        AugmentationResult augmented =
            RunFieldSwap(originals, spec_, candidate_model_, options);
        synthetics = std::move(augmented.synthetics);
        synth_counts.push_back(static_cast<double>(augmented.stats.generated));
      }

      // Trials are independent (each owns its model, seeded by trial
      // index), so they fan out across the pool; results merge serially
      // in trial order to keep the reported statistics bit-identical for
      // any thread count. With a telemetry recorder attached the trials
      // stay serial — interleaved per-step records from concurrent trials
      // would make the recorded stream order depend on scheduling.
      auto run_trial = [&](size_t trial) {
        FS_TRACE_SPAN("eval.train_trial");
        obs::CounterAdd("fieldswap.eval.trials");
        SequenceModelConfig model_config = config_.model;
        model_config.seed = config_.seed + 31 * static_cast<uint64_t>(trial) +
                            17 * static_cast<uint64_t>(subset_index) + 1;
        SequenceLabelingModel model(model_config, spec_.Schema());

        TrainOptions train = config_.train;
        train.total_steps =
            std::max(config_.min_steps, config_.steps_per_doc * size);
        train.seed = model_config.seed ^ 0x5eed;
        TrainSequenceModel(model, originals, synthetics, train);

        FS_TRACE_SPAN("eval.evaluate");
        // Reader-based eval core; the view is free and the test corpus is
        // shared read-only across concurrent trials.
        doc::VectorCorpusReaderView test_view(test_docs_);
        return EvaluateModel(model, test_view);
      };
      std::vector<EvalResult> trial_evals;
      if (config_.train.telemetry != nullptr) {
        trial_evals.reserve(static_cast<size_t>(config_.num_trials));
        for (int trial = 0; trial < config_.num_trials; ++trial) {
          trial_evals.push_back(run_trial(static_cast<size_t>(trial)));
        }
      } else {
        trial_evals = par::ParallelMap(
            static_cast<size_t>(config_.num_trials), run_trial);
      }
      for (const EvalResult& eval : trial_evals) {
        macros.push_back(eval.macro_f1 * 100.0);
        micros.push_back(eval.micro_f1 * 100.0);
        for (const auto& [field, score] : eval.per_field) {
          field_f1s[field].push_back(score.F1() * 100.0);
        }
      }
    }

    PointResult point;
    point.macro_f1_mean = Mean(macros);
    point.macro_f1_std = StdDev(macros);
    point.micro_f1_mean = Mean(micros);
    point.micro_f1_std = StdDev(micros);
    point.avg_synthetics = Mean(synth_counts);
    for (const auto& [field, values] : field_f1s) {
      point.field_f1_mean[field] = Mean(values);
    }
    curve.by_size[size] = point;
  }
  return curve;
}

SequenceLabelingModel ExperimentRunner::TrainModelFor(
    const ExperimentSetting& setting, int train_size, int subset_index,
    int trial) {
  FS_TRACE_SPAN("eval.train_model_for");
  std::vector<Document> originals = Subset(train_size, subset_index);

  std::vector<Document> synthetics;
  if (setting.augmentation.has_value()) {
    FieldSwapPipelineOptions options = *setting.augmentation;
    options.swap.max_synthetics = config_.max_synthetics_for_training;
    AugmentationResult augmented =
        RunFieldSwap(originals, spec_, candidate_model_, options);
    synthetics = std::move(augmented.synthetics);
  }

  // Seeding mirrors Run()'s per-trial leg exactly, so an attacked eval of
  // (setting, size, subset, trial) stresses the very model the learning
  // curve scored clean.
  SequenceModelConfig model_config = config_.model;
  model_config.seed = config_.seed + 31 * static_cast<uint64_t>(trial) +
                      17 * static_cast<uint64_t>(subset_index) + 1;
  SequenceLabelingModel model(model_config, spec_.Schema());

  TrainOptions train = config_.train;
  train.total_steps =
      std::max(config_.min_steps, config_.steps_per_doc * train_size);
  train.seed = model_config.seed ^ 0x5eed;
  TrainSequenceModel(model, originals, synthetics, train);
  return model;
}

attack::CorpusEvaluator MakeModelEvaluator(SequenceLabelingModel model) {
  return [model = std::move(model)](const std::vector<Document>& docs) {
    EvalResult eval = EvaluateModel(model, docs);
    attack::AttackEval out;
    out.macro_f1 = eval.macro_f1;
    out.micro_f1 = eval.micro_f1;
    for (const auto& [field, score] : eval.per_field) {
      out.per_field_f1[field] = score.F1();
    }
    return out;
  };
}

std::vector<AttackedEvalArm> RunAttackedEval(
    ExperimentRunner& runner, const std::vector<ExperimentSetting>& settings,
    const attack::AttackSuite& suite, const attack::AttackLadderConfig& config,
    int train_size) {
  FS_TRACE_SPAN("eval.attacked_eval");
  std::vector<AttackedEvalArm> arms;
  for (const ExperimentSetting& setting : settings) {
    obs::CounterAdd("fieldswap.attack.arms_run");
    AttackedEvalArm arm;
    arm.setting_label = setting.label;
    SequenceLabelingModel model =
        runner.TrainModelFor(setting, train_size, /*subset_index=*/0,
                             /*trial=*/0);
    arm.report = attack::RunAttackLadder(
        runner.test_docs(), suite, config, MakeModelEvaluator(std::move(model)),
        runner.spec().name + " / " + setting.label);
    arms.push_back(std::move(arm));
  }
  return arms;
}

double ExperimentRunner::CountSynthetics(const ExperimentSetting& setting,
                                         int train_size) {
  if (!setting.augmentation.has_value()) return 0;
  std::vector<double> counts;
  for (int subset_index = 0; subset_index < config_.num_subsets;
       ++subset_index) {
    std::vector<Document> originals = Subset(train_size, subset_index);
    SwapStats stats = CountFieldSwapSynthetics(
        originals, spec_, candidate_model_, *setting.augmentation);
    counts.push_back(static_cast<double>(stats.generated));
  }
  return Mean(counts);
}

CandidateScoringModel PretrainInvoiceCandidateModel(int corpus_size,
                                                    uint64_t seed) {
  FS_TRACE_SPAN("eval.pretrain_candidate_model");
  DomainSpec invoices = InvoicesSpec();
  std::vector<Document> corpus =
      GenerateCorpus(invoices, corpus_size, seed, "invoice");

  std::vector<std::string> field_names;
  for (const FieldDef& def : invoices.fields) {
    field_names.push_back(def.spec.name);
  }
  CandidateModelConfig config;
  config.seed = seed;
  CandidateScoringModel model(config, field_names);

  CandidateTrainOptions train;
  train.seed = seed ^ 0xabcd;
  model.Pretrain(corpus, invoices.Schema(), train);
  return model;
}

CandidateScoringModel GetOrTrainCachedCandidateModel(
    const std::string& cache_path) {
  const uint64_t seed = 99;
  DomainSpec invoices = InvoicesSpec();
  std::vector<std::string> field_names;
  for (const FieldDef& def : invoices.fields) {
    field_names.push_back(def.spec.name);
  }
  CandidateModelConfig config;
  config.seed = seed;
  CandidateScoringModel model(config, field_names);
  if (LoadCheckpoint(cache_path, model.Params())) {
    obs::CounterAdd("fieldswap.eval.candidate_cache_hits");
    return model;
  }
  obs::CounterAdd("fieldswap.eval.candidate_cache_misses");
  model = PretrainInvoiceCandidateModel(EnvInt("FIELDSWAP_PRETRAIN_DOCS", 300),
                                        seed);
  std::filesystem::path parent =
      std::filesystem::path(cache_path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  SaveCheckpoint(cache_path, model.Params());
  return model;
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  int parsed = ParseInt(value, 0);
  return parsed > 0 ? parsed : fallback;
}

void ApplyEnvOverrides(ExperimentConfig& config) {
  config.num_subsets = EnvInt("FIELDSWAP_SUBSETS", config.num_subsets);
  config.num_trials = EnvInt("FIELDSWAP_TRIALS", config.num_trials);
  config.test_size = EnvInt("FIELDSWAP_TEST_DOCS", config.test_size);
  config.steps_per_doc =
      EnvInt("FIELDSWAP_STEPS_PER_DOC", config.steps_per_doc);
  config.min_steps = EnvInt("FIELDSWAP_MIN_STEPS", config.min_steps);
  config.max_synthetics_for_training =
      EnvInt("FIELDSWAP_MAX_SYNTH", config.max_synthetics_for_training);
}

}  // namespace fieldswap
