#include "model/trainer.h"

#include <algorithm>
#include <cmath>

#include "doc/span_match.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "util/logging.h"

namespace fieldswap {

double MicroF1OnDocs(const SequenceLabelingModel& model,
                     const std::vector<Document>& docs) {
  // Prediction fans out across the pool; counts accumulate serially in
  // document order. Matching is the shared one-to-one implementation from
  // doc/span_match.h — the same scoring the eval harness uses — so a
  // duplicated predicted span counts one tp + one fp instead of two tps.
  std::vector<std::vector<EntitySpan>> predictions = par::ParallelMap(
      docs.size(), [&](size_t i) { return model.Predict(docs[i]); });
  SpanMatchCounts counts;
  for (size_t i = 0; i < docs.size(); ++i) {
    counts += MatchSpans(docs[i].annotations(), predictions[i]);
  }
  return F1FromCounts(counts);
}

namespace {

/// Ascending ids of the rows that `ids` reaches in any pooled document.
std::vector<int> RowsReached(int rows, const std::vector<EncodedDoc>& orig,
                             const std::vector<EncodedDoc>& synth,
                             std::vector<int> EncodedDoc::*ids) {
  std::vector<char> reached(static_cast<size_t>(rows), 0);
  for (const std::vector<EncodedDoc>* pool : {&orig, &synth}) {
    for (const EncodedDoc& doc : *pool) {
      for (int id : doc.*ids) reached[static_cast<size_t>(id)] = 1;
    }
  }
  std::vector<int> live;
  for (int r = 0; r < rows; ++r) {
    if (reached[static_cast<size_t>(r)] != 0) live.push_back(r);
  }
  return live;
}

/// Narrows the optimizer to the embedding rows the training pools reach.
/// Every step's loss comes from one pooled document, and an embedding
/// lookup's backward only scatter-adds into the rows it read, so any other
/// row's gradient is exactly zero at every step (AdamOptimizer::SetLiveRows).
void SetEmbeddingLiveRows(const std::vector<NamedParam>& params,
                          const std::vector<EncodedDoc>& orig,
                          const std::vector<EncodedDoc>& synth,
                          AdamOptimizer& optimizer) {
  int narrowed = 0;
  for (size_t p = 0; p < params.size(); ++p) {
    std::vector<int> EncodedDoc::*ids = nullptr;
    if (params[p].name == "seq.text_emb.table") ids = &EncodedDoc::text_ids;
    if (params[p].name == "seq.shape_emb.table") ids = &EncodedDoc::shape_ids;
    if (ids == nullptr) continue;
    optimizer.SetLiveRows(
        p, RowsReached(params[p].param->value.rows(), orig, synth, ids));
    ++narrowed;
  }
  FS_CHECK_EQ(narrowed, 2) << "embedding tables not found by name";
}

}  // namespace

TrainResult TrainSequenceModel(SequenceLabelingModel& model,
                               const doc::CorpusReader& originals,
                               const doc::CorpusReader* synthetics,
                               const TrainOptions& options) {
  FS_TRACE_SPAN("train.sequence_model");
  obs::CounterAdd("fieldswap.train.runs");
  FS_CHECK(originals.size() > 0);
  std::string options_error = options.Validate();
  FS_CHECK(options_error.empty()) << options_error;
  Rng rng(options.seed);

  // 90/10 split of the originals; synthetics go to the training pool only.
  std::vector<size_t> order = rng.SampleWithoutReplacement(
      originals.size(), originals.size());
  size_t val_count = std::max<size_t>(1, originals.size() / 10);
  if (originals.size() == 1) val_count = 0;  // degenerate: validate on train
  std::vector<size_t> train_indices;
  std::vector<Document> val_docs;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i < val_count) {
      val_docs.push_back(doc::ReadDocumentOrDie(originals, order[i]));
    } else {
      train_indices.push_back(order[i]);
    }
  }
  if (val_docs.empty()) val_docs.push_back(doc::ReadDocumentOrDie(originals, 0));

  // Pre-encode original and synthetic pools once. Each task pulls its
  // document from the reader and encodes it independently on the pool, so
  // at most one raw Document per in-flight task is resident; ParallelMap
  // keeps the pool order identical to the serial loop's.
  std::vector<EncodedDoc> encoded_orig;
  std::vector<EncodedDoc> encoded_synth;
  {
    FS_TRACE_SPAN("train.encode_pools");
    encoded_orig = par::ParallelMap(train_indices.size(), [&](size_t i) {
      return model.EncodeDoc(doc::ReadDocumentOrDie(originals, train_indices[i]));
    });
    const size_t synth_count = synthetics != nullptr ? synthetics->size() : 0;
    encoded_synth = par::ParallelMap(synth_count, [&](size_t i) {
      return model.EncodeDoc(doc::ReadDocumentOrDie(*synthetics, i));
    });
  }

  AdamOptimizer::Options opt_options;
  opt_options.learning_rate = options.learning_rate;
  std::vector<NamedParam> params = model.Params();
  AdamOptimizer optimizer(params, opt_options);
  SetEmbeddingLiveRows(params, encoded_orig, encoded_synth, optimizer);

  TrainResult result;
  std::vector<Matrix> best_snapshot = SnapshotParams(params);
  double best_f1 = -1.0;

  for (int step = 0; step < options.total_steps; ++step) {
    obs::Stopwatch step_timer;
    // Bernoulli is drawn unconditionally so the training stream is
    // identical whether the synthetic pool is empty or merely unused.
    bool use_synth =
        rng.Bernoulli(options.synthetic_fraction) && !encoded_synth.empty();
    const EncodedDoc& doc = use_synth
                                ? encoded_synth[rng.Index(encoded_synth.size())]
                                : encoded_orig[rng.Index(encoded_orig.size())];
    Var loss = model.Loss(doc);
    result.final_loss = loss->value.At(0, 0);
    Backward(loss);
    obs::GaugeSet("fieldswap.train.grad_norm", optimizer.Step());
    ++result.steps;

    double step_ms = step_timer.ElapsedMs();
    obs::CounterAdd("fieldswap.train.steps");
    if (use_synth) obs::CounterAdd("fieldswap.train.synthetic_steps");
    obs::HistogramObserve("fieldswap.train.step_ms", step_ms);
    obs::GaugeSet("fieldswap.train.loss", result.final_loss);
    if (options.telemetry != nullptr) {
      options.telemetry->RecordStep(step + 1, result.final_loss, step_ms);
    }

    if ((step + 1) % options.validate_every == 0 ||
        step + 1 == options.total_steps) {
      FS_TRACE_SPAN("train.validate");
      double f1 = MicroF1OnDocs(model, val_docs);
      obs::CounterAdd("fieldswap.train.validations");
      obs::GaugeSet("fieldswap.train.validation_f1", f1);
      bool improved = f1 > best_f1;
      if (improved) {
        best_f1 = f1;
        best_snapshot = SnapshotParams(params);
      }
      if (options.telemetry != nullptr) {
        options.telemetry->RecordValidation(step + 1, f1, improved);
      }
    }
  }

  RestoreParams(params, best_snapshot);
  result.best_validation_f1 = std::max(best_f1, 0.0);
  return result;
}

TrainResult TrainSequenceModel(SequenceLabelingModel& model,
                               const std::vector<Document>& originals,
                               const std::vector<Document>& synthetics,
                               const TrainOptions& options) {
  doc::VectorCorpusReaderView orig_view(originals);
  doc::VectorCorpusReaderView synth_view(synthetics);
  return TrainSequenceModel(model, orig_view, &synth_view, options);
}

}  // namespace fieldswap
