#ifndef FIELDSWAP_DOC_CORPUS_H_
#define FIELDSWAP_DOC_CORPUS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "doc/document.h"
#include "par/lock_validator.h"
#include "par/parallel.h"
#include "util/logging.h"
#include "util/thread_annotations.h"

namespace fieldswap {
namespace doc {

/// Streaming corpus access behind pluggable format drivers (ISSUE 10).
///
/// A corpus used to mean `std::vector<Document>`, which caps every
/// workload at RAM size and hard-codes one input shape. This header
/// replaces that with three small contracts:
///
///   CorpusReader  — sized random access: `Get(i)` materializes one
///                   document on demand. Thread-safe by contract, so the
///                   parallel layer can fan out over blocks of indices.
///   CorpusWriter  — append-only streaming sink with an explicit
///                   `Finish()` (native/JSONL writers land the file
///                   atomically via temp + rename there).
///   FormatDriver  — names a format, identifies files by magic bytes or
///                   extension, and opens readers / creates writers. The
///                   process-global FormatDriverRegistry hosts the
///                   drivers (native binary, JSONL, and — registered by
///                   src/synth — the lazy synthetic generator).
///
/// Determinism contract: `BlockedMapDocuments` is the one iteration
/// primitive every migrated consumer (trainer, eval, attacks, checksums)
/// builds on. Within a block the map runs on the src/par pool, one task
/// per document; consumption is serial in document order. Because each
/// task is a pure function of (document, index), results are bit-identical
/// at any FIELDSWAP_THREADS value — the same contract src/par documents —
/// while memory stays bounded by one block.

/// Why an operation failed, with enough context to act on: the message
/// carries the parse/IO reason and `line` the 1-based line (JSONL) or
/// record number (native) when one is known.
struct CorpusStatus {
  std::string message;  // empty == success
  long line = 0;        // 1-based; 0 when no position applies

  bool ok() const { return message.empty(); }

  /// "line 12: unterminated token array" or the bare message.
  std::string ToString() const;
};

/// Sized random access to documents. Implementations must make `Get`
/// safe for concurrent calls (the blocked iteration below relies on it).
class CorpusReader {
 public:
  virtual ~CorpusReader() = default;

  virtual size_t size() const = 0;

  /// Materializes document `index` into `*doc`. False with the reason in
  /// `*status` (when non-null) on decode/IO failure.
  virtual bool Get(size_t index, Document* doc,
                   CorpusStatus* status = nullptr) const = 0;

  /// Driver name this reader came from ("native", "jsonl", "synthetic",
  /// "vector", ...).
  virtual std::string format() const = 0;

  /// Human-readable storage details (header fields, byte counts) for
  /// `fieldswap_corpus info`; empty when the backing has none.
  virtual std::string storage_info() const { return ""; }

  /// File extent of record `index` for `fieldswap_corpus index`: absolute
  /// byte offset and stored size. False when the backing store has no
  /// per-record extents (vector, synthetic).
  virtual bool RecordSpan(size_t index, uint64_t* offset,
                          uint64_t* bytes) const {
    (void)index;
    (void)offset;
    (void)bytes;
    return false;
  }
};

/// Append-only streaming sink. Writers buffer at most one document; call
/// `Finish()` to land the output (file-backed writers write a temp
/// sibling and rename it into place there, so a reader never sees a
/// half-written corpus).
class CorpusWriter {
 public:
  virtual ~CorpusWriter() = default;

  /// False on failure (reason in status()); further Adds are no-ops.
  virtual bool Add(const Document& doc) = 0;

  /// Finalizes the output. Idempotent; false on failure.
  virtual bool Finish() = 0;

  virtual const CorpusStatus& status() const = 0;
  virtual std::string format() const = 0;
  virtual uint64_t docs_written() const = 0;
};

/// Reader over an in-memory vector the reader owns.
class VectorCorpusReader : public CorpusReader {
 public:
  explicit VectorCorpusReader(std::vector<Document> docs)
      : docs_(std::move(docs)) {}

  size_t size() const override { return docs_.size(); }
  bool Get(size_t index, Document* doc,
           CorpusStatus* status = nullptr) const override;
  std::string format() const override { return "vector"; }

 private:
  std::vector<Document> docs_;
};

/// Reader over a vector the caller keeps alive — the adapter that lets
/// every legacy `std::vector<Document>&` entry point delegate to the
/// reader-based core without copying.
class VectorCorpusReaderView : public CorpusReader {
 public:
  explicit VectorCorpusReaderView(const std::vector<Document>& docs)
      : docs_(&docs) {}

  size_t size() const override { return docs_->size(); }
  bool Get(size_t index, Document* doc,
           CorpusStatus* status = nullptr) const override;
  std::string format() const override { return "vector"; }

 private:
  const std::vector<Document>* docs_;
};

/// Writer that collects into an in-memory vector (the adapter for legacy
/// APIs that return `std::vector<Document>`).
class VectorCorpusWriter : public CorpusWriter {
 public:
  bool Add(const Document& doc) override;
  bool Finish() override { return true; }
  const CorpusStatus& status() const override { return status_; }
  std::string format() const override { return "vector"; }
  uint64_t docs_written() const override { return docs_.size(); }

  std::vector<Document>& docs() { return docs_; }
  std::vector<Document> TakeDocs() { return std::move(docs_); }

 private:
  std::vector<Document> docs_;
  CorpusStatus status_;
};

/// Prefix view over another reader (`fieldswap_corpus convert --limit`).
/// The base must outlive it.
class CorpusSlice : public CorpusReader {
 public:
  CorpusSlice(const CorpusReader& base, size_t limit)
      : base_(&base), limit_(std::min(limit, base.size())) {}

  size_t size() const override { return limit_; }
  bool Get(size_t index, Document* doc,
           CorpusStatus* status = nullptr) const override {
    return index < limit_ && base_->Get(index, doc, status);
  }
  std::string format() const override { return base_->format(); }

 private:
  const CorpusReader* base_;
  size_t limit_;
};

/// One pluggable corpus format. Drivers are stateless and registered once
/// with the global registry; `Identify` gets the file's first bytes plus
/// its path so magic sniffing can fall back to the extension.
class FormatDriver {
 public:
  virtual ~FormatDriver() = default;

  virtual std::string name() const = 0;
  virtual std::string extension() const = 0;  // with the dot, e.g. ".fsc"
  virtual std::string description() const = 0;
  virtual bool can_write() const = 0;

  /// True when `magic` (up to kMagicProbeBytes leading bytes of the file)
  /// or the path's extension marks the file as this format.
  virtual bool Identify(std::string_view magic,
                        const std::string& path) const = 0;

  /// Opens a reader; null with the reason in `*status` on failure.
  virtual std::unique_ptr<CorpusReader> Open(const std::string& path,
                                             CorpusStatus* status) const = 0;

  /// Creates a streaming writer; null with the reason in `*status`.
  /// Default: the format is read-only.
  virtual std::unique_ptr<CorpusWriter> Create(const std::string& path,
                                               CorpusStatus* status) const;
};

/// Registry row for api::ListFormats / `--list-formats`.
struct FormatInfo {
  std::string name;
  std::string extension;
  std::string description;
  bool can_write = false;
};

/// Leading bytes handed to FormatDriver::Identify.
inline constexpr size_t kMagicProbeBytes = 64;

/// Process-global driver registry (GDAL-style register/identify/open).
/// The native and JSONL drivers self-register on first use; the synthetic
/// driver is registered by synth::RegisterSyntheticCorpusDriver() (called
/// from every api:: corpus entry point) because doc cannot depend on the
/// generator layer.
class FormatDriverRegistry {
 public:
  static FormatDriverRegistry& Global();

  /// Registers a driver. Idempotent by name: a duplicate registration is
  /// ignored (never swapped), so driver pointers handed out by Find or
  /// IdentifyFile stay valid for the life of the process.
  void Register(std::unique_ptr<FormatDriver> driver);

  /// Driver by name, or null. Registered drivers live for the process.
  const FormatDriver* Find(const std::string& name) const;

  /// Sniffs the file's leading bytes and asks each driver (registration
  /// order) to identify it; falls back to extension matching inside the
  /// drivers. Null with an actionable message — including the known
  /// format names — in `*status`.
  const FormatDriver* IdentifyFile(const std::string& path,
                                   CorpusStatus* status) const;

  /// Registration-order metadata for every driver.
  std::vector<FormatInfo> ListFormats() const;

 private:
  FormatDriverRegistry();

  mutable util::OrderedMutex mu_{"FormatDriverRegistry::mu_"};
  std::vector<std::unique_ptr<FormatDriver>> drivers_ FS_GUARDED_BY(mu_);
};

/// Opens `path` through the registry. Empty `format` auto-identifies by
/// magic/extension; otherwise the named driver is used. Null with the
/// reason (unknown format names list the registered ones) in `*status`.
std::unique_ptr<CorpusReader> OpenCorpus(const std::string& path,
                                         const std::string& format = "",
                                         CorpusStatus* status = nullptr);

/// Creates a streaming writer at `path`. Empty `format` picks the driver
/// whose extension matches, defaulting to the native format.
std::unique_ptr<CorpusWriter> CreateCorpus(const std::string& path,
                                           const std::string& format = "",
                                           CorpusStatus* status = nullptr);

/// The native binary Document codec (raw f64 geometry, so write->read->
/// write is byte-identical). Exposed for tests; the native driver is the
/// normal consumer.
void EncodeDocumentBinary(const Document& doc, std::string* out);

/// Bounds-checked decode of EncodeDocumentBinary output. Hostile input
/// yields false with a reason, never UB.
bool DecodeDocumentBinary(std::string_view bytes, Document* doc,
                          CorpusStatus* status = nullptr);

/// `Get` that treats failure as a program error. Readers validate their
/// backing at open, so a mid-iteration decode failure is corruption the
/// caller cannot meaningfully continue past.
Document ReadDocumentOrDie(const CorpusReader& reader, size_t index);

/// Block size that keeps streaming memory in the low MB at typical
/// document sizes while giving the pool enough per-block parallelism.
inline constexpr size_t kDefaultStreamBlock = 256;

/// The deterministic sharded-iteration primitive. Streams `reader` in
/// blocks of `block_size`: within a block, `map(doc, index)` runs on the
/// src/par pool (one pure task per document); then `consume(index,
/// result)` runs serially in document order before the next block starts.
/// At most one block of documents + results is live, and the consume
/// sequence is bit-identical at any FIELDSWAP_THREADS — including 1.
template <typename Map, typename Consume>
void BlockedMapDocuments(const CorpusReader& reader, size_t block_size,
                         Map&& map, Consume&& consume) {
  const size_t n = reader.size();
  if (block_size == 0) block_size = kDefaultStreamBlock;
  for (size_t base = 0; base < n; base += block_size) {
    const size_t count = std::min(block_size, n - base);
    auto results = par::ParallelMap(count, [&](size_t i) {
      Document doc = ReadDocumentOrDie(reader, base + i);
      return map(doc, base + i);
    });
    for (size_t i = 0; i < count; ++i) {
      consume(base + i, results[i]);
    }
  }
}

/// Serial in-order visit (convert loops, exporters).
template <typename Fn>
void ForEachDocument(const CorpusReader& reader, Fn&& fn) {
  for (size_t i = 0; i < reader.size(); ++i) {
    Document doc = ReadDocumentOrDie(reader, i);
    fn(doc, i);
  }
}

/// Order-preserving FNV fold over DocumentToJson of every document — the
/// same value the pre-streaming vector checksum produced (golden.json and
/// examples/corpus_checksum pin it). JSON rendering fans out per block;
/// the fold itself is serial in document order, so the value is identical
/// at any thread count.
uint64_t CorpusChecksum(const CorpusReader& reader,
                        size_t block_size = kDefaultStreamBlock);

/// Materializes the whole corpus — the bridge back to vector-based call
/// sites. Deliberately unbounded; prefer BlockedMapDocuments for large
/// corpora.
std::vector<Document> ReadAllDocuments(const CorpusReader& reader);

}  // namespace doc
}  // namespace fieldswap

#endif  // FIELDSWAP_DOC_CORPUS_H_
