#include "doc/corpus.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>

#include "doc/formats/record_file.h"
#include "doc/serialize.h"
#include "util/hash.h"

namespace fieldswap {
namespace doc {

namespace {

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool SetStatus(CorpusStatus* status, std::string message, long line = 0) {
  if (status != nullptr) {
    status->message = std::move(message);
    status->line = line;
  }
  return false;
}

// --------------------------------------------- binary Document codec --

void AppendU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendI32(std::string& out, int32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendF64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendStr(std::string& out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out += s;
}

/// Bounds-checked reader over a hostile record payload — same discipline
/// as serve/flat's directory cursor: every Read* fails cleanly instead of
/// touching bytes past the end.
class ByteCursor {
 public:
  explicit ByteCursor(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadStr(std::string* out) {
    uint32_t len = 0;
    if (!ReadU32(&len) || len > remaining()) return false;
    out->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  bool ReadRaw(void* out, size_t len) {
    if (len > remaining()) return false;
    std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// Minimum encoded sizes, used to bound hostile element counts before any
// allocation: a claimed count can never exceed remaining_bytes / minimum.
constexpr size_t kMinTokenBytes = 4 + 4 * 8 + 4;  // text len + box + line
constexpr size_t kMinLineBytes = 4;               // index count
constexpr size_t kMinAnnotationBytes = 4 + 4 + 4; // field len + first + count

}  // namespace

std::string CorpusStatus::ToString() const {
  if (line <= 0) return message;
  return "line " + std::to_string(line) + ": " + message;
}

void EncodeDocumentBinary(const Document& doc, std::string* out) {
  out->clear();
  AppendStr(*out, doc.id());
  AppendStr(*out, doc.domain());
  AppendF64(*out, doc.width());
  AppendF64(*out, doc.height());

  AppendU32(*out, static_cast<uint32_t>(doc.num_tokens()));
  for (int i = 0; i < doc.num_tokens(); ++i) {
    const Token& tok = doc.token(i);
    AppendStr(*out, tok.text);
    AppendF64(*out, tok.box.x_min);
    AppendF64(*out, tok.box.y_min);
    AppendF64(*out, tok.box.x_max);
    AppendF64(*out, tok.box.y_max);
    AppendI32(*out, tok.line);
  }

  AppendU32(*out, static_cast<uint32_t>(doc.lines().size()));
  for (const Line& line : doc.lines()) {
    AppendU32(*out, static_cast<uint32_t>(line.token_indices.size()));
    for (int ti : line.token_indices) AppendI32(*out, ti);
  }

  AppendU32(*out, static_cast<uint32_t>(doc.annotations().size()));
  for (const EntitySpan& span : doc.annotations()) {
    AppendStr(*out, span.field);
    AppendI32(*out, span.first_token);
    AppendI32(*out, span.num_tokens);
  }
}

bool DecodeDocumentBinary(std::string_view bytes, Document* doc,
                          CorpusStatus* status) {
  ByteCursor cursor(bytes);
  std::string id, domain;
  double width = 0, height = 0;
  if (!cursor.ReadStr(&id) || !cursor.ReadStr(&domain) ||
      !cursor.ReadF64(&width) || !cursor.ReadF64(&height)) {
    return SetStatus(status, "truncated document header");
  }
  if (std::string_view why = PageGeometryError(width, height); !why.empty()) {
    return SetStatus(status, std::string(why));
  }
  Document result(id, domain, width, height);

  uint32_t token_count = 0;
  if (!cursor.ReadU32(&token_count) ||
      token_count > cursor.remaining() / kMinTokenBytes) {
    return SetStatus(status, "token count out of bounds");
  }
  for (uint32_t i = 0; i < token_count; ++i) {
    std::string text;
    double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
    int32_t line = -1;
    if (!cursor.ReadStr(&text) || !cursor.ReadF64(&x0) ||
        !cursor.ReadF64(&y0) || !cursor.ReadF64(&x1) || !cursor.ReadF64(&y1) ||
        !cursor.ReadI32(&line)) {
      return SetStatus(status, "truncated token " + std::to_string(i));
    }
    const BBox box{x0, y0, x1, y1};
    if (std::string_view why = BoxGeometryError(box); !why.empty()) {
      return SetStatus(status,
                       "token " + std::to_string(i) + ": " + std::string(why));
    }
    result.AddToken(std::move(text), box);
  }

  uint32_t line_count = 0;
  if (!cursor.ReadU32(&line_count) ||
      line_count > cursor.remaining() / kMinLineBytes) {
    return SetStatus(status, "line count out of bounds");
  }
  std::vector<Line> lines;
  lines.reserve(line_count);
  for (uint32_t li = 0; li < line_count; ++li) {
    uint32_t index_count = 0;
    if (!cursor.ReadU32(&index_count) ||
        index_count > cursor.remaining() / sizeof(int32_t)) {
      return SetStatus(status, "line " + std::to_string(li) +
                                   " index count out of bounds");
    }
    Line line;
    line.token_indices.reserve(index_count);
    for (uint32_t i = 0; i < index_count; ++i) {
      int32_t ti = 0;
      if (!cursor.ReadI32(&ti)) {
        return SetStatus(status, "truncated line " + std::to_string(li));
      }
      if (ti < 0 || ti >= result.num_tokens()) {
        return SetStatus(status, "line " + std::to_string(li) +
                                     " references token " +
                                     std::to_string(ti) + " out of range");
      }
      // Recompute the line box from member tokens, exactly as the JSONL
      // path does — the box is derived state, not stored.
      line.box = line.token_indices.empty()
                     ? result.token(ti).box
                     : line.box.Union(result.token(ti).box);
      line.token_indices.push_back(ti);
    }
    lines.push_back(std::move(line));
  }
  result.set_lines(std::move(lines));

  uint32_t annotation_count = 0;
  if (!cursor.ReadU32(&annotation_count) ||
      annotation_count > cursor.remaining() / kMinAnnotationBytes) {
    return SetStatus(status, "annotation count out of bounds");
  }
  for (uint32_t i = 0; i < annotation_count; ++i) {
    std::string field;
    int32_t first = 0, count = 0;
    if (!cursor.ReadStr(&field) || !cursor.ReadI32(&first) ||
        !cursor.ReadI32(&count)) {
      return SetStatus(status, "truncated annotation " + std::to_string(i));
    }
    if (first < 0 || count <= 0 ||
        static_cast<int64_t>(first) + count > result.num_tokens()) {
      return SetStatus(status, "annotation \"" + field +
                                   "\" span out of bounds");
    }
    result.AddAnnotation(EntitySpan{std::move(field), first, count});
  }
  if (!cursor.AtEnd()) {
    return SetStatus(status, "trailing bytes after document payload");
  }
  *doc = std::move(result);
  return true;
}

// -------------------------------------------------- vector adapters --

bool VectorCorpusReader::Get(size_t index, Document* doc,
                             CorpusStatus* status) const {
  if (index >= docs_.size()) {
    return SetStatus(status, "document index out of range");
  }
  *doc = docs_[index];
  return true;
}

bool VectorCorpusReaderView::Get(size_t index, Document* doc,
                                 CorpusStatus* status) const {
  if (index >= docs_->size()) {
    return SetStatus(status, "document index out of range");
  }
  *doc = (*docs_)[index];
  return true;
}

bool VectorCorpusWriter::Add(const Document& doc) {
  docs_.push_back(doc);
  return true;
}

// --------------------------------------------------- native driver --

namespace {

class NativeCorpusReader : public CorpusReader {
 public:
  explicit NativeCorpusReader(std::unique_ptr<formats::RecordFileReader> file)
      : file_(std::move(file)) {}

  size_t size() const override { return file_->size(); }

  bool Get(size_t index, Document* doc,
           CorpusStatus* status) const override {
    std::string payload, error;
    if (!file_->Read(index, &payload, &error)) {
      return SetStatus(status, error, static_cast<long>(index) + 1);
    }
    CorpusStatus decode_status;
    if (!DecodeDocumentBinary(payload, doc, &decode_status)) {
      return SetStatus(status, decode_status.message,
                       static_cast<long>(index) + 1);
    }
    return true;
  }

  std::string format() const override { return "native"; }

  std::string storage_info() const override {
    const uint64_t records_size = file_->index_offset() - formats::kRecordHeaderSize;
    std::string info;
    info += "format_version " + std::to_string(formats::kRecordFormatVersion) + "\n";
    info += "file_size " + std::to_string(file_->file_size()) + "\n";
    char checksum_hex[32];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  static_cast<unsigned long long>(file_->checksum()));
    info += "checksum " + std::string(checksum_hex) + "\n";
    info += "record_count " + std::to_string(file_->size()) + "\n";
    info += "records_bytes " + std::to_string(records_size) + "\n";
    info += "index_offset " + std::to_string(file_->index_offset()) + "\n";
    return info;
  }

  bool RecordSpan(size_t index, uint64_t* offset,
                  uint64_t* bytes) const override {
    if (index >= file_->size()) return false;
    *offset = file_->offset(index);
    *bytes = file_->payload_length(index) + sizeof(uint32_t);
    return true;
  }

 private:
  std::unique_ptr<formats::RecordFileReader> file_;
};

class NativeCorpusWriter : public CorpusWriter {
 public:
  explicit NativeCorpusWriter(std::unique_ptr<formats::RecordFileWriter> file)
      : file_(std::move(file)) {}

  bool Add(const Document& doc) override {
    if (!status_.ok()) return false;
    EncodeDocumentBinary(doc, &scratch_);
    if (!file_->Append(scratch_)) {
      SetStatus(&status_, file_->error(),
                static_cast<long>(file_->record_count()) + 1);
      return false;
    }
    return true;
  }

  bool Finish() override {
    if (!status_.ok()) return false;
    if (!file_->Finish()) {
      SetStatus(&status_, file_->error());
      return false;
    }
    return true;
  }

  const CorpusStatus& status() const override { return status_; }
  std::string format() const override { return "native"; }
  uint64_t docs_written() const override { return file_->record_count(); }

 private:
  std::unique_ptr<formats::RecordFileWriter> file_;
  std::string scratch_;
  CorpusStatus status_;
};

class NativeFormatDriver : public FormatDriver {
 public:
  std::string name() const override { return "native"; }
  std::string extension() const override { return ".fsc"; }
  std::string description() const override {
    return "native binary records ('FSCR'): length-prefixed, "
           "FNV-checksummed, O(1) random access";
  }
  bool can_write() const override { return true; }

  bool Identify(std::string_view magic,
                const std::string& path) const override {
    if (magic.size() >= 4 && magic.substr(0, 4) == "FSCR") return true;
    return EndsWith(path, extension());
  }

  std::unique_ptr<CorpusReader> Open(const std::string& path,
                                     CorpusStatus* status) const override {
    std::string error;
    std::unique_ptr<formats::RecordFileReader> file =
        formats::RecordFileReader::Open(path, &error);
    if (file == nullptr) {
      SetStatus(status, error);
      return nullptr;
    }
    return std::make_unique<NativeCorpusReader>(std::move(file));
  }

  std::unique_ptr<CorpusWriter> Create(const std::string& path,
                                       CorpusStatus* status) const override {
    std::string error;
    std::unique_ptr<formats::RecordFileWriter> file =
        formats::RecordFileWriter::Create(path, &error);
    if (file == nullptr) {
      SetStatus(status, error);
      return nullptr;
    }
    return std::make_unique<NativeCorpusWriter>(std::move(file));
  }
};

// ---------------------------------------------------- jsonl driver --

/// Byte extent (plus source line number) of one non-empty JSONL line.
struct JsonlLineRef {
  uint64_t offset = 0;
  uint32_t length = 0;    // without the newline
  uint32_t line_number = 0;  // 1-based, blank lines counted
};

class JsonlCorpusReader : public CorpusReader {
 public:
  JsonlCorpusReader(std::string path, int fd, std::vector<JsonlLineRef> lines)
      : path_(std::move(path)), fd_(fd), lines_(std::move(lines)) {}

  ~JsonlCorpusReader() override { close(fd_); }

  size_t size() const override { return lines_.size(); }

  bool Get(size_t index, Document* doc,
           CorpusStatus* status) const override {
    if (index >= lines_.size()) {
      return SetStatus(status, "document index out of range");
    }
    const JsonlLineRef& ref = lines_[index];
    std::string line(ref.length, '\0');
    size_t got = 0;
    while (got < line.size()) {
      ssize_t n = pread(fd_, line.data() + got, line.size() - got,
                        static_cast<off_t>(ref.offset + got));
      if (n <= 0) {
        return SetStatus(status, path_ + ": short read",
                         static_cast<long>(ref.line_number));
      }
      got += static_cast<size_t>(n);
    }
    std::string error;
    std::optional<Document> parsed = DocumentFromJson(line, &error);
    if (!parsed.has_value()) {
      return SetStatus(status, error, static_cast<long>(ref.line_number));
    }
    *doc = std::move(*parsed);
    return true;
  }

  std::string format() const override { return "jsonl"; }

  std::string storage_info() const override {
    uint64_t bytes = 0;
    if (!lines_.empty()) {
      bytes = lines_.back().offset + lines_.back().length;
    }
    return "document_lines " + std::to_string(lines_.size()) + "\n" +
           "data_bytes " + std::to_string(bytes) + "\n";
  }

  bool RecordSpan(size_t index, uint64_t* offset,
                  uint64_t* bytes) const override {
    if (index >= lines_.size()) return false;
    *offset = lines_[index].offset;
    *bytes = lines_[index].length;
    return true;
  }

 private:
  std::string path_;
  int fd_;
  std::vector<JsonlLineRef> lines_;
};

class JsonlCorpusWriter : public CorpusWriter {
 public:
  JsonlCorpusWriter(std::string path, std::ofstream out)
      : path_(std::move(path)), tmp_path_(path_ + ".tmp"),
        out_(std::move(out)) {}

  ~JsonlCorpusWriter() override {
    if (!finished_) {
      out_.close();
      std::remove(tmp_path_.c_str());
    }
  }

  bool Add(const Document& doc) override {
    if (!status_.ok()) return false;
    out_ << DocumentToJson(doc) << "\n";
    if (!out_.good()) {
      return SetStatus(&status_, "short write to " + tmp_path_,
                       static_cast<long>(docs_) + 1);
    }
    ++docs_;
    return true;
  }

  bool Finish() override {
    if (finished_) return status_.ok();
    if (!status_.ok()) return false;
    out_.close();
    if (out_.fail()) return SetStatus(&status_, "cannot close " + tmp_path_);
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      std::remove(tmp_path_.c_str());
      return SetStatus(&status_, "cannot rename " + tmp_path_ +
                                     " into place");
    }
    finished_ = true;
    return true;
  }

  const CorpusStatus& status() const override { return status_; }
  std::string format() const override { return "jsonl"; }
  uint64_t docs_written() const override { return docs_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  uint64_t docs_ = 0;
  bool finished_ = false;
  CorpusStatus status_;
};

class JsonlFormatDriver : public FormatDriver {
 public:
  std::string name() const override { return "jsonl"; }
  std::string extension() const override { return ".jsonl"; }
  std::string description() const override {
    return "one DocumentToJson document per line (the interchange format "
           "SaveCorpusJsonl always wrote)";
  }
  bool can_write() const override { return true; }

  bool Identify(std::string_view magic,
                const std::string& path) const override {
    // Every DocumentToJson line starts with this exact prefix.
    if (magic.size() >= 6 && magic.substr(0, 6) == "{\"id\":") return true;
    return EndsWith(path, extension());
  }

  std::unique_ptr<CorpusReader> Open(const std::string& path,
                                     CorpusStatus* status) const override {
    int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      SetStatus(status, "cannot open " + path);
      return nullptr;
    }
    // One buffered pass indexes the byte extent of every non-empty line;
    // parsing stays lazy (Get), so opening a huge corpus is I/O-bound and
    // memory stays at 16 bytes per document.
    std::vector<JsonlLineRef> lines;
    std::vector<char> buffer(1 << 20);
    uint64_t file_pos = 0, line_start = 0;
    uint32_t line_number = 1;
    bool line_has_bytes = false;
    for (;;) {
      ssize_t n = read(fd, buffer.data(), buffer.size());
      if (n < 0) {
        close(fd);
        SetStatus(status, "read error in " + path);
        return nullptr;
      }
      if (n == 0) break;
      for (ssize_t i = 0; i < n; ++i) {
        if (buffer[static_cast<size_t>(i)] == '\n') {
          const uint64_t line_len = file_pos - line_start;
          if (line_has_bytes) {
            if (line_len > UINT32_MAX) {
              close(fd);
              SetStatus(status, path + ": line too long",
                        static_cast<long>(line_number));
              return nullptr;
            }
            lines.push_back({line_start, static_cast<uint32_t>(line_len),
                             line_number});
          }
          line_start = file_pos + 1;
          line_has_bytes = false;
          ++line_number;
        } else {
          line_has_bytes = true;
        }
        ++file_pos;
      }
    }
    if (line_has_bytes) {  // final line without trailing newline
      const uint64_t line_len = file_pos - line_start;
      if (line_len > UINT32_MAX) {
        close(fd);
        SetStatus(status, path + ": line too long",
                  static_cast<long>(line_number));
        return nullptr;
      }
      lines.push_back({line_start, static_cast<uint32_t>(line_len),
                       line_number});
    }
    return std::make_unique<JsonlCorpusReader>(path, fd, std::move(lines));
  }

  std::unique_ptr<CorpusWriter> Create(const std::string& path,
                                       CorpusStatus* status) const override {
    std::ofstream out(path + ".tmp", std::ios::trunc);
    if (!out) {
      SetStatus(status, "cannot open " + path + ".tmp for writing");
      return nullptr;
    }
    return std::make_unique<JsonlCorpusWriter>(path, std::move(out));
  }
};

}  // namespace

// -------------------------------------------------------- registry --

std::unique_ptr<CorpusWriter> FormatDriver::Create(const std::string& path,
                                                   CorpusStatus* status) const {
  (void)path;
  SetStatus(status, "format '" + name() + "' is read-only");
  return nullptr;
}

FormatDriverRegistry::FormatDriverRegistry() {
  // The built-in file formats register here rather than via static
  // initializers, which static-library linking is free to drop.
  drivers_.push_back(std::make_unique<NativeFormatDriver>());
  drivers_.push_back(std::make_unique<JsonlFormatDriver>());
}

FormatDriverRegistry& FormatDriverRegistry::Global() {
  static FormatDriverRegistry* registry = new FormatDriverRegistry();
  return *registry;
}

void FormatDriverRegistry::Register(std::unique_ptr<FormatDriver> driver) {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  for (const std::unique_ptr<FormatDriver>& existing : drivers_) {
    // First registration wins: callers holding a driver pointer must never
    // see it invalidated, so re-registration is a no-op, not a swap.
    if (existing->name() == driver->name()) return;
  }
  drivers_.push_back(std::move(driver));
}

const FormatDriver* FormatDriverRegistry::Find(const std::string& name) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  for (const std::unique_ptr<FormatDriver>& driver : drivers_) {
    if (driver->name() == name) return driver.get();
  }
  return nullptr;
}

std::vector<FormatInfo> FormatDriverRegistry::ListFormats() const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  std::vector<FormatInfo> infos;
  infos.reserve(drivers_.size());
  for (const std::unique_ptr<FormatDriver>& driver : drivers_) {
    infos.push_back({driver->name(), driver->extension(),
                     driver->description(), driver->can_write()});
  }
  return infos;
}

const FormatDriver* FormatDriverRegistry::IdentifyFile(
    const std::string& path, CorpusStatus* status) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetStatus(status, "cannot open " + path);
    return nullptr;
  }
  char probe_bytes[kMagicProbeBytes] = {0};
  in.read(probe_bytes, sizeof(probe_bytes));
  std::string_view probe(probe_bytes,
                         static_cast<size_t>(std::max<std::streamsize>(
                             in.gcount(), 0)));

  // Snapshot under the lock, probe outside it: Identify is driver code
  // this registry must not call while holding its own mutex.
  std::vector<const FormatDriver*> drivers;
  {
    std::lock_guard<util::OrderedMutex> lock(mu_);
    drivers.reserve(drivers_.size());
    for (const std::unique_ptr<FormatDriver>& driver : drivers_) {
      drivers.push_back(driver.get());
    }
  }
  for (const FormatDriver* driver : drivers) {
    if (driver->Identify(probe, path)) return driver;
  }
  std::string known;
  for (const FormatDriver* driver : drivers) {
    if (!known.empty()) known += ", ";
    known += driver->name();
  }
  SetStatus(status, "unrecognized corpus format for " + path +
                        "; registered formats: " + known);
  return nullptr;
}

std::unique_ptr<CorpusReader> OpenCorpus(const std::string& path,
                                         const std::string& format,
                                         CorpusStatus* status) {
  FormatDriverRegistry& registry = FormatDriverRegistry::Global();
  const FormatDriver* driver = nullptr;
  if (format.empty()) {
    driver = registry.IdentifyFile(path, status);
  } else {
    driver = registry.Find(format);
    if (driver == nullptr) {
      std::string known;
      for (const FormatInfo& info : registry.ListFormats()) {
        if (!known.empty()) known += ", ";
        known += info.name;
      }
      SetStatus(status, "unknown corpus format '" + format +
                            "'; registered formats: " + known);
    }
  }
  if (driver == nullptr) return nullptr;
  return driver->Open(path, status);
}

std::unique_ptr<CorpusWriter> CreateCorpus(const std::string& path,
                                           const std::string& format,
                                           CorpusStatus* status) {
  FormatDriverRegistry& registry = FormatDriverRegistry::Global();
  const FormatDriver* driver = nullptr;
  if (!format.empty()) {
    driver = registry.Find(format);
    if (driver == nullptr) {
      SetStatus(status, "unknown corpus format '" + format + "'");
      return nullptr;
    }
  } else {
    // Pick by extension among writable drivers; default to native.
    for (const FormatInfo& info : registry.ListFormats()) {
      if (info.can_write && EndsWith(path, info.extension)) {
        driver = registry.Find(info.name);
        break;
      }
    }
    if (driver == nullptr) driver = registry.Find("native");
    if (driver == nullptr) {
      SetStatus(status, "no writable corpus driver registered");
      return nullptr;
    }
  }
  if (!driver->can_write()) {
    SetStatus(status, "format '" + driver->name() + "' is read-only");
    return nullptr;
  }
  return driver->Create(path, status);
}

// --------------------------------------------------------- helpers --

Document ReadDocumentOrDie(const CorpusReader& reader, size_t index) {
  Document doc;
  CorpusStatus status;
  bool ok = reader.Get(index, &doc, &status);
  FS_CHECK(ok) << "corpus document " << index << " unreadable: "
               << status.ToString();
  return doc;
}

uint64_t CorpusChecksum(const CorpusReader& reader, size_t block_size) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  BlockedMapDocuments(
      reader, block_size,
      [](const Document& doc, size_t) { return Fnv1a64(DocumentToJson(doc)); },
      [&hash](size_t, uint64_t doc_hash) { hash = hash * 31 + doc_hash; });
  return hash;
}

std::vector<Document> ReadAllDocuments(const CorpusReader& reader) {
  std::vector<Document> docs;
  docs.reserve(reader.size());
  for (size_t i = 0; i < reader.size(); ++i) {
    docs.push_back(ReadDocumentOrDie(reader, i));
  }
  return docs;
}

}  // namespace doc
}  // namespace fieldswap
