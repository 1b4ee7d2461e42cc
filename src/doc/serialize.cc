#include "doc/serialize.h"
#include <cstring>

#include <cctype>
#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace fieldswap {
namespace {

void AppendEscaped(std::string& out, const std::string& text) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  out.push_back('"');
}

void AppendDouble(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out += buf;
}

/// Minimal cursor-based parser for the subset of JSON emitted above.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Literal(const char* expected) {
    SkipSpace();
    size_t len = std::strlen(expected);
    if (text_.compare(pos_, len, expected) != 0) return false;
    pos_ += len;
    return true;
  }

  bool String(std::string& out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          default:
            out.push_back(esc);
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number(double& out) {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out = ParseDouble(text_.substr(start, pos_ - start).c_str(), 0.0);
    return true;
  }

  bool Int(int& out) {
    double value = 0;
    if (!Number(value)) return false;
    out = static_cast<int>(value);
    return true;
  }

  bool PeekIs(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  size_t pos() const { return pos_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string DocumentToJson(const Document& doc) {
  std::string out;
  out += "{\"id\":";
  AppendEscaped(out, doc.id());
  out += ",\"domain\":";
  AppendEscaped(out, doc.domain());
  out += ",\"width\":";
  AppendDouble(out, doc.width());
  out += ",\"height\":";
  AppendDouble(out, doc.height());

  out += ",\"tokens\":[";
  for (int i = 0; i < doc.num_tokens(); ++i) {
    const Token& tok = doc.token(i);
    if (i > 0) out.push_back(',');
    out += "{\"text\":";
    AppendEscaped(out, tok.text);
    out += ",\"box\":[";
    AppendDouble(out, tok.box.x_min);
    out.push_back(',');
    AppendDouble(out, tok.box.y_min);
    out.push_back(',');
    AppendDouble(out, tok.box.x_max);
    out.push_back(',');
    AppendDouble(out, tok.box.y_max);
    out += "],\"line\":" + std::to_string(tok.line) + "}";
  }
  out += "]";

  out += ",\"lines\":[";
  for (size_t l = 0; l < doc.lines().size(); ++l) {
    if (l > 0) out.push_back(',');
    out.push_back('[');
    const Line& line = doc.lines()[l];
    for (size_t i = 0; i < line.token_indices.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += std::to_string(line.token_indices[i]);
    }
    out.push_back(']');
  }
  out += "]";

  out += ",\"annotations\":[";
  for (size_t a = 0; a < doc.annotations().size(); ++a) {
    const EntitySpan& span = doc.annotations()[a];
    if (a > 0) out.push_back(',');
    out += "{\"field\":";
    AppendEscaped(out, span.field);
    out += ",\"first\":" + std::to_string(span.first_token);
    out += ",\"count\":" + std::to_string(span.num_tokens) + "}";
  }
  out += "]}";
  return out;
}

std::optional<Document> DocumentFromJson(const std::string& json) {
  return DocumentFromJson(json, nullptr);
}

std::optional<Document> DocumentFromJson(const std::string& json,
                                         std::string* error) {
  Parser parser(json);
  // Every failure names the section being parsed and where the parser
  // stopped, so a bad corpus line is diagnosable without bisecting JSON by
  // hand.
  auto fail = [&](const std::string& what) -> std::optional<Document> {
    if (error != nullptr) {
      *error = what + " near byte " + std::to_string(parser.pos());
    }
    return std::nullopt;
  };

  std::string id, domain;
  double width = 0, height = 0;
  if (!parser.Literal("{\"id\":") || !parser.String(id)) {
    return fail("malformed document header (expected {\"id\":...)");
  }
  if (!parser.Literal(",\"domain\":") || !parser.String(domain)) {
    return fail("malformed \"domain\" field");
  }
  if (!parser.Literal(",\"width\":") || !parser.Number(width)) {
    return fail("malformed \"width\" field");
  }
  if (!parser.Literal(",\"height\":") || !parser.Number(height)) {
    return fail("malformed \"height\" field");
  }
  if (std::string_view why = PageGeometryError(width, height); !why.empty()) {
    return fail(std::string(why));
  }

  Document doc(id, domain, width, height);

  if (!parser.Literal(",\"tokens\":[")) {
    return fail("missing \"tokens\" array");
  }
  while (!parser.PeekIs(']')) {
    std::string text;
    double x0, y0, x1, y1;
    int line;
    if (!parser.Literal("{\"text\":") || !parser.String(text) ||
        !parser.Literal(",\"box\":[") || !parser.Number(x0) ||
        !parser.Literal(",") || !parser.Number(y0) || !parser.Literal(",") ||
        !parser.Number(x1) || !parser.Literal(",") || !parser.Number(y1) ||
        !parser.Literal("],\"line\":") || !parser.Int(line) ||
        !parser.Literal("}")) {
      return fail("malformed token " + std::to_string(doc.num_tokens()));
    }
    const BBox box{x0, y0, x1, y1};
    if (std::string_view why = BoxGeometryError(box); !why.empty()) {
      return fail("token " + std::to_string(doc.num_tokens()) + ": " +
                  std::string(why));
    }
    doc.AddToken(text, box);
    parser.Literal(",");  // optional separator
  }
  if (!parser.Literal("]")) return fail("unterminated \"tokens\" array");

  if (!parser.Literal(",\"lines\":[")) {
    return fail("missing \"lines\" array");
  }
  std::vector<Line> lines;
  while (!parser.PeekIs(']')) {
    if (!parser.Literal("[")) {
      return fail("malformed line " + std::to_string(lines.size()));
    }
    Line line;
    while (!parser.PeekIs(']')) {
      int index;
      if (!parser.Int(index)) {
        return fail("malformed line " + std::to_string(lines.size()));
      }
      line.token_indices.push_back(index);
      parser.Literal(",");
    }
    if (!parser.Literal("]")) {
      return fail("unterminated line " + std::to_string(lines.size()));
    }
    for (int ti : line.token_indices) {
      if (ti < 0 || ti >= doc.num_tokens()) {
        return fail("line " + std::to_string(lines.size()) +
                    " references token " + std::to_string(ti) +
                    " out of range [0, " + std::to_string(doc.num_tokens()) +
                    ")");
      }
      line.box = line.token_indices.front() == ti
                     ? doc.token(ti).box
                     : line.box.Union(doc.token(ti).box);
    }
    lines.push_back(std::move(line));
    parser.Literal(",");
  }
  if (!parser.Literal("]")) return fail("unterminated \"lines\" array");
  doc.set_lines(std::move(lines));

  if (!parser.Literal(",\"annotations\":[")) {
    return fail("missing \"annotations\" array");
  }
  while (!parser.PeekIs(']')) {
    std::string field;
    int first, count;
    if (!parser.Literal("{\"field\":") || !parser.String(field) ||
        !parser.Literal(",\"first\":") || !parser.Int(first) ||
        !parser.Literal(",\"count\":") || !parser.Int(count) ||
        !parser.Literal("}")) {
      return fail("malformed annotation " +
                  std::to_string(doc.annotations().size()));
    }
    if (first < 0 || count <= 0 || first + count > doc.num_tokens()) {
      return fail("annotation \"" + field + "\" span [" +
                  std::to_string(first) + ", " + std::to_string(first + count) +
                  ") out of bounds for " + std::to_string(doc.num_tokens()) +
                  " tokens");
    }
    doc.AddAnnotation(EntitySpan{field, first, count});
    parser.Literal(",");
  }
  if (!parser.Literal("]}")) {
    return fail("unterminated \"annotations\" array");
  }
  return doc;
}

bool SaveCorpusJsonl(const std::string& path,
                     const std::vector<Document>& docs) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  for (const Document& doc : docs) {
    os << DocumentToJson(doc) << "\n";
  }
  return os.good();
}

std::optional<std::vector<Document>> LoadCorpusJsonl(const std::string& path) {
  return LoadCorpusJsonl(path, nullptr);
}

std::optional<std::vector<Document>> LoadCorpusJsonl(
    const std::string& path, doc::CorpusStatus* status) {
  std::ifstream is(path);
  if (!is) {
    if (status != nullptr) *status = {"cannot open " + path, 0};
    return std::nullopt;
  }
  std::vector<Document> docs;
  std::string line;
  long line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::string parse_error;
    std::optional<Document> doc = DocumentFromJson(line, &parse_error);
    if (!doc.has_value()) {
      if (status != nullptr) *status = {parse_error, line_number};
      return std::nullopt;
    }
    docs.push_back(std::move(*doc));
  }
  return docs;
}

}  // namespace fieldswap
