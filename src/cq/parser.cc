#include "cq/parser.h"

#include <cctype>

#include "base/str.h"

namespace omqe {

namespace {

// Shared tokenizer for the CQ and TGD grammars.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Consume(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }

  bool ConsumeWord(std::string_view w) {
    SkipSpace();
    if (text_.substr(pos_, w.size()) != w) return false;
    size_t end = pos_ + w.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) || text_[end] == '_')) {
      return false;  // prefix of a longer identifier
    }
    pos_ = end;
    return true;
  }

  /// ":-" arrow for CQ heads, "->" for TGDs.
  bool ConsumeSeq(std::string_view s) {
    SkipSpace();
    if (text_.substr(pos_, s.size()) != s) return false;
    pos_ += s.size();
    return true;
  }

  /// Identifier: [A-Za-z_][A-Za-z0-9_]*
  StatusOr<std::string> Ident() {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
        ++pos_;
      }
      return std::string(text_.substr(start, pos_ - start));
    }
    return Status::ParseError(StrPrintf("expected identifier at offset %zu in \"%.*s\"",
                                        pos_, static_cast<int>(text_.size()),
                                        text_.data()));
  }

  /// Term: identifier (variable), 'constant', "constant", or integer.
  struct RawTerm {
    bool is_const;
    std::string text;
  };
  StatusOr<RawTerm> TermToken() {
    SkipSpace();
    if (pos_ < text_.size() && (text_[pos_] == '\'' || text_[pos_] == '"')) {
      char quote = text_[pos_++];
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != quote) ++pos_;
      if (pos_ >= text_.size()) return Status::ParseError("unterminated quoted constant");
      std::string s(text_.substr(start, pos_ - start));
      ++pos_;
      return RawTerm{true, std::move(s)};
    }
    if (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      size_t start = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return RawTerm{true, std::string(text_.substr(start, pos_ - start))};
    }
    auto id = Ident();
    if (!id.ok()) return id.status();
    return RawTerm{false, std::move(id.value())};
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Status ParseAtomList(Lexer& lex, Vocabulary* vocab, CQ* q) {
  while (true) {
    auto rel_name = lex.Ident();
    if (!rel_name.ok()) return rel_name.status();
    if (!lex.Consume('(')) {
      return Status::ParseError("expected '(' after relation " + rel_name.value());
    }
    Atom atom;
    SmallVec<Term, 4> terms;
    if (!lex.Consume(')')) {
      while (true) {
        auto t = lex.TermToken();
        if (!t.ok()) return t.status();
        if (t->is_const) {
          terms.push_back(MakeConstTerm(vocab->ConstantId(t->text)));
        } else {
          if (q->num_vars() == kMaxQueryVars &&
              q->FindVar(t->text) == UINT32_MAX) {
            return Status::ParseError("query has more than 64 variables");
          }
          terms.push_back(MakeVarTerm(q->AddVar(t->text)));
        }
        if (lex.Consume(')')) break;
        if (!lex.Consume(',')) return Status::ParseError("expected ',' or ')' in atom");
      }
    }
    atom.rel = vocab->TryRelationId(rel_name.value(), terms.size());
    if (atom.rel == UINT32_MAX) {
      return Status::ParseError("arity mismatch for relation " + rel_name.value());
    }
    atom.terms = std::move(terms);
    q->AddAtom(std::move(atom));
    if (!lex.Consume(',')) break;
  }
  return Status::OK();
}

}  // namespace

StatusOr<CQ> ParseCQ(std::string_view text, Vocabulary* vocab) {
  Lexer lex(text);
  CQ q;

  // Optional head: ident '(' vars ')' ':-'. Detect by scanning for ":-".
  size_t arrow = text.find(":-");
  std::vector<std::string> head_vars;
  bool has_head = arrow != std::string_view::npos;
  if (has_head) {
    Lexer head_lex(text.substr(0, arrow));
    auto name = head_lex.Ident();
    if (!name.ok()) return name.status();
    if (!head_lex.Consume('(')) return Status::ParseError("expected '(' in query head");
    if (!head_lex.Consume(')')) {
      while (true) {
        auto v = head_lex.TermToken();
        if (!v.ok()) return v.status();
        if (v->is_const) return Status::ParseError("constants not allowed in query head");
        head_vars.push_back(v->text);
        if (head_lex.Consume(')')) break;
        if (!head_lex.Consume(',')) {
          return Status::ParseError("expected ',' or ')' in query head");
        }
      }
    }
    if (!head_lex.AtEnd()) return Status::ParseError("trailing input in query head");
    lex = Lexer(text.substr(arrow + 2));
  }

  OMQE_RETURN_IF_ERROR(ParseAtomList(lex, vocab, &q));
  lex.Consume('.');
  if (!lex.AtEnd()) return Status::ParseError("trailing input after query body");

  for (const std::string& v : head_vars) {
    uint32_t id = q.FindVar(v);
    if (id == UINT32_MAX) {
      return Status::ParseError("answer variable '" + v + "' does not occur in the body");
    }
    q.AddAnswerVar(id);
  }
  return q;
}

CQ MustParseCQ(std::string_view text, Vocabulary* vocab) {
  auto q = ParseCQ(text, vocab);
  if (!q.ok()) {
    std::fprintf(stderr, "ParseCQ(\"%.*s\"): %s\n", static_cast<int>(text.size()),
                 text.data(), q.status().ToString().c_str());
    std::abort();
  }
  return std::move(q).value();
}

}  // namespace omqe
