#include "tca_lint/lexer.h"

#include <cctype>

namespace tca::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Two-character operators the rules care about. `::` must not split (the
/// range-for detector distinguishes `:` from `::`); the rest keep the
/// token stream compact.
bool two_char_op(char a, char b) {
  static constexpr const char* kOps[] = {"::", "->", "<<", ">>", "&&", "||",
                                         "==", "!=", "<=", ">=", "+=", "-=",
                                         "|=", "&=", "^=", "*=", "/="};
  for (const char* op : kOps) {
    if (op[0] == a && op[1] == b) return true;
  }
  return false;
}

}  // namespace

LexedFile lex(std::string_view src) {
  LexedFile out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto append_comment = [&out](int at, std::string_view text) {
    std::string& slot = out.comments[at];
    if (!slot.empty()) slot += ' ';
    slot.append(text);
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t e = i + 2;
      while (e < n && src[e] != '\n') ++e;
      append_comment(line, src.substr(i + 2, e - i - 2));
      i = e;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::size_t e = i + 2;
      while (e + 1 < n && !(src[e] == '*' && src[e + 1] == '/')) {
        if (src[e] == '\n') ++line;
        ++e;
      }
      append_comment(start_line, src.substr(i + 2, e - i - 2));
      i = (e + 1 < n) ? e + 2 : n;
      continue;
    }
    // Raw string literal (only the R"( form and delimited variants).
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t d = i + 2;
      while (d < n && src[d] != '(') ++d;
      const std::string closer = std::string(")")
                                     .append(src.substr(i + 2, d - i - 2))
                                     .append("\"");
      std::size_t e = (d < n) ? d + 1 : n;
      while (e < n && src.compare(e, closer.size(), closer) != 0) {
        if (src[e] == '\n') ++line;
        ++e;
      }
      out.toks.push_back({TokKind::kString, "", line});
      i = (e < n) ? e + closer.size() : n;
      continue;
    }
    // String literal.
    if (c == '"') {
      std::size_t e = i + 1;
      std::string text;
      while (e < n && src[e] != '"') {
        if (src[e] == '\\' && e + 1 < n) {
          text += src[e + 1];
          e += 2;
          continue;
        }
        if (src[e] == '\n') ++line;  // unterminated; be forgiving
        text += src[e++];
      }
      out.toks.push_back({TokKind::kString, std::move(text), line});
      i = (e < n) ? e + 1 : n;
      continue;
    }
    // Character literal ('a', '\n', multi-char). A ' directly after an
    // identifier or digit would be a digit separator, but number lexing
    // below consumes those before we ever get here.
    if (c == '\'') {
      std::size_t e = i + 1;
      while (e < n && src[e] != '\'') {
        if (src[e] == '\\' && e + 1 < n) {
          e += 2;
          continue;
        }
        ++e;
      }
      out.toks.push_back({TokKind::kString, "", line});
      i = (e < n) ? e + 1 : n;
      continue;
    }
    // Number (integer or float, with ' separators and suffixes).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t e = i;
      while (e < n && (ident_char(src[e]) || src[e] == '\'' ||
                       src[e] == '.')) {
        ++e;
      }
      out.toks.push_back(
          {TokKind::kNumber, std::string(src.substr(i, e - i)), line});
      i = e;
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t e = i;
      while (e < n && ident_char(src[e])) ++e;
      out.toks.push_back(
          {TokKind::kIdent, std::string(src.substr(i, e - i)), line});
      i = e;
      continue;
    }
    // Punctuation.
    if (i + 1 < n && two_char_op(c, src[i + 1])) {
      out.toks.push_back(
          {TokKind::kPunct, std::string(src.substr(i, 2)), line});
      i += 2;
      continue;
    }
    out.toks.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

std::size_t match_forward(const std::vector<Tok>& toks, std::size_t open) {
  if (open >= toks.size()) return toks.size();
  const std::string& o = toks[open].text;
  std::string close;
  if (o == "(") close = ")";
  else if (o == "[") close = "]";
  else if (o == "{") close = "}";
  else return toks.size();
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    else if (toks[i].text == close && --depth == 0) return i;
  }
  return toks.size();
}

std::size_t skip_angles(const std::vector<Tok>& toks, std::size_t lt) {
  if (lt >= toks.size() || toks[lt].text != "<") return lt;
  int depth = 0;
  int parens = 0;
  for (std::size_t i = lt; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(") ++parens;
    else if (t.text == ")") {
      if (--parens < 0) return lt;  // closed an outer paren: not a template
    } else if (t.text == ";" || t.text == "{") {
      return lt;  // statements never span an argument list
    } else if (t.text == "<") {
      ++depth;
    } else if (t.text == ">") {
      if (--depth == 0) return i + 1;
    } else if (t.text == ">>") {
      depth -= 2;
      if (depth == 0) return i + 1;
      if (depth < 0) return lt;
    }
  }
  return lt;
}

}  // namespace tca::lint
