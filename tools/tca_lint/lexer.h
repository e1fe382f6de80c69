// Light C++ tokenizer for tca_lint.
//
// Not a compiler front end: produces just enough structure for the rule
// matchers — identifiers, numbers, strings, and punctuation with line
// numbers, comments collected per line (suppressions and protocol
// annotations live in comments), string/char-literal *contents* dropped from
// the token stream so rule keywords quoted in messages or tables never
// trigger the rules themselves.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tca::lint {

enum class TokKind {
  kIdent,
  kNumber,
  kString,  // string literal (text = decoded-ish contents, unused by rules)
  kPunct,   // operators/punctuation; multi-char for ::, ->, <<, >>, &&, ...
};

struct Tok {
  TokKind kind;
  std::string text;
  int line = 0;
};

struct LexedFile {
  std::vector<Tok> toks;
  /// Comment text per line (line → concatenated // and /* */ contents).
  /// Block comments are keyed by their starting line.
  std::map<int, std::string> comments;
};

/// Tokenizes `source`. Never fails: unrecognized bytes become single-char
/// punctuation tokens.
LexedFile lex(std::string_view source);

/// Index of the matching closer for the opener at `open` (one of ( [ {),
/// or toks.size() when unbalanced.
std::size_t match_forward(const std::vector<Tok>& toks, std::size_t open);

/// Balanced skip over a template-argument list starting at `lt` (toks[lt]
/// must be "<"). Returns the index just past the matching ">", treating
/// ">>" as two closers. Returns `lt` itself when the angle run is not a
/// plausible template-argument list (hits ; or unbalanced parens first).
std::size_t skip_angles(const std::vector<Tok>& toks, std::size_t lt);

}  // namespace tca::lint
