// Minimal constant-expression evaluator for the collective flag-partition
// rule (rules_protocol.cpp): numbers, known identifiers, parentheses,
// * + - << >> | &. Covers every flag-region expression in src/coll and the
// constants they name; anything else reports failure and the caller
// decides whether that is an error or an ignorable constant.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "tca_lint/lexer.h"

namespace tca::lint::rules {

inline bool parse_number(const std::string& text, std::uint64_t* out) {
  std::string digits;
  for (char c : text) {
    if (c == '\'') continue;
    digits += c;
  }
  // Strip integer suffixes.
  while (!digits.empty()) {
    const char c = digits.back();
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L') {
      digits.pop_back();
    } else {
      break;
    }
  }
  if (digits.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(digits.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

/// Recursive-descent evaluator over a token range with an identifier
/// environment. Precedence (loosest to tightest): | &, << >>, + -, *.
struct Eval {
  const std::vector<Tok>& toks;
  std::size_t pos;
  std::size_t end;
  const std::map<std::string, std::uint64_t>& env;
  bool ok = true;

  std::uint64_t primary() {
    if (pos >= end) {
      ok = false;
      return 0;
    }
    const Tok& t = toks[pos];
    if (t.kind == TokKind::kNumber) {
      std::uint64_t v = 0;
      ok = ok && parse_number(t.text, &v);
      ++pos;
      return v;
    }
    if (t.kind == TokKind::kIdent) {
      // Swallow `std::uint64_t(...)`-style qualifiers conservatively: only
      // plain known identifiers evaluate.
      auto it = env.find(t.text);
      if (it == env.end()) {
        ok = false;
        return 0;
      }
      ++pos;
      return it->second;
    }
    if (t.text == "(") {
      ++pos;
      const std::uint64_t v = or_expr();
      if (pos < end && toks[pos].text == ")") {
        ++pos;
      } else {
        ok = false;
      }
      return v;
    }
    ok = false;
    return 0;
  }

  std::uint64_t mul_expr() {
    std::uint64_t v = primary();
    while (ok && pos < end && toks[pos].text == "*") {
      ++pos;
      v *= primary();
    }
    return v;
  }

  std::uint64_t add_expr() {
    std::uint64_t v = mul_expr();
    while (ok && pos < end &&
           (toks[pos].text == "+" || toks[pos].text == "-")) {
      const bool add = toks[pos].text == "+";
      ++pos;
      const std::uint64_t rhs = mul_expr();
      v = add ? v + rhs : v - rhs;
    }
    return v;
  }

  std::uint64_t shift_expr() {
    std::uint64_t v = add_expr();
    while (ok && pos < end &&
           (toks[pos].text == "<<" || toks[pos].text == ">>")) {
      const bool left = toks[pos].text == "<<";
      ++pos;
      const std::uint64_t rhs = add_expr();
      v = left ? (v << rhs) : (v >> rhs);
    }
    return v;
  }

  std::uint64_t or_expr() {
    std::uint64_t v = shift_expr();
    while (ok && pos < end &&
           (toks[pos].text == "|" || toks[pos].text == "&")) {
      const bool is_or = toks[pos].text == "|";
      ++pos;
      const std::uint64_t rhs = shift_expr();
      v = is_or ? (v | rhs) : (v & rhs);
    }
    return v;
  }
};

/// Collects `constexpr <type> kName = <expr>;` constants from a token
/// stream, evaluating each right-hand side against the constants gathered so
/// far (declaration order, like the compiler sees them). Unevaluable
/// constants are simply skipped — rules that need a specific name report its
/// absence themselves.
inline std::map<std::string, std::uint64_t> collect_constexpr_env(
    const LexedFile& f) {
  std::map<std::string, std::uint64_t> env;
  const auto& toks = f.toks;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].text != "constexpr") continue;
    // Find `name = ... ;` within the declaration.
    std::size_t eq = i + 1;
    while (eq < toks.size() && toks[eq].text != "=" &&
           toks[eq].text != ";" && toks[eq].text != "{") {
      ++eq;
    }
    if (eq >= toks.size() || toks[eq].text != "=" || eq == i + 1) continue;
    if (toks[eq - 1].kind != TokKind::kIdent) continue;
    std::size_t semi = eq + 1;
    while (semi < toks.size() && toks[semi].text != ";") ++semi;
    if (semi >= toks.size()) continue;
    Eval ev{toks, eq + 1, semi, env};
    const std::uint64_t v = ev.or_expr();
    if (ev.ok && ev.pos == semi) env[toks[eq - 1].text] = v;
    i = semi;
  }
  return env;
}

}  // namespace tca::lint::rules
