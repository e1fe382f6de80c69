// Coroutine-lifetime rules.
//
// The decidable core of the PR 3 bug class: a lambda coroutine's closure is
// an ordinary object, and the coroutine frame only stores a *reference* to
// it (captures live in the closure, not the frame). If the closure is a
// temporary — an immediately-invoked capturing lambda — every capture
// dangles from the first suspension point onward. Likewise, reference
// parameters that can bind temporaries (const T&, T&&) dangle once the
// caller's full-expression ends. Parameters passed *by value* are moved
// into the frame and are always safe.
//
// The third rule is a compiler workaround, not a lifetime rule: GCC 12
// miscompiles a conditional operator whose arms suspend —
// `const Status st = c ? co_await a() : co_await b();` destroys the
// result's temporaries twice (ASan: double free, or a free of an address
// that was never malloc()-ed, from ~Status). Branch with if/else instead.
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "tca_lint/lint.h"

namespace tca::lint::rules {

namespace {

bool is_coro_keyword(const Tok& t) {
  return t.kind == TokKind::kIdent &&
         (t.text == "co_await" || t.text == "co_return" ||
          t.text == "co_yield");
}

/// True when toks[i] is a lambda-introducer `[` (not a subscript, not an
/// attribute `[[`).
bool is_lambda_intro(const std::vector<Tok>& toks, std::size_t i) {
  if (toks[i].kind != TokKind::kPunct || toks[i].text != "[") return false;
  if (i + 1 < toks.size() && toks[i + 1].text == "[") return false;
  if (i == 0) return true;
  const Tok& p = toks[i - 1];
  if (p.text == "[") return false;  // second bracket of an attribute
  // After a value (identifier, literal, call, index) a `[` is a subscript —
  // except after keywords that introduce an expression.
  if (p.kind == TokKind::kIdent) {
    return p.text == "return" || p.text == "co_return" ||
           p.text == "co_await" || p.text == "co_yield" || p.text == "else" ||
           p.text == "case" || p.text == "do";
  }
  if (p.kind == TokKind::kNumber) return false;
  if (p.kind == TokKind::kPunct && (p.text == ")" || p.text == "]")) {
    return false;
  }
  return true;
}

/// One parameter's tokens contain a reference that can bind a temporary.
bool param_binds_temporary(const std::vector<Tok>& toks, std::size_t begin,
                           std::size_t end) {
  bool has_const = false;
  bool has_ref = false;
  for (std::size_t i = begin; i < end; ++i) {
    const Tok& t = toks[i];
    if (t.kind == TokKind::kIdent && t.text == "const") has_const = true;
    if (t.kind == TokKind::kPunct && t.text == "&&") return true;  // rvalue
    if (t.kind == TokKind::kPunct && t.text == "&") has_ref = true;
  }
  return has_const && has_ref;
}

/// Scans a parameter list (open paren at `lp`) and reports dangerous
/// reference parameters. Returns the index of the matching `)`.
std::size_t check_params(const std::string& path, const std::vector<Tok>& toks,
                         std::size_t lp, const char* what,
                         std::vector<Finding>& out) {
  const std::size_t rp = match_forward(toks, lp);
  if (rp >= toks.size()) return rp;
  std::size_t start = lp + 1;
  int angle = 0, paren = 0, brace = 0;
  for (std::size_t i = lp + 1; i <= rp; ++i) {
    const Tok& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "<") ++angle;
      else if (t.text == ">") --angle;
      else if (t.text == ">>") angle -= 2;
      else if (t.text == "(") ++paren;
      else if (t.text == ")" && i != rp) --paren;
      else if (t.text == "{") ++brace;
      else if (t.text == "}") --brace;
    }
    const bool at_end = (i == rp);
    const bool top_comma = (t.kind == TokKind::kPunct && t.text == "," &&
                            angle <= 0 && paren == 0 && brace == 0);
    if (at_end || top_comma) {
      if (i > start && param_binds_temporary(toks, start, i)) {
        out.push_back({path, toks[start].line, "coro-ref-param",
                       std::string(what) +
                           " takes a const-reference or rvalue-reference "
                           "parameter; it can bind a temporary that dies at "
                           "the first suspension — take it by value"});
      }
      start = i + 1;
    }
  }
  return rp;
}

struct LambdaInfo {
  std::size_t end = 0;  // index of the closing `}` of the body
  bool valid = false;
};

/// Parses the lambda at `intro`, emitting findings for it and every nested
/// lambda. `is_coro_out` reports whether the lambda's own body (excluding
/// nested lambda bodies) contains a coroutine keyword.
LambdaInfo scan_lambda(const std::string& path, const std::vector<Tok>& toks,
                       std::size_t intro, std::vector<Finding>& out);

/// Walks tokens in [begin, end) looking for lambda introducers (handling
/// them recursively) and coroutine keywords belonging to this level.
/// Returns whether a coroutine keyword was seen at this level.
bool walk_region(const std::string& path, const std::vector<Tok>& toks,
                 std::size_t begin, std::size_t end,
                 std::vector<Finding>& out) {
  bool coro = false;
  for (std::size_t i = begin; i < end;) {
    if (is_coro_keyword(toks[i])) {
      coro = true;
      ++i;
      continue;
    }
    if (is_lambda_intro(toks, i)) {
      LambdaInfo info = scan_lambda(path, toks, i, out);
      i = info.valid ? info.end + 1 : i + 1;
      continue;
    }
    ++i;
  }
  return coro;
}

LambdaInfo scan_lambda(const std::string& path, const std::vector<Tok>& toks,
                       std::size_t intro, std::vector<Finding>& out) {
  LambdaInfo info;
  const std::size_t cap_close = match_forward(toks, intro);
  if (cap_close >= toks.size()) return info;
  const bool has_captures = cap_close > intro + 1;

  // Optional parameter list.
  std::size_t i = cap_close + 1;
  std::size_t lp = toks.size(), rp = toks.size();
  if (i < toks.size() && toks[i].text == "(") {
    lp = i;
    rp = match_forward(toks, lp);
    if (rp >= toks.size()) return info;
    i = rp + 1;
  }

  // Skip specifiers and the trailing return type up to the body.
  while (i < toks.size() && toks[i].text != "{") {
    const Tok& t = toks[i];
    if (t.kind == TokKind::kIdent || t.text == "->" || t.text == "::" ||
        t.text == "*" || t.text == "&") {
      ++i;
      continue;
    }
    if (t.text == "<") {
      const std::size_t after = skip_angles(toks, i);
      if (after == i) return info;
      i = after;
      continue;
    }
    return info;  // `,` `)` `;` ...: a bare capture-default or subscript
  }
  if (i >= toks.size()) return info;

  const std::size_t body_open = i;
  const std::size_t body_close = match_forward(toks, body_open);
  if (body_close >= toks.size()) return info;

  const bool is_coro =
      walk_region(path, toks, body_open + 1, body_close, out);

  if (is_coro) {
    if (lp < toks.size()) {
      check_params(path, toks, lp, "lambda coroutine", out);
    }
    const bool invoked = body_close + 1 < toks.size() &&
                         toks[body_close + 1].text == "(";
    if (has_captures && invoked) {
      out.push_back(
          {path, toks[intro].line, "coro-temporary-closure",
           "capturing lambda coroutine invoked as a temporary: the closure "
           "is destroyed at the end of the full-expression while the "
           "coroutine frame (and its suspended references into the closure) "
           "lives on — name the closure or pass state as parameters"});
    }
  }

  info.end = body_close;
  info.valid = true;
  return info;
}

/// Detects `Task<...> name(params...)` declarations/definitions and checks
/// the parameter list. Matches both `Task` and `sim::Task` spellings.
void check_task_functions(const std::string& path,
                          const std::vector<Tok>& toks,
                          std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "Task") continue;
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "<") continue;
    const std::size_t after = skip_angles(toks, j);
    if (after == j) continue;
    j = after;
    // Qualified function name: at least one identifier.
    bool has_name = false;
    while (j < toks.size() && (toks[j].kind == TokKind::kIdent ||
                               toks[j].text == "::")) {
      if (toks[j].kind == TokKind::kIdent) has_name = true;
      ++j;
    }
    if (!has_name || j >= toks.size() || toks[j].text != "(") continue;
    check_params(path, toks, j, "coroutine function", out);
  }
}

/// Flags every `co_await` in the second or third operand of a `?:`. The
/// operands end at the first `;` or `,` outside brackets, at an unmatched
/// closer, or at a `:` that belongs to an enclosing conditional. Brace
/// blocks are skipped whole: a lambda body in an operand suspends its own
/// frame, not the conditional's.
void check_await_in_conditional(const std::string& path,
                                const std::vector<Tok>& toks,
                                std::vector<Finding>& out) {
  std::set<std::size_t> reported;  // nested conditionals share co_awaits
  for (std::size_t q = 0; q < toks.size(); ++q) {
    if (toks[q].kind != TokKind::kPunct || toks[q].text != "?") continue;
    int depth = 0;
    int colons_owed = 1;  // this conditional's `:` plus any nested ones'
    for (std::size_t i = q + 1; i < toks.size(); ++i) {
      const Tok& t = toks[i];
      if (t.kind == TokKind::kIdent && t.text == "co_await") {
        if (reported.insert(i).second) {
          out.push_back(
              {path, t.line, "coro-await-in-conditional",
               "co_await inside a ?: operand: GCC 12 destroys the "
               "conditional's result temporaries twice (ASan: double or "
               "invalid free from the result's destructor) — choose the "
               "branch with if/else and co_await in each arm"});
        }
        continue;
      }
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "{") {
        i = match_forward(toks, i);
        continue;
      }
      if (t.text == "(" || t.text == "[") {
        ++depth;
      } else if (t.text == ")" || t.text == "]" || t.text == "}") {
        if (depth-- == 0) break;
      } else if (depth == 0 && (t.text == ";" || t.text == ",")) {
        break;
      } else if (depth == 0 && t.text == "?") {
        ++colons_owed;
      } else if (depth == 0 && t.text == ":") {
        if (colons_owed-- == 0) break;
      }
    }
  }
}

}  // namespace

void check_coroutines(const std::string& path, const LexedFile& f,
                      std::vector<Finding>& out) {
  walk_region(path, f.toks, 0, f.toks.size(), out);
  check_task_functions(path, f.toks, out);
  check_await_in_conditional(path, f.toks, out);
}

}  // namespace tca::lint::rules
