// Determinism rules.
//
// The paper-figure arithmetic (Figs. 7-9, 12) must replay bit-identically:
// one seeded Rng, simulated time only, and no iteration order that the
// standard library is free to change between platforms. All banned names
// below are matched as whole identifiers; mentions inside comments or
// string literals never trigger (the lexer drops both).
#include <algorithm>
#include <string>
#include <vector>

#include "tca_lint/lint.h"

namespace tca::lint::rules {

namespace {

const char* const kWallClock[] = {
    "system_clock",     "steady_clock",  "high_resolution_clock",
    "gettimeofday",     "clock_gettime", "timespec_get",
    "utc_clock",        "file_clock",
};

const char* const kRawRand[] = {
    "rand",          "srand",        "rand_r",
    "random_device", "mt19937",      "mt19937_64",
    "minstd_rand",   "minstd_rand0", "default_random_engine",
    "ranlux24",      "ranlux48",     "knuth_b",
};

const char* const kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

bool in_list(const std::string& s, const char* const* list, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (s == list[i]) return true;
  }
  return false;
}

template <std::size_t N>
bool in_list(const std::string& s, const char* const (&list)[N]) {
  return in_list(s, list, N);
}

}  // namespace

void collect_unordered_names(const LexedFile& f, Context& ctx) {
  const std::vector<Tok>& toks = f.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        !in_list(toks[i].text, kUnorderedContainers)) {
      continue;
    }
    // std::unordered_map<K, V> name ...  — record `name`.
    const std::size_t after = skip_angles(toks, i + 1);
    if (after == i + 1) continue;  // no template args: a using-decl etc.
    if (after < toks.size() && toks[after].kind == TokKind::kIdent) {
      const std::string& name = toks[after].text;
      if (std::find(ctx.unordered_names.begin(), ctx.unordered_names.end(),
                    name) == ctx.unordered_names.end()) {
        ctx.unordered_names.push_back(name);
      }
    }
  }
}

namespace {

/// det-shard-shared-state: a mutable `static` or `inline` variable in the
/// simulator (src/). Simulation state must belong to one simulation, not the
/// process: two simulations sharing a process — or running side by side on
/// a thread pool — would otherwise leak state into each other and race, so
/// any static or namespace-scope inline variable that is not const/
/// constexpr, std::atomic, or thread_local is both a data race and a replay
/// hazard.
/// Token heuristic: scan the declaration from `static` or `inline` to the
/// first top-level `;`, `=`, `{` or `(`; a `(` first means a function
/// declaration (never state), and any const/constexpr/atomic/thread_local/
/// mutex token means the state is immutable, synchronized, or per-thread.
void check_shard_statics(const std::string& path, const LexedFile& f,
                         std::vector<Finding>& out) {
  const std::vector<Tok>& toks = f.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "static" && toks[i].text != "inline")) {
      continue;
    }
    // `thread_local static` / `const static` spellings: look one token back.
    if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
        (toks[i - 1].text == "thread_local" || toks[i - 1].text == "const" ||
         toks[i - 1].text == "constexpr")) {
      continue;
    }
    bool safe = false;
    bool is_function = false;
    std::string name;
    std::size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      const Tok& u = toks[j];
      if (u.kind == TokKind::kIdent) {
        if (u.text == "const" || u.text == "constexpr" ||
            u.text == "consteval" || u.text == "atomic" ||
            u.text == "atomic_flag" || u.text == "thread_local" ||
            u.text == "mutex" || u.text == "once_flag") {
          safe = true;
          break;
        }
        name = u.text;
        continue;
      }
      if (u.kind != TokKind::kPunct) continue;
      if (u.text == "(") {
        is_function = true;  // also skips paren-init statics (rare here)
        break;
      }
      if (u.text == ";" || u.text == "=" || u.text == "{") break;
    }
    if (safe || is_function || name.empty()) continue;
    out.push_back(
        {path, toks[i].line, "det-shard-shared-state",
         "mutable " + toks[i].text + " `" + name +
             "` in the simulator: process-global simulation state leaks "
             "between simulations sharing a process and races when they "
             "run on a thread pool, so replay stops depending on the seed "
             "alone — use std::atomic, thread_local, const, or state owned "
             "by the Scheduler"});
    i = j;
  }
}

}  // namespace

void check_determinism(const std::string& path, const LexedFile& f,
                       const Context& ctx, const FileScope& scope,
                       std::vector<Finding>& out) {
  if (scope.check_shard_state) check_shard_statics(path, f, out);
  const std::vector<Tok>& toks = f.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;

    if (!scope.allow_wall_clock && in_list(t.text, kWallClock)) {
      out.push_back({path, t.line, "det-wall-clock",
                     "wall-clock source `" + t.text +
                         "`: simulation logic must depend only on "
                         "Scheduler::now() so replay is bit-identical"});
      continue;
    }
    if (!scope.allow_raw_rand && in_list(t.text, kRawRand)) {
      out.push_back({path, t.line, "det-raw-rand",
                     "raw random source `" + t.text +
                         "`: draw from the seeded tca::Rng (common/rng) "
                         "instead"});
      continue;
    }

    // Range-for over an unordered container.
    if (t.text != "for") continue;
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
    const std::size_t lp = i + 1;
    const std::size_t rp = match_forward(toks, lp);
    if (rp >= toks.size()) continue;
    // Classic for-loops contain a top-level `;`; range-fors a top-level `:`.
    std::size_t colon = 0;
    bool classic = false;
    int paren = 0, brace = 0, bracket = 0;
    for (std::size_t j = lp + 1; j < rp; ++j) {
      const Tok& u = toks[j];
      if (u.kind != TokKind::kPunct) continue;
      if (u.text == "(") ++paren;
      else if (u.text == ")") --paren;
      else if (u.text == "{") ++brace;
      else if (u.text == "}") --brace;
      else if (u.text == "[") ++bracket;
      else if (u.text == "]") --bracket;
      else if (paren == 0 && brace == 0 && bracket == 0) {
        if (u.text == ";") {
          classic = true;
          break;
        }
        if (u.text == ":" && colon == 0) colon = j;
      }
    }
    if (classic || colon == 0) continue;
    // The range expression's last identifier names the container for the
    // member / plain-variable spellings used in this codebase.
    std::string range_name;
    for (std::size_t j = colon + 1; j < rp; ++j) {
      if (toks[j].kind == TokKind::kIdent) range_name = toks[j].text;
    }
    if (!range_name.empty() &&
        std::find(ctx.unordered_names.begin(), ctx.unordered_names.end(),
                  range_name) != ctx.unordered_names.end()) {
      out.push_back(
          {path, t.line, "det-unordered-iter",
           "iteration over unordered container `" + range_name +
               "`: order is implementation-defined and anything it feeds "
               "(trace, metrics, free lists) diverges across platforms — "
               "use std::map / a sorted copy / an index loop"});
    }
  }
}

}  // namespace tca::lint::rules
