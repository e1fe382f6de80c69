// Flow-sensitive protocol-lifecycle rules (proto-*, coro-borrow-across-
// suspend) over the CFGs of cfg.h.
//
// Annotation grammar (full write-up in docs/ARCHITECTURE.md):
//
//   // tca-protocol: <clause>[, <clause>...]
//
// Function-level clauses (on the declaration/definition header line, the
// line above it, or — for lambdas — the capture-intro line or the line
// above):
//   acquires(kind)    calling this function yields one `kind`; the callee
//                     is the primitive, so its own body is exempt for that
//                     kind
//   releases(kind)    calling discharges one `kind`
//   abandons(kind)    calling discharges one `kind` without completing it
//   borrows(kind)     the result borrows from pool `kind` (arena frames)
//   acks-on-commit    this function IS the PEARL ack emission
//   commit-point      the body performs the commit; ack emission must not
//                     be reachable before a `commit` statement
//   owns(kind)        the body enters holding one `kind` and must
//                     discharge it on every path
//
// Statement-level clauses (trailing on the statement line or standalone on
// the line above; they attach to a CFG node, so deleting the statement
// while leaving the annotation is a proto-bad-annotation):
//   acquire(kind)  release(kind)  abandon(kind)  transfer(kind)
//   commit         borrow(kind)
//
// Known limitation (deliberate): the analysis is path-insensitive, so an
// acquire and its discharge guarded by the *same* runtime condition (the
// DMAC want_ack window) would report a false may-leak — such windows stay
// unannotated and are covered by the chaos campaigns instead.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tca_lint/cfg.h"
#include "tca_lint/lint.h"

namespace tca::lint::rules {

namespace {

// ---------------------------------------------------------------------------
// Annotation parsing

struct Clause {
  std::string name;
  std::vector<std::string> args;
  int line = 0;
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parses `<clause>[, <clause>...]` starting after the marker. Returns
/// false on any junk — a typo in an annotation must be loud, not ignored.
bool parse_clause_list(const std::string& text, std::size_t at, int line,
                       std::vector<Clause>* out) {
  std::size_t i = at;
  bool any = false;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == ',') {
      ++i;
      continue;
    }
    std::size_t b = i;
    while (i < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[i])) ||
            text[i] == '-')) {
      ++i;
    }
    if (i == b) return false;
    Clause cl;
    cl.name = text.substr(b, i - b);
    cl.line = line;
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    if (i < text.size() && text[i] == '(') {
      ++i;
      int depth = 1;
      std::string cur;
      bool closed = false;
      while (i < text.size()) {
        const char ch = text[i];
        if (ch == '(') ++depth;
        if (ch == ')') {
          --depth;
          if (depth == 0) {
            closed = true;
            ++i;
            break;
          }
        }
        if (ch == ',' && depth == 1) {
          cl.args.push_back(trim(cur));
          cur.clear();
          ++i;
          continue;
        }
        cur += ch;
        ++i;
      }
      if (!closed) return false;
      cl.args.push_back(trim(cur));
    }
    out->push_back(std::move(cl));
    any = true;
  }
  return any;
}

bool valid_kind(const std::string& k) {
  if (k.empty()) return false;
  for (char c : k) {
    if (!std::islower(static_cast<unsigned char>(c)) &&
        !std::isdigit(static_cast<unsigned char>(c)) && c != '-') {
      return false;
    }
  }
  return true;
}

enum class Level { kFn, kStmt, kBad };

/// Classifies a tca-protocol clause and validates its arity.
Level classify(const Clause& c) {
  const bool one_kind = c.args.size() == 1 && valid_kind(c.args[0]);
  if (c.name == "acquires" || c.name == "releases" || c.name == "abandons" ||
      c.name == "borrows" || c.name == "owns") {
    return one_kind ? Level::kFn : Level::kBad;
  }
  if (c.name == "acks-on-commit" || c.name == "commit-point") {
    return c.args.empty() ? Level::kFn : Level::kBad;
  }
  if (c.name == "acquire" || c.name == "release" || c.name == "abandon" ||
      c.name == "transfer" || c.name == "borrow") {
    return one_kind ? Level::kStmt : Level::kBad;
  }
  if (c.name == "commit") {
    return c.args.empty() ? Level::kStmt : Level::kBad;
  }
  return Level::kBad;
}

/// Marker position in a comment, or npos.
std::size_t marker_at(const std::string& text, const char* marker) {
  return text.find(marker);
}

/// First token index on `line`, or toks.size().
std::size_t first_tok_on_line(const std::vector<Tok>& toks, int line) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].line == line) return i;
    if (toks[i].line > line) break;
  }
  return toks.size();
}

bool name_is_keywordish(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "return" || t == "co_return" || t == "co_await" ||
         t == "sizeof" || t == "catch" || t == "static_assert";
}

/// The function name a function-level annotation on `line` refers to: the
/// first non-keyword identifier directly followed by `(` among the tokens
/// of `line` (trailing form) or `line + 1` (standalone form). Lambdas
/// (line starting with `[`) yield no name — their clauses are local-only.
std::string annotated_decl_name(const std::vector<Tok>& toks, int line) {
  for (int cand : {line, line + 1}) {
    const std::size_t first = first_tok_on_line(toks, cand);
    if (first >= toks.size()) continue;
    // A lambda's clauses are local-only; `[[attr]]` lines scan on.
    if (is_lambda_intro(toks, first)) return "";
    for (std::size_t i = first;
         i + 1 < toks.size() && toks[i].line == cand; ++i) {
      if (toks[i].kind == TokKind::kIdent && toks[i + 1].text == "(" &&
          !name_is_keywordish(toks[i].text)) {
        return toks[i].text;
      }
    }
  }
  return "";
}

std::string last_component(const std::string& name) {
  const std::size_t at = name.rfind("::");
  return at == std::string::npos ? name : name.substr(at + 2);
}

// ---------------------------------------------------------------------------
// Per-function annotation + event model

struct FnAnno {
  std::vector<std::string> owns;
  std::vector<std::string> prim_kinds;  ///< acquires/releases/abandons here
  bool commit_point = false;
  bool acks_on_commit = false;
};

struct Event {
  enum Type { kAcquire, kDischarge, kCommit, kBorrowDef } type;
  std::string kind;
  std::size_t tok = 0;  ///< anchor token index (call site / node begin)
  int line = 0;
  std::string what;  ///< human-readable source ("release_tag()", ...)
};

/// Iterates tokens of a node, skipping nested-lambda body ranges.
template <typename Fn>
void for_node_toks(const FunctionCfg& cfg, const CfgNode& node, Fn&& fn) {
  for (std::size_t i = node.begin; i < node.end; ++i) {
    bool skipped = false;
    for (const auto& [open, close] : cfg.nested_lambdas) {
      if (i >= open && i <= close) {
        i = close;
        skipped = true;
        break;
      }
    }
    if (skipped) continue;
    fn(i);
  }
}

struct Interval {
  int lo = 0;
  int hi = 0;
};

constexpr int kSat = 2;  // saturation keeps loops convergent

Interval transfer(const Interval& in, const std::vector<Event>& evs,
                  const std::string& kind) {
  Interval s = in;
  for (const Event& e : evs) {
    if (e.kind != kind) continue;
    if (e.type == Event::kAcquire) {
      s.lo = std::min(s.lo + 1, kSat);
      s.hi = std::min(s.hi + 1, kSat);
    } else if (e.type == Event::kDischarge) {
      s.lo = std::max(s.lo - 1, 0);
      s.hi = std::max(s.hi - 1, 0);
    }
  }
  return s;
}

std::string fn_label(const FunctionCfg& cfg) {
  return cfg.is_lambda ? "lambda" : "'" + cfg.name + "'";
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry collection (first pass, across all protocol-scope files)

void collect_protocol_annotations(const LexedFile& f, Context& ctx) {
  for (const auto& [line, text] : f.comments) {
    const std::size_t at = marker_at(text, "tca-protocol:");
    if (at == std::string::npos) continue;
    std::vector<Clause> clauses;
    if (!parse_clause_list(text, at + 13, line, &clauses)) continue;
    std::string name;  // resolved lazily: only registry clauses need it
    for (const Clause& c : clauses) {
      const bool registry_clause =
          c.name == "acquires" || c.name == "releases" ||
          c.name == "abandons" || c.name == "borrows" ||
          c.name == "acks-on-commit";
      if (!registry_clause || classify(c) != Level::kFn) continue;
      if (name.empty()) name = annotated_decl_name(f.toks, line);
      if (name.empty()) break;  // lambda or unattached: local/bad elsewhere
      ProtoEffects& eff = ctx.protocol[name];
      auto add = [](std::vector<std::string>& v, const std::string& k) {
        if (std::find(v.begin(), v.end(), k) == v.end()) v.push_back(k);
      };
      if (c.name == "acquires") add(eff.acquires, c.args[0]);
      if (c.name == "releases") add(eff.releases, c.args[0]);
      if (c.name == "abandons") add(eff.abandons, c.args[0]);
      if (c.name == "borrows") add(eff.borrows, c.args[0]);
      if (c.name == "acks-on-commit") eff.acks_on_commit = true;
    }
  }
}

// ---------------------------------------------------------------------------
// The checker

void check_protocol(const std::string& path, const LexedFile& f,
                    const Context& ctx, std::vector<Finding>& out) {
  // -- Parse every annotation in the file.
  struct Anno {
    int line;
    std::vector<Clause> clauses;
  };
  std::vector<Anno> protos;

  for (const auto& [line, text] : f.comments) {
    const std::size_t pat = marker_at(text, "tca-protocol:");
    if (pat != std::string::npos) {
      std::vector<Clause> clauses;
      if (!parse_clause_list(text, pat + 13, line, &clauses)) {
        out.push_back({path, line, "proto-bad-annotation",
                       "unparsable tca-protocol annotation"});
      } else {
        bool ok = true;
        for (const Clause& c : clauses) {
          if (classify(c) == Level::kBad) {
            out.push_back({path, line, "proto-bad-annotation",
                           "unknown or malformed tca-protocol clause '" +
                               c.name + "'"});
            ok = false;
          }
        }
        if (ok) protos.push_back({line, std::move(clauses)});
      }
    }
  }

  // -- Build CFGs and attach annotations.
  const std::vector<FunctionCfg> cfgs = build_cfgs(f);
  std::vector<FnAnno> annos(cfgs.size());
  // Statement events per (cfg, node), merged with call events below.
  std::vector<std::map<std::size_t, std::vector<Event>>> stmt_events(
      cfgs.size());

  for (const Anno& an : protos) {
    for (const Clause& c : an.clauses) {
      const Level lvl = classify(c);
      if (lvl == Level::kFn) {
        // Innermost function whose header range covers the comment line.
        std::size_t best = cfgs.size();
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
          if (an.line >= cfgs[i].header_line - 1 &&
              an.line <= cfgs[i].body_line &&
              (best == cfgs.size() ||
               cfgs[i].header_line > cfgs[best].header_line)) {
            best = i;
          }
        }
        if (best < cfgs.size()) {
          FnAnno& a = annos[best];
          if (c.name == "owns") a.owns.push_back(c.args[0]);
          if (c.name == "commit-point") a.commit_point = true;
          if (c.name == "acks-on-commit") a.acks_on_commit = true;
          if (c.name == "acquires" || c.name == "releases" ||
              c.name == "abandons") {
            a.prim_kinds.push_back(c.args[0]);
          }
          continue;
        }
        // No body here: a pure declaration consumes registry clauses only.
        const bool registry_ok =
            (c.name != "owns" && c.name != "commit-point") &&
            !annotated_decl_name(f.toks, an.line).empty();
        if (!registry_ok) {
          out.push_back({path, an.line, "proto-bad-annotation",
                         "function-level clause '" + c.name +
                             "' attaches to no function definition" +
                             (c.name == "owns" || c.name == "commit-point"
                                  ? " (it needs a body)"
                                  : " or declaration")});
        }
      } else {
        // Statement-level: node starting on this line (trailing) or the
        // next (standalone). Entry/exit nodes never consume annotations —
        // that is what makes a dangling annotation loud.
        bool attached = false;
        for (int target : {an.line, an.line + 1}) {
          for (std::size_t i = 0; i < cfgs.size() && !attached; ++i) {
            for (std::size_t n = 2; n < cfgs[i].nodes.size(); ++n) {
              if (cfgs[i].nodes[n].line != target) continue;
              Event e;
              e.kind = c.args.empty() ? "" : c.args[0];
              e.tok = cfgs[i].nodes[n].begin;
              e.line = an.line;
              e.what = c.name + " annotation";
              if (c.name == "acquire") {
                e.type = Event::kAcquire;
              } else if (c.name == "commit") {
                e.type = Event::kCommit;
              } else if (c.name == "borrow") {
                e.type = Event::kBorrowDef;
              } else {
                e.type = Event::kDischarge;  // release/abandon/transfer
              }
              stmt_events[i][n].push_back(std::move(e));
              attached = true;
              break;
            }
          }
          if (attached) break;
        }
        if (!attached) {
          out.push_back({path, an.line, "proto-bad-annotation",
                         "statement-level clause '" + c.name +
                             "' attaches to no statement"});
        }
      }
    }
  }

  // -- Per-function event tables (registry call sites + statement events).
  const std::set<std::string> emitters = [&ctx] {
    std::set<std::string> s;
    for (const auto& [name, eff] : ctx.protocol) {
      if (eff.acks_on_commit) s.insert(name);
    }
    return s;
  }();

  for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
    const FunctionCfg& cfg = cfgs[ci];
    const FnAnno& anno = annos[ci];
    const std::string self = last_component(cfg.name);

    std::vector<std::vector<Event>> events(cfg.nodes.size());
    std::vector<std::size_t> ack_call_nodes;

    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      for_node_toks(cfg, cfg.nodes[n], [&](std::size_t i) {
        if (f.toks[i].kind != TokKind::kIdent ||
            i + 1 >= f.toks.size() || f.toks[i + 1].text != "(") {
          return;
        }
        const std::string& callee = f.toks[i].text;
        if (emitters.count(callee) != 0) ack_call_nodes.push_back(n);
        auto it = ctx.protocol.find(callee);
        if (it == ctx.protocol.end()) return;
        auto push = [&](Event::Type t, const std::string& k) {
          events[n].push_back(
              {t, k, i, f.toks[i].line, callee + "()"});
        };
        for (const std::string& k : it->second.acquires) {
          push(Event::kAcquire, k);
        }
        for (const std::string& k : it->second.releases) {
          push(Event::kDischarge, k);
        }
        for (const std::string& k : it->second.abandons) {
          push(Event::kDischarge, k);
        }
        for (const std::string& k : it->second.borrows) {
          push(Event::kBorrowDef, k);
        }
      });
      auto sit = stmt_events[ci].find(n);
      if (sit != stmt_events[ci].end()) {
        for (Event& e : sit->second) events[n].push_back(e);
      }
    }

    const auto succ_edges = cfg_successors(cfg);

    // ---- proto-leak / proto-double-release: interval dataflow per kind.
    std::set<std::string> kinds(anno.owns.begin(), anno.owns.end());
    for (const auto& evs : events) {
      for (const Event& e : evs) {
        if (e.type == Event::kAcquire) kinds.insert(e.kind);
      }
    }
    for (const std::string& k : anno.prim_kinds) kinds.erase(k);

    for (const std::string& kind : kinds) {
      const int owned = static_cast<int>(
          std::count(anno.owns.begin(), anno.owns.end(), kind));
      std::vector<Interval> in(cfg.nodes.size());
      std::vector<char> reach(cfg.nodes.size(), 0);
      in[kCfgEntry] = {owned, owned};
      reach[kCfgEntry] = 1;
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
          if (!reach[n]) continue;
          const Interval s = transfer(in[n], events[n], kind);
          for (std::size_t ei : succ_edges[n]) {
            const std::size_t to = cfg.edges[ei].to;
            if (!reach[to]) {
              reach[to] = 1;
              in[to] = s;
              changed = true;
            } else if (s.lo < in[to].lo || s.hi > in[to].hi) {
              in[to].lo = std::min(in[to].lo, s.lo);
              in[to].hi = std::max(in[to].hi, s.hi);
              changed = true;
            }
          }
        }
      }
      // Reporting pass: double releases, then the exit state.
      std::set<int> dr_lines;
      for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        if (!reach[n]) continue;
        Interval s = in[n];
        for (const Event& e : events[n]) {
          if (e.kind != kind) continue;
          if (e.type == Event::kAcquire) {
            s.lo = std::min(s.lo + 1, kSat);
            s.hi = std::min(s.hi + 1, kSat);
          } else if (e.type == Event::kDischarge) {
            if (s.hi == 0 && dr_lines.insert(e.line).second) {
              out.push_back({path, e.line, "proto-double-release",
                             fn_label(cfg) + " discharges '" + kind +
                                 "' via " + e.what +
                                 " on a path where none is held"});
            }
            s.lo = std::max(s.lo - 1, 0);
            s.hi = std::max(s.hi - 1, 0);
          }
        }
      }
      if (reach[kCfgExit]) {
        const Interval s = in[kCfgExit];
        if (s.lo > 0) {
          out.push_back({path, cfg.header_line, "proto-leak",
                         fn_label(cfg) + " leaks '" + kind +
                             "' on every path: acquired but never "
                             "released, abandoned, or transferred"});
        } else if (s.hi > 0) {
          out.push_back({path, cfg.header_line, "proto-leak",
                         fn_label(cfg) + " may leak '" + kind +
                             "': some path reaches the exit still "
                             "holding it"});
        }
      }
    }

    // ---- proto-ack-before-commit.
    if (!ack_call_nodes.empty() && !anno.acks_on_commit &&
        emitters.count(self) == 0) {
      if (!anno.commit_point) {
        std::set<std::size_t> seen;
        for (std::size_t n : ack_call_nodes) {
          if (!seen.insert(n).second) continue;
          out.push_back(
              {path, cfg.nodes[n].line, "proto-ack-before-commit",
               fn_label(cfg) +
                   " emits a commit ack outside any acks-on-commit or "
                   "commit-point context"});
        }
      } else {
        // BFS from entry; a `commit` node consumes the frontier.
        std::vector<char> reached(cfg.nodes.size(), 0);
        std::vector<std::size_t> work{kCfgEntry};
        reached[kCfgEntry] = 1;
        auto has_commit = [&events](std::size_t n) {
          for (const Event& e : events[n]) {
            if (e.type == Event::kCommit) return true;
          }
          return false;
        };
        while (!work.empty()) {
          const std::size_t n = work.back();
          work.pop_back();
          if (has_commit(n)) continue;  // past here is after the commit
          for (std::size_t ei : succ_edges[n]) {
            const std::size_t to = cfg.edges[ei].to;
            if (!reached[to]) {
              reached[to] = 1;
              work.push_back(to);
            }
          }
        }
        std::set<std::size_t> seen;
        for (std::size_t n : ack_call_nodes) {
          if (!seen.insert(n).second) continue;
          if (reached[n] && !has_commit(n)) {
            out.push_back(
                {path, cfg.nodes[n].line, "proto-ack-before-commit",
                 fn_label(cfg) +
                     " can emit the commit ack before reaching its "
                     "commit statement"});
          }
        }
      }
    }

    // ---- coro-borrow-across-suspend.
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      for (const Event& e : events[n]) {
        if (e.type != Event::kBorrowDef) continue;
        // The borrowed variable: the identifier before the nearest `=` at
        // or before the borrow source inside this node.
        std::string var;
        for (std::size_t i = e.tok;
             i > cfg.nodes[n].begin && i < f.toks.size(); --i) {
          if (f.toks[i].text == "=" && f.toks[i].kind == TokKind::kPunct &&
              f.toks[i - 1].kind == TokKind::kIdent) {
            var = f.toks[i - 1].text;
            break;
          }
        }
        if (var.empty()) {
          if (e.what.find("annotation") != std::string::npos) {
            out.push_back({path, e.line, "proto-bad-annotation",
                           "borrow annotation on a statement without an "
                           "assignment to track"});
          }
          continue;  // unassigned borrow dies within the statement
        }
        // BFS over (node, crossed-suspension) states.
        std::set<std::pair<std::size_t, bool>> visited;
        std::vector<std::pair<std::size_t, bool>> work;
        for (std::size_t ei : succ_edges[n]) {
          work.emplace_back(cfg.edges[ei].to, cfg.edges[ei].suspension);
        }
        bool found = false;
        while (!work.empty() && !found) {
          auto [cur, crossed] = work.back();
          work.pop_back();
          if (!visited.insert({cur, crossed}).second) continue;
          bool killed = false;
          for_node_toks(cfg, cfg.nodes[cur], [&](std::size_t i) {
            if (killed || found) return;
            if (f.toks[i].kind != TokKind::kIdent || f.toks[i].text != var) {
              return;
            }
            if (i + 1 < f.toks.size() && f.toks[i + 1].text == "=") {
              killed = true;  // reassigned: the old borrow ends here
              return;
            }
            if (crossed) {
              out.push_back(
                  {path, cfg.nodes[cur].line, "coro-borrow-across-suspend",
                   "'" + var + "' borrows '" + e.kind + "' (line " +
                       std::to_string(e.line) +
                       ") but is used after a co_await suspension — the "
                       "borrow may be stale by resume time"});
              found = true;
            }
          });
          if (killed || found) continue;
          for (std::size_t ei : succ_edges[cur]) {
            work.emplace_back(cfg.edges[ei].to,
                              crossed || cfg.edges[ei].suspension);
          }
        }
      }
    }
  }
}

}  // namespace tca::lint::rules
