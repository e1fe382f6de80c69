#include "tca_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace tca::lint {

namespace fs = std::filesystem;

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

/// A parsed `tca-lint: allow(rule[, rule...]): justification` directive.
struct Allow {
  std::vector<std::string> allowed_rules;
  bool well_formed = false;
};

Allow parse_allow(const std::string& comment) {
  Allow a;
  const std::size_t at = comment.find("tca-lint:");
  if (at == std::string::npos) return a;
  std::size_t p = comment.find("allow", at);
  if (p == std::string::npos) return a;
  p = comment.find('(', p);
  const std::size_t close = comment.find(')', p == std::string::npos ? 0 : p);
  if (p == std::string::npos || close == std::string::npos) return a;
  // Rule list.
  std::string name;
  for (std::size_t i = p + 1; i <= close; ++i) {
    const char c = comment[i];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
        c == '_') {
      name += c;
    } else if (!name.empty()) {
      a.allowed_rules.push_back(name);
      name.clear();
    }
  }
  if (a.allowed_rules.empty()) return a;
  // Mandatory justification: `): <non-empty text>`.
  std::size_t j = close + 1;
  if (j >= comment.size() || comment[j] != ':') return a;
  ++j;
  while (j < comment.size() &&
         std::isspace(static_cast<unsigned char>(comment[j]))) {
    ++j;
  }
  if (j >= comment.size()) return a;
  a.well_formed = true;
  return a;
}

/// Applies the suppression mechanism: drops findings covered by a
/// well-formed allow on the same or preceding line, and reports malformed
/// allow directives.
void apply_suppressions(const std::string& path, const LexedFile& f,
                        std::vector<Finding>* findings) {
  std::map<int, Allow> allows;
  for (const auto& [line, text] : f.comments) {
    if (text.find("tca-lint:") == std::string::npos) continue;
    Allow a = parse_allow(text);
    if (a.allowed_rules.empty() && !a.well_formed) {
      // A tca-lint marker with no parsable allow(...) clause.
      findings->push_back({path, line, "lint-bad-suppression",
                           "unparsable tca-lint directive (expected "
                           "`tca-lint: allow(rule): justification`)"});
      continue;
    }
    if (!a.well_formed) {
      findings->push_back({path, line, "lint-bad-suppression",
                           "tca-lint allow without a justification — "
                           "`allow(rule): why it is safe` is mandatory"});
      continue;
    }
    allows.emplace(line, std::move(a));
  }
  auto covered = [&allows](const Finding& fi) {
    for (int line : {fi.line, fi.line - 1}) {
      auto it = allows.find(line);
      if (it == allows.end()) continue;
      const auto& rules = it->second.allowed_rules;
      if (std::find(rules.begin(), rules.end(), fi.rule) != rules.end()) {
        return true;
      }
    }
    return false;
  };
  findings->erase(
      std::remove_if(findings->begin(), findings->end(),
                     [&](const Finding& fi) {
                       return fi.rule != "lint-bad-suppression" &&
                              covered(fi);
                     }),
      findings->end());
}

// ---------------------------------------------------------------------------
// Content-hash result cache (Options::cache_dir).
//
// Two validity levels per file:
//  * contributions (unordered-container names, protocol registry entries)
//    depend only on the file's own content — valid whenever the content
//    hash matches;
//  * findings additionally depend on every *other* file's contributions, so
//    they carry the run's context hash and go stale when any annotated
//    declaration anywhere changes.
// A warm run with no edits lexes nothing at all.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = kFnvOffset) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return s;
}

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const std::string& e : v) {
    if (!s.empty()) s += ';';
    s += e;
  }
  return s;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> v;
  std::string cur;
  for (char c : s) {
    if (c == ';') {
      if (!cur.empty()) v.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) v.push_back(cur);
  return v;
}

struct FileEntry {
  std::string path;
  std::string text;
  LexedFile lexed;
  bool is_lexed = false;
  rules::FileScope scope;
  bool is_registers = false;
  std::uint64_t key = 0;  ///< content + scope + rule-set hash
  std::string cache_path;
  // Cached state (when valid).
  bool contrib_cached = false;
  bool findings_cached = false;  ///< requires the ctx hash to match too
  std::vector<std::string> cached_unordered;
  std::map<std::string, rules::ProtoEffects> cached_proto;
  std::vector<Finding> cached_findings;
};

const LexedFile& ensure_lexed(FileEntry& fe) {
  if (!fe.is_lexed) {
    fe.lexed = lex(fe.text);
    fe.is_lexed = true;
  }
  return fe.lexed;
}

std::uint64_t scope_bits(const rules::FileScope& s, bool is_registers) {
  return (s.allow_wall_clock ? 1u : 0u) | (s.allow_raw_rand ? 2u : 0u) |
         (s.check_magic_mmio ? 4u : 0u) | (s.check_shard_state ? 8u : 0u) |
         (s.check_protocol ? 16u : 0u) | (is_registers ? 32u : 0u);
}

/// Loads a cache entry for `fe`; fills cached_* on content match.
void load_cache_entry(FileEntry& fe, bool check_ctx,
                      std::uint64_t ctx_hash) {
  std::ifstream in(fe.cache_path);
  if (!in) return;
  std::string line;
  if (!std::getline(in, line) || line != "tca-lint-cache v1") return;
  if (!std::getline(in, line) || line.rfind("key ", 0) != 0 ||
      line.substr(4) != hex64(fe.key)) {
    return;
  }
  std::vector<std::string> unordered;
  std::map<std::string, rules::ProtoEffects> proto;
  std::vector<Finding> findings;
  bool ctx_ok = false;
  while (std::getline(in, line)) {
    if (line.rfind("unordered ", 0) == 0) {
      unordered.push_back(line.substr(10));
    } else if (line.rfind("proto ", 0) == 0) {
      std::vector<std::string> cols;
      std::string cur;
      for (std::size_t i = 6; i <= line.size(); ++i) {
        if (i == line.size() || line[i] == '\t') {
          cols.push_back(cur);
          cur.clear();
        } else {
          cur += line[i];
        }
      }
      if (cols.size() != 6) return;  // corrupt: drop the whole entry
      rules::ProtoEffects eff;
      eff.acquires = split(cols[1]);
      eff.releases = split(cols[2]);
      eff.abandons = split(cols[3]);
      eff.borrows = split(cols[4]);
      eff.acks_on_commit = cols[5] == "1";
      proto[cols[0]] = std::move(eff);
    } else if (line.rfind("ctx ", 0) == 0) {
      ctx_ok = check_ctx && line.substr(4) == hex64(ctx_hash);
    } else if (line.rfind("finding ", 0) == 0) {
      std::vector<std::string> cols;
      std::string cur;
      for (std::size_t i = 8; i <= line.size(); ++i) {
        if (i == line.size() || line[i] == '\t') {
          cols.push_back(cur);
          cur.clear();
        } else {
          cur += line[i];
        }
      }
      if (cols.size() != 3) return;
      findings.push_back(
          {fe.path, std::atoi(cols[0].c_str()), cols[1], cols[2]});
    } else {
      return;  // unknown record: treat as corrupt
    }
  }
  fe.contrib_cached = true;
  fe.cached_unordered = std::move(unordered);
  fe.cached_proto = std::move(proto);
  if (ctx_ok) {
    fe.findings_cached = true;
    fe.cached_findings = std::move(findings);
  }
}

void store_cache_entry(const FileEntry& fe, std::uint64_t ctx_hash,
                       const std::vector<Finding>& findings) {
  std::ofstream outf(fe.cache_path, std::ios::trunc);
  if (!outf) return;
  outf << "tca-lint-cache v1\n";
  outf << "key " << hex64(fe.key) << "\n";
  for (const std::string& n : fe.cached_unordered) {
    outf << "unordered " << n << "\n";
  }
  for (const auto& [name, eff] : fe.cached_proto) {
    outf << "proto " << name << "\t" << join(eff.acquires) << "\t"
         << join(eff.releases) << "\t" << join(eff.abandons) << "\t"
         << join(eff.borrows) << "\t" << (eff.acks_on_commit ? 1 : 0)
         << "\n";
  }
  outf << "ctx " << hex64(ctx_hash) << "\n";
  for (const Finding& fi : findings) {
    outf << "finding " << fi.line << "\t" << fi.rule << "\t" << fi.message
         << "\n";
  }
}

}  // namespace

std::vector<std::string> rule_ids() {
  return {
      "coro-temporary-closure",
      "coro-ref-param",
      "coro-await-in-conditional",
      "coro-borrow-across-suspend",
      "det-wall-clock",
      "det-raw-rand",
      "det-unordered-iter",
      "det-shard-shared-state",
      "reg-magic-mmio",
      "reg-misaligned",
      "reg-dup-offset",
      "reg-out-of-window",
      "reg-field-overflow",
      "reg-bank-overlap",
      "reg-bad-alias",
      "reg-table-mismatch",
      "reg-map-parse",
      "proto-leak",
      "proto-double-release",
      "proto-ack-before-commit",
      "proto-bad-annotation",
      "coll-flag-overlap",
      "lint-bad-suppression",
  };
}

std::vector<Finding> run_lint(const Options& opts) {
  std::vector<FileEntry> files;
  std::vector<Finding> out;

  auto add_file = [&files](const std::string& path,
                           const rules::FileScope& scope, bool is_regs) {
    FileEntry fe;
    fe.path = path;
    if (!read_file(path, &fe.text)) return false;
    fe.scope = scope;
    fe.is_registers = is_regs;
    files.push_back(std::move(fe));
    return true;
  };

  if (!opts.root.empty()) {
    const fs::path root(opts.root);
    std::vector<std::string> paths;
    for (const char* dir :
         {"src", "tests", "tools", "examples", "bench"}) {
      const fs::path sub = root / dir;
      if (!fs::exists(sub)) continue;
      for (const auto& ent : fs::recursive_directory_iterator(sub)) {
        if (!ent.is_regular_file()) continue;
        const std::string ext = ent.path().extension().string();
        if (ext != ".h" && ext != ".cpp" && ext != ".hpp") continue;
        std::string p = ent.path().generic_string();
        if (path_contains(p, "lint/fixtures/")) continue;  // seeded bugs
        paths.push_back(std::move(p));
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& p : paths) {
      rules::FileScope scope;
      scope.allow_wall_clock = path_contains(p, "bench/");
      scope.allow_raw_rand = path_contains(p, "common/rng");
      scope.check_magic_mmio = path_contains(p, "src/driver/") ||
                               path_contains(p, "src/peach2/") ||
                               path_contains(p, "tests/");
      scope.check_shard_state = path_contains(p, "src/sim/");
      // Protocol annotations live in src/; tests construct protocol
      // messages legitimately and tools/ documents the grammar, so neither
      // registers effects nor gets lifecycle-checked.
      scope.check_protocol = path_contains(p, "src/");
      add_file(p, scope, path_contains(p, "peach2/registers.h"));
    }
  }

  for (const std::string& p : opts.files) {
    rules::FileScope scope;  // explicit files: every rule active
    if (!add_file(p, scope, false)) {
      out.push_back({p, 0, "reg-map-parse", "cannot read file"});
    }
  }
  if (!opts.registers_path.empty()) {
    if (!add_file(opts.registers_path, rules::FileScope{}, true)) {
      out.push_back(
          {opts.registers_path, 0, "reg-map-parse", "cannot read file"});
    }
  }

  // -- Cache lookup (contribution level). The key folds in the rule set so
  // new rules invalidate stale entries wholesale.
  const bool use_cache = !opts.cache_dir.empty();
  if (use_cache) {
    std::error_code ec;
    fs::create_directories(opts.cache_dir, ec);
  }
  const std::uint64_t rules_hash = fnv1a(join(rule_ids()));
  for (FileEntry& fe : files) {
    fe.key = fnv1a(fe.text,
                   fnv1a(fe.path, rules_hash ^ scope_bits(fe.scope,
                                                          fe.is_registers)));
    if (use_cache) {
      fe.cache_path =
          (fs::path(opts.cache_dir) / (hex64(fnv1a(fe.path)) + ".lintcache"))
              .string();
      load_cache_entry(fe, /*check_ctx=*/false, 0);
    }
  }

  // -- Contributions: from cache when content matched, else computed.
  for (FileEntry& fe : files) {
    if (fe.contrib_cached) continue;
    rules::Context local;
    rules::collect_unordered_names(ensure_lexed(fe), local);
    if (fe.scope.check_protocol) {
      rules::collect_protocol_annotations(fe.lexed, local);
    }
    fe.cached_unordered = std::move(local.unordered_names);
    fe.cached_proto = std::move(local.protocol);
  }

  // -- Merge into the run context (sorted path order keeps it stable) and
  // hash it for the finding-level cache validity check.
  rules::Context ctx;
  {
    std::set<std::string> unordered;
    for (const FileEntry& fe : files) {
      unordered.insert(fe.cached_unordered.begin(),
                       fe.cached_unordered.end());
      for (const auto& [name, eff] : fe.cached_proto) {
        rules::ProtoEffects& merged = ctx.protocol[name];
        auto add = [](std::vector<std::string>& v,
                      const std::vector<std::string>& from) {
          for (const std::string& k : from) {
            if (std::find(v.begin(), v.end(), k) == v.end()) v.push_back(k);
          }
        };
        add(merged.acquires, eff.acquires);
        add(merged.releases, eff.releases);
        add(merged.abandons, eff.abandons);
        add(merged.borrows, eff.borrows);
        merged.acks_on_commit |= eff.acks_on_commit;
      }
    }
    ctx.unordered_names.assign(unordered.begin(), unordered.end());
  }
  std::uint64_t ctx_hash = kFnvOffset;
  {
    std::string blob = join(ctx.unordered_names);
    for (const auto& [name, eff] : ctx.protocol) {
      blob += '\n';
      blob += name + '\t' + join(eff.acquires) + '\t' + join(eff.releases) +
              '\t' + join(eff.abandons) + '\t' + join(eff.borrows) + '\t' +
              (eff.acks_on_commit ? '1' : '0');
    }
    // Kinds are sorted inside join inputs by construction order; sort the
    // vectors first so merge order cannot perturb the hash.
    ctx_hash = fnv1a(blob);
  }

  // -- Findings: cached when both content and context match.
  for (FileEntry& fe : files) {
    if (use_cache && fe.contrib_cached && !fe.findings_cached) {
      // Re-read the entry now that the context hash is known.
      fe.cached_findings.clear();
      load_cache_entry(fe, /*check_ctx=*/true, ctx_hash);
    }
    if (fe.findings_cached) {
      out.insert(out.end(), fe.cached_findings.begin(),
                 fe.cached_findings.end());
      continue;
    }
    const LexedFile& lf = ensure_lexed(fe);
    std::vector<Finding> file_findings;
    rules::check_coroutines(fe.path, lf, file_findings);
    rules::check_determinism(fe.path, lf, ctx, fe.scope, file_findings);
    if (fe.scope.check_magic_mmio) {
      rules::check_magic_mmio(fe.path, lf, file_findings);
    }
    if (fe.scope.check_protocol) {
      rules::check_protocol(fe.path, lf, ctx, file_findings);
    }
    if (fe.is_registers) {
      rules::check_register_map(fe.path, lf, file_findings);
    }
    apply_suppressions(fe.path, lf, &file_findings);
    if (use_cache) store_cache_entry(fe, ctx_hash, file_findings);
    out.insert(out.end(), file_findings.begin(), file_findings.end());
  }

  std::sort(out.begin(), out.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

}  // namespace tca::lint
