#include "tca_lint/lint.h"

#include <algorithm>
#include <cctype>
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

struct FileEntry {
  std::string path;
  std::string text;
  LexedFile lexed;
  rules::FileScope scope;
};

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
      "proto-leak",
      "proto-double-release",
      "proto-ack-before-commit",
      "proto-bad-annotation",
      "lint-bad-suppression",
      "lint-unreadable-file",
  };
}

std::vector<Finding> run_lint(const Options& opts) {
  std::vector<FileEntry> files;
  std::vector<Finding> out;

  auto add_file = [&files](const std::string& path,
                           const rules::FileScope& scope) {
    FileEntry fe;
    fe.path = path;
    if (!read_file(path, &fe.text)) return false;
    fe.scope = scope;
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
      scope.check_shard_state = path_contains(p, "src/");
      // Protocol annotations live in src/; tests construct protocol
      // messages legitimately and tools/ documents the grammar, so neither
      // registers effects nor gets lifecycle-checked.
      scope.check_protocol = path_contains(p, "src/");
      add_file(p, scope);
    }
  }

  for (const std::string& p : opts.files) {
    rules::FileScope scope;  // explicit files: every rule active
    if (!add_file(p, scope)) {
      out.push_back({p, 0, "lint-unreadable-file", "cannot read file"});
    }
  }

  // -- Contributions: every file's unordered-container names and protocol
  // annotations, merged in sorted path order so the context is stable.
  rules::Context ctx;
  std::set<std::string> unordered;
  auto add = [](std::vector<std::string>& v,
                const std::vector<std::string>& from) {
    for (const std::string& k : from) {
      if (std::find(v.begin(), v.end(), k) == v.end()) v.push_back(k);
    }
  };
  for (FileEntry& fe : files) {
    fe.lexed = lex(fe.text);
    rules::Context local;
    rules::collect_unordered_names(fe.lexed, local);
    if (fe.scope.check_protocol) {
      rules::collect_protocol_annotations(fe.lexed, local);
    }
    unordered.insert(local.unordered_names.begin(),
                     local.unordered_names.end());
    for (const auto& [name, eff] : local.protocol) {
      rules::ProtoEffects& merged = ctx.protocol[name];
      add(merged.acquires, eff.acquires);
      add(merged.releases, eff.releases);
      add(merged.abandons, eff.abandons);
      add(merged.borrows, eff.borrows);
      merged.acks_on_commit |= eff.acks_on_commit;
    }
  }
  ctx.unordered_names.assign(unordered.begin(), unordered.end());

  // -- Findings.
  for (const FileEntry& fe : files) {
    const LexedFile& lf = fe.lexed;
    std::vector<Finding> file_findings;
    rules::check_coroutines(fe.path, lf, file_findings);
    rules::check_determinism(fe.path, lf, ctx, fe.scope, file_findings);
    if (fe.scope.check_magic_mmio) {
      rules::check_magic_mmio(fe.path, lf, file_findings);
    }
    if (fe.scope.check_protocol) {
      rules::check_protocol(fe.path, lf, ctx, file_findings);
    }
    apply_suppressions(fe.path, lf, &file_findings);
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
