// tca_lint — project-invariant static analysis for the TCA simulator.
//
// Four rule families over a light token stream (see lexer.h):
//
//  coroutine lifetime (plus one compiler workaround)
//    coro-temporary-closure  capturing lambda coroutine invoked as a
//                            temporary: the closure dies at the end of the
//                            full-expression while the coroutine frame
//                            lives on (the PR 3 ASan bug class).
//    coro-ref-param          coroutine (or Task-returning function) taking
//                            a const-lvalue- or rvalue-reference parameter:
//                            both bind temporaries that die at the first
//                            suspension point. Take parameters by value.
//    coro-await-in-conditional  co_await in a ?: operand: GCC 12
//                            destroys the conditional's result twice.
//                            Branch with if/else.
//
//  determinism
//    det-wall-clock          wall-clock reads (system_clock, steady_clock,
//                            ...) outside bench/ — replay must depend only
//                            on simulated time.
//    det-raw-rand            rand()/random_device/std engines outside
//                            common/rng — all randomness flows through the
//                            seeded, cross-platform Rng.
//    det-unordered-iter      range-for over a container declared as
//                            std::unordered_{map,set,...}: iteration order
//                            is implementation-defined, so anything it
//                            feeds (trace, metrics, free lists) diverges
//                            across platforms.
//    det-shard-shared-state  mutable static or inline variable in the
//                            simulator (src/): simulation state must be
//                            per-simulation, not process-global, so
//                            independent simulations can share a process
//                            or a thread pool; a global that is not const/
//                            std::atomic/thread_local leaks between them
//                            and races.
//
//  register map call sites (the map itself is src/peach2/registers.h's
//  kRegMap, checked by its static_asserts on every build)
//    reg-magic-mmio          write_register/read_register/dma_bank called
//                            with a literal integer offset instead of a
//                            regs:: constant.
//
//  protocol lifecycle (flow-sensitive, over the CFGs of cfg.h; driven by
//  `// tca-protocol:` annotations — grammar in rules_protocol.cpp and
//  docs/ARCHITECTURE.md; the collectives' flag-word partition is no rule
//  here: src/coll/communicator.cpp static_asserts it on every build)
//    proto-leak              an acquired tag/credit/slot reaches the
//                            function exit without a release, abandon, or
//                            transfer on some (or every) path.
//    proto-double-release    a release reachable on a path where nothing is
//                            held.
//    proto-ack-before-commit PEARL ack emission (an `acks-on-commit`
//                            function) reachable before the commit edge of
//                            a `commit-point` function, or outside any
//                            acks-on-commit context at all — the PR 8
//                            ack-outruns-data-commit chaos bug, at lint
//                            time.
//    coro-borrow-across-suspend  a value borrowed from a `borrows(k)`
//                            function (arena frames, ...) used on a path
//                            that crossed a co_await suspension edge.
//    proto-bad-annotation    a tca-protocol annotation that does not
//                            parse or attaches to nothing — deleting
//                            annotated code without its annotation is
//                            itself a gate failure.
//
// Suppression: `// tca-lint: allow(rule-id): <justification>` on the same
// line as the finding or the line directly above. The justification is
// mandatory; a malformed or bare allow is itself a finding
// (lint-bad-suppression).
//
// An explicit file that cannot be read is a finding too
// (lint-unreadable-file), so a mistyped path fails the run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "tca_lint/lexer.h"

namespace tca::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  /// Project root: scans src/, tests/, tools/, examples/, bench/ (*.h,
  /// *.cpp), excluding lint fixtures. Path-scoped rule exemptions apply (bench/ may read the wall clock;
  /// common/rng may touch raw generators).
  std::string root;
  /// Explicit files to lint with *all* rules active (fixtures/tests).
  std::vector<std::string> files;
};

/// Runs the configured lint; findings are sorted by (file, line, rule).
/// Suppressions have been applied.
std::vector<Finding> run_lint(const Options& opts);

/// All rule ids (for --list-rules and the self-tests).
std::vector<std::string> rule_ids();

namespace rules {

/// Call-site effects of a protocol-annotated function, registered by the
/// last `::` component of its name. `owns` and `commit-point` are NOT here:
/// they attach locally at the definition so that same-named methods on
/// different classes (RootComplex::on_tlp vs Peach2Chip::on_tlp) do not
/// inherit each other's obligations.
struct ProtoEffects {
  std::vector<std::string> acquires;  ///< calling yields one of each kind
  std::vector<std::string> releases;  ///< calling discharges one of each
  std::vector<std::string> abandons;  ///< discharges without completing
  std::vector<std::string> borrows;   ///< result borrows from this pool
  bool acks_on_commit = false;        ///< this call IS the PEARL ack
};

/// Symbol context shared across files within one run.
struct Context {
  /// Names declared anywhere in the run as unordered containers.
  std::vector<std::string> unordered_names;
  /// Protocol registry: last name component -> annotated call effects.
  std::map<std::string, ProtoEffects> protocol;
};

/// Which path-scoped exemptions/scopes apply to a file.
struct FileScope {
  bool allow_wall_clock = false;   // bench/ measures real time
  bool allow_raw_rand = false;     // common/rng wraps the generator
  bool check_magic_mmio = true;    // driver/, peach2/, tests/ + fixtures
  bool check_shard_state = true;   // src/ (the simulator) + fixtures
  bool check_protocol = true;      // src/ (annotated subsystems) + fixtures
};

void collect_unordered_names(const LexedFile& f, Context& ctx);
void collect_protocol_annotations(const LexedFile& f, Context& ctx);

void check_coroutines(const std::string& path, const LexedFile& f,
                      std::vector<Finding>& out);
void check_determinism(const std::string& path, const LexedFile& f,
                       const Context& ctx, const FileScope& scope,
                       std::vector<Finding>& out);
void check_magic_mmio(const std::string& path, const LexedFile& f,
                      std::vector<Finding>& out);
void check_protocol(const std::string& path, const LexedFile& f,
                    const Context& ctx, std::vector<Finding>& out);

}  // namespace rules

}  // namespace tca::lint
