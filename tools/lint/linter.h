#ifndef HETESIM_TOOLS_LINT_LINTER_H_
#define HETESIM_TOOLS_LINT_LINTER_H_

#include <string>
#include <vector>

#include "source_scan.h"

/// \file
/// \brief The per-file project checker: token-level enforcement of the
/// project conventions the compiler cannot see (DESIGN.md §11).
/// `hetesim_analyze` runs these rules over src/.
///
/// The checker is deliberately a *token scan*, not a parser: it strips
/// comments and string literals (preserving line numbers) and then looks for
/// forbidden token patterns. That keeps it dependency-free, fast enough to
/// run on every CI push, and immune to the build flags / include paths a
/// real frontend would need. The cost is a small amount of strictness — a
/// forbidden token inside a macro body or nested lambda is flagged even when
/// a full parse might excuse it — which is resolved case by case with an
/// explicit same-line suppression:
///
///     ... flagged code ...  // hetesim-lint: allow(rule-id)
///
/// (comma-separate several rule ids to suppress more than one). Every
/// suppression is expected to carry a one-line justification nearby; the
/// rule catalogue and the suppression policy live in DESIGN.md §11.
///
/// Rules:
///   no-raw-thread        std::thread / std::async outside the thread-pool
///                        runtime (thread_pool.h/.cc are exempt;
///                        std::thread::hardware_concurrency is allowed).
///   no-naked-new         new / malloc / calloc / realloc anywhere — owning
///                        containers and smart pointers only. Leaked
///                        singletons carry an allow comment.
///   no-raw-mutex         std::mutex / std::lock_guard / std::unique_lock /
///                        std::condition_variable etc. outside
///                        common/mutex.h — use the annotated Mutex wrappers
///                        so Clang thread-safety analysis sees the locks.
///   fault-point-alloc    in the context-aware kernels (spgemm.cc,
///                        path_matrix.cc) every budget reservation
///                        (`ctx.Reserve(...)`) must sit within a few lines
///                        after a HETESIM_FAULT_POINT so the resilience
///                        suite can fail it deterministically.
///   no-check-in-status-fn  HETESIM_CHECK* inside a function returning
///                        Status / Result<T> by value — recoverable paths
///                        report errors, they do not abort. HETESIM_DCHECK
///                        remains allowed for internal invariants.
///   include-self-first   a .cc file that has a same-stem header must
///                        include it first (catches headers that do not
///                        stand alone).
///   include-src-prefix   no `#include "src/..."` and no `#include "../..."`
///                        — all project includes are relative to src/, so
///                        the tree layout never leaks into public headers.
namespace hetesim::lint {

/// One finding. `line` is 1-based. `rule` is the kebab-case rule id the
/// suppression syntax refers to.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Renders a diagnostic as `file:line: [rule-id] message` — the exact format
/// the fixture tests assert against.
std::string FormatDiagnostic(const Diagnostic& diag);

/// Runs every rule over one translation unit. `path` is used for rule
/// scoping (basename exemptions) and for the emitted diagnostics; `content`
/// is the raw file text. Diagnostics come back in line order.
std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& content);

/// Reads `path` and lints it; appends to `out`. Returns false (appending
/// nothing) when the file cannot be read.
bool LintFile(const std::string& path, std::vector<Diagnostic>* out);

// StripForScan / CollectSourceFiles and the other token-scan primitives the
// fixtures exercise moved to source_scan.h (shared with hetesim_analyze).

}  // namespace hetesim::lint

#endif  // HETESIM_TOOLS_LINT_LINTER_H_
