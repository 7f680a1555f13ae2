#ifndef HETESIM_TOOLS_LINT_SOURCE_SCAN_H_
#define HETESIM_TOOLS_LINT_SOURCE_SCAN_H_

#include <map>
#include <set>
#include <string>
#include <vector>

/// \file
/// \brief The shared token-scan substrate behind both rule sets.
///
/// The per-file conventions (linter.h) and the whole-program invariants
/// (analyzer.h) of `hetesim_analyze` are deliberately *token scanners*,
/// not parsers: they strip comments and literals (preserving line numbers)
/// and match token patterns in what remains. That keeps them dependency-free
/// and immune to build flags; the shared primitives live here so both tools
/// agree on what "a token" and "a suppressed line" mean.

namespace hetesim::lint {

/// True for characters that can appear in a C++ identifier.
bool IsIdentChar(char c);

/// Final path component.
std::string Basename(const std::string& path);

/// `name` with its last extension removed.
std::string Stem(const std::string& name);

/// Replaces comments and string/character-literal contents with spaces,
/// preserving every newline so line numbers survive.
std::string StripForScan(const std::string& content);

/// 0-based byte offset of the start of every line, for offset -> line
/// translation after a scan.
std::vector<size_t> LineStarts(const std::string& content);

/// 1-based line number of byte `offset` given `LineStarts` output.
int LineOf(const std::vector<size_t>& starts, size_t offset);

/// Finds `word` at an identifier boundary in `text` starting at `from`;
/// npos when absent.
size_t FindWord(const std::string& text, const std::string& word, size_t from);

/// Offset one past the `)` matching the paren at/after `open`; npos when
/// unbalanced.
size_t SkipParens(const std::string& text, size_t open);

/// First non-whitespace offset at or after `i`.
size_t SkipWs(const std::string& text, size_t i);

/// Per-line `// hetesim-lint: allow(rule-a, rule-b)` suppressions, parsed
/// from the *raw* content (the marker lives in a comment, which the scan
/// text has blanked out). Shared by both tools: one suppression syntax, one
/// policy (DESIGN.md §11/§15).
std::map<int, std::set<std::string>> ParseSuppressions(
    const std::string& content);

/// All lintable sources (.h/.cc/.cpp) under `root`, sorted, recursing into
/// subdirectories. Hidden directories, `build*` trees, and any directory
/// named in `skip_dirs` (e.g. `lint_fixtures`, which holds intentionally
/// broken sources) are skipped.
std::vector<std::string> CollectSourceFiles(
    const std::string& root, const std::set<std::string>& skip_dirs = {});

/// Reads `path` into `out`; false when the file cannot be opened.
bool ReadFileToString(const std::string& path, std::string* out);

}  // namespace hetesim::lint

#endif  // HETESIM_TOOLS_LINT_SOURCE_SCAN_H_
