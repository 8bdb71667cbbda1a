// Small string helpers used across the library (joining, splitting,
// identifier checks). Kept dependency-free.

#ifndef IODB_UTIL_STRINGS_H_
#define IODB_UTIL_STRINGS_H_

#include <climits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iodb {

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on `sep`, trimming ASCII whitespace from each piece and
/// dropping empty pieces.
std::vector<std::string> SplitAndTrim(std::string_view text, char sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` is a valid identifier: [A-Za-z_][A-Za-z0-9_']*.
bool IsIdentifier(std::string_view text);

/// Parses the whole of `text` as one decimal integer (an optional '-'
/// then digits: no '+', whitespace or trailing junk) in [lo, hi];
/// nullopt otherwise. The one integer parser for wire and command-line
/// values.
std::optional<long long> ParseInteger(std::string_view text,
                                      long long lo = LLONG_MIN,
                                      long long hi = LLONG_MAX);

}  // namespace iodb

#endif  // IODB_UTIL_STRINGS_H_
