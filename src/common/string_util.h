#ifndef PROVLIN_COMMON_STRING_UTIL_H_
#define PROVLIN_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace provlin {

/// Splits `s` on `sep`, keeping empty tokens. Split("a..b", '.') ->
/// {"a", "", "b"}. Split("", '.') -> {""}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between adjacent elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Parses a base-10 signed integer; returns false on any non-numeric input,
/// overflow, or trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a double; returns false on any malformed input.
bool ParseDouble(std::string_view s, double* out);

/// Escapes `s` for embedding in a JSON string literal (the quotes are
/// the caller's): `"` and `\` are backslash-escaped, newline, carriage
/// return and tab get their short escapes, and every other byte below
/// 0x20 becomes \u00XX. Bytes >= 0x20 pass through unchanged.
std::string JsonEscape(std::string_view s);

}  // namespace provlin

#endif  // PROVLIN_COMMON_STRING_UTIL_H_
