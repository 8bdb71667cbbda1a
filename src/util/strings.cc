#include "util/strings.h"

#include <cctype>
#include <charconv>

namespace iodb {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> SplitAndTrim(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) pos = text.size();
    std::string_view piece = StripWhitespace(text.substr(start, pos - start));
    if (!piece.empty()) out.emplace_back(piece);
    start = pos + 1;
  }
  return out;
}

bool IsIdentifier(std::string_view text) {
  if (text.empty()) return false;
  unsigned char first = static_cast<unsigned char>(text[0]);
  if (!std::isalpha(first) && first != '_') return false;
  for (size_t i = 1; i < text.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    if (!std::isalnum(c) && c != '_' && c != '\'') return false;
  }
  return true;
}

std::optional<long long> ParseInteger(std::string_view text, long long lo,
                                      long long hi) {
  long long value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace iodb
