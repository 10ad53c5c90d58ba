#include "text/tokenizer.h"

#include <cctype>

#include "util/string_util.h"

namespace banks {
namespace {

const char* const kStopwords[] = {
    "a",   "an",  "and", "are", "as",   "at",   "be",   "by",  "for",
    "from", "in",  "is",  "it",  "of",   "on",   "or",   "the", "to",
    "with", "we",  "our", "this", "that", "these", "using"};

}  // namespace

Tokenizer::Tokenizer() {
  for (const char* w : kStopwords) stopwords_.insert(w);
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.size() >= kMinTokenLength && !IsStopword(current)) {
      tokens.push_back(current);
    }
    current.clear();
  };
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

std::string Tokenizer::FoldKeyword(std::string_view keyword) {
  return ToLowerAscii(keyword);
}

bool Tokenizer::IsStopword(const std::string& token) const {
  return stopwords_.count(token) > 0;
}

}  // namespace banks
