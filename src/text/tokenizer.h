#ifndef BANKS_TEXT_TOKENIZER_H_
#define BANKS_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace banks {

/// Lower-cases and splits on non-alphanumeric characters, then drops
/// tokens shorter than kMinTokenLength and common English function
/// words ("the", "of", ...). Deterministic and locale-independent
/// (ASCII). The rules are fixed because the index, its update
/// overlays, the paged store, the tuple matcher and the workload
/// generator must all agree on tokens.
class Tokenizer {
 public:
  /// Single characters are noise in bibliographic text (middle
  /// initials).
  static constexpr size_t kMinTokenLength = 2;

  Tokenizer();

  std::vector<std::string> Tokenize(std::string_view text) const;

  /// Folds one query keyword the same way indexed tokens are folded
  /// (lower-case only; stopword/min-length filters do not apply to
  /// explicit user keywords).
  static std::string FoldKeyword(std::string_view keyword);

  bool IsStopword(const std::string& token) const;

 private:
  std::unordered_set<std::string> stopwords_;
};

}  // namespace banks

#endif  // BANKS_TEXT_TOKENIZER_H_
