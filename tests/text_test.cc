#include <gtest/gtest.h>

#include <algorithm>

#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace banks {
namespace {

// ---------------------------------------------------------- Tokenizer --

TEST(Tokenizer, LowercasesAndSplits) {
  Tokenizer t;
  auto tokens = t.Tokenize("Bidirectional Expansion, For KEYWORD-Search!");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "bidirectional");
  EXPECT_EQ(tokens[1], "expansion");
  EXPECT_EQ(tokens[2], "keyword");
  EXPECT_EQ(tokens[3], "search");
}

TEST(Tokenizer, RemovesStopwords) {
  Tokenizer t;
  auto tokens = t.Tokenize("the quick and the dead");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "quick");
  EXPECT_EQ(tokens[1], "dead");
}

TEST(Tokenizer, MinTokenLength) {
  Tokenizer t;  // tokens shorter than two characters are dropped
  auto tokens = t.Tokenize("j smith q database");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "smith");
}

TEST(Tokenizer, EmptyAndPunctuationOnly) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("... --- !!!").empty());
}

TEST(Tokenizer, FoldKeywordLowercasesOnly) {
  EXPECT_EQ(Tokenizer::FoldKeyword("The"), "the");  // stopwords kept
  EXPECT_EQ(Tokenizer::FoldKeyword("GRAY"), "gray");
}

TEST(Tokenizer, AlphanumericTokens) {
  Tokenizer t;
  auto tokens = t.Tokenize("vldb2005 paper");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "vldb2005");
}

// ------------------------------------------------------ InvertedIndex --

TEST(InvertedIndex, BasicPostings) {
  InvertedIndex idx;
  idx.AddDocument(1, "keyword search on graphs");
  idx.AddDocument(2, "graph keyword search");
  idx.Freeze();
  auto p = idx.Postings("keyword");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 1u);
  EXPECT_EQ(p[1], 2u);
  EXPECT_TRUE(idx.Postings("missing").empty());
}

TEST(InvertedIndex, PostingsAreSortedAndUnique) {
  InvertedIndex idx;
  idx.AddDocument(5, "alpha alpha alpha");
  idx.AddDocument(3, "alpha");
  idx.AddDocument(9, "alpha beta alpha");
  idx.Freeze();
  auto p = idx.Postings("alpha");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
}

TEST(InvertedIndex, QueryIsCaseInsensitive) {
  InvertedIndex idx;
  idx.AddDocument(1, "Gray Transaction");
  idx.Freeze();
  EXPECT_EQ(idx.Postings("GRAY").size(), 1u);
  EXPECT_EQ(idx.Postings("gray").size(), 1u);
}

TEST(InvertedIndex, RelationNameMatchesWholeTable) {
  // §2.2: "if a term matches a relation name, all tuples in the
  // relation are assumed to match the term."
  InvertedIndex idx;
  idx.AddDocument(0, "something");
  idx.RegisterRelation("paper", 10, 5);
  idx.Freeze();
  auto m = idx.Match("paper");
  ASSERT_EQ(m.size(), 5u);
  EXPECT_EQ(m.front(), 10u);
  EXPECT_EQ(m.back(), 14u);
  EXPECT_EQ(idx.MatchCount("paper"), 5u);
}

TEST(InvertedIndex, RelationAndTokenMatchesMerge) {
  InvertedIndex idx;
  idx.AddDocument(3, "paper about paper folding");
  idx.RegisterRelation("paper", 10, 2);
  idx.Freeze();
  auto m = idx.Match("paper");
  // Node 3 (token) plus nodes 10, 11 (relation range).
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0], 3u);
  EXPECT_EQ(m[1], 10u);
  EXPECT_EQ(m[2], 11u);
}

TEST(InvertedIndex, RelationTokenOverlapDeduplicates) {
  InvertedIndex idx;
  idx.AddDocument(10, "paper");  // node 10 also inside the relation range
  idx.RegisterRelation("paper", 10, 2);
  idx.Freeze();
  EXPECT_EQ(idx.Match("paper").size(), 2u);
}

TEST(InvertedIndex, MatchUnknownTermIsEmpty) {
  InvertedIndex idx;
  idx.Freeze();
  EXPECT_TRUE(idx.Match("nothing").empty());
  EXPECT_EQ(idx.MatchCount("nothing"), 0u);
}

TEST(InvertedIndex, NumTermsCountsDistinctTokens) {
  InvertedIndex idx;
  idx.AddDocument(1, "alpha beta");
  idx.AddDocument(2, "beta gamma");
  idx.Freeze();
  EXPECT_EQ(idx.num_terms(), 3u);
}

}  // namespace
}  // namespace banks
