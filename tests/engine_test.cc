#include "banks/engine.h"

#include <gtest/gtest.h>

#include "datasets/dblp_gen.h"

namespace banks {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpConfig config;
    config.num_authors = 200;
    config.num_papers = 400;
    config.num_conferences = 15;
    db_ = new Database(GenerateDblp(config));
    engine_ = new Engine(Engine::FromDatabase(*db_));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
  }
  static Database* db_;
  static Engine* engine_;
};

Database* EngineTest::db_ = nullptr;
Engine* EngineTest::engine_ = nullptr;

TEST_F(EngineTest, GraphMatchesDatabase) {
  EXPECT_EQ(engine_->graph().num_nodes(), db_->TotalRows());
  EXPECT_EQ(engine_->prestige().size(), db_->TotalRows());
}

TEST_F(EngineTest, ResolveRelationName) {
  auto origins = engine_->Resolve({"author"});
  ASSERT_EQ(origins.size(), 1u);
  EXPECT_EQ(origins[0].size(), db_->FindTable("author")->num_rows());
}

TEST_F(EngineTest, ResolveUnknownKeywordIsEmpty) {
  auto origins = engine_->Resolve({"qqqqzzzz"});
  EXPECT_TRUE(origins[0].empty());
}

TEST_F(EngineTest, QueryReturnsValidAnswers) {
  // Use the most frequent title word paired with an author's surname.
  std::string frequent;
  size_t best = 0;
  // Probe a few known-vocabulary words via the index by sampling paper
  // titles directly.
  const Table& paper = *db_->FindTable("paper");
  for (RowId r = 0; r < 20; ++r) {
    for (const std::string& tok :
         engine_->index().tokenizer().Tokenize(paper.RowText(r))) {
      size_t df = engine_->index().MatchCount(tok);
      if (df > best) {
        best = df;
        frequent = tok;
      }
    }
  }
  ASSERT_FALSE(frequent.empty());
  const Table& author = *db_->FindTable("author");
  std::string surname =
      engine_->index().tokenizer().Tokenize(author.RowText(0)).back();

  SearchOptions options;
  options.k = 5;
  SearchResult r = engine_->Query({frequent, surname},
                                  Algorithm::kBidirectional, options);
  for (const AnswerTree& t : r.answers) {
    std::string error;
    EXPECT_TRUE(t.Validate(engine_->graph(), &error)) << error;
  }
}

TEST_F(EngineTest, AllAlgorithmsAgreeOnTopAnswerScore) {
  const Table& author = *db_->FindTable("author");
  std::string s0 =
      engine_->index().tokenizer().Tokenize(author.RowText(0)).back();
  std::string s1 =
      engine_->index().tokenizer().Tokenize(author.RowText(1)).back();
  auto origins = engine_->Resolve({s0, s1});
  if (origins[0].empty() || origins[1].empty()) GTEST_SKIP();

  SearchOptions options;
  options.k = 3;
  SearchResult mi =
      engine_->QueryResolved(origins, Algorithm::kBackwardMI, options);
  SearchResult si =
      engine_->QueryResolved(origins, Algorithm::kBackwardSI, options);
  SearchResult bd =
      engine_->QueryResolved(origins, Algorithm::kBidirectional, options);
  // If any found answers, the best scores must agree (same answer model).
  if (!mi.answers.empty() && !si.answers.empty() && !bd.answers.empty()) {
    EXPECT_NEAR(mi.answers[0].score, si.answers[0].score, 1e-6);
    EXPECT_NEAR(si.answers[0].score, bd.answers[0].score, 1e-6);
  } else {
    EXPECT_EQ(mi.answers.empty(), si.answers.empty());
    EXPECT_EQ(si.answers.empty(), bd.answers.empty());
  }
}

TEST_F(EngineTest, DescribeAnswerMentionsNodes) {
  SearchResult r =
      engine_->Query({"author"}, Algorithm::kBackwardSI, SearchOptions{});
  ASSERT_FALSE(r.answers.empty());
  std::string desc = engine_->DescribeAnswer(r.answers[0]);
  EXPECT_NE(desc.find("root:"), std::string::npos);
  EXPECT_NE(desc.find("keyword 0"), std::string::npos);
  const std::string& root_label =
      engine_->data().node_labels[r.answers[0].root];
  ASSERT_FALSE(root_label.empty());
  EXPECT_NE(desc.find(root_label), std::string::npos);

  // A root past the node count renders the "<node>" fallback label.
  AnswerTree stray;
  stray.root = static_cast<NodeId>(1u << 30);
  EXPECT_NE(engine_->DescribeAnswer(stray).find("root: <node>"),
            std::string::npos);
}

TEST(EngineOptionsTest, UniformPrestigeWhenDisabled) {
  DblpConfig config;
  config.num_authors = 30;
  config.num_papers = 50;
  Database db = GenerateDblp(config);
  EngineOptions options;
  options.compute_prestige = false;
  Engine e = Engine::FromDatabase(db, options);
  for (double p : e.prestige()) EXPECT_DOUBLE_EQ(p, 1.0);
}

}  // namespace
}  // namespace banks
