// Deterministic fuzz harness for the collcheck front end (ctest label:
// analyze).  The lexer and the extractor/rule pipeline take arbitrary
// bytes from the repo tree; this suite feeds them seeded mutations of
// realistic sources and asserts they neither crash nor violate basic
// output invariants.  tier1.sh runs the analyze label under ASan/UBSan,
// which is where the real payoff is: any out-of-bounds token index or
// unterminated-literal overrun trips the sanitizer.
//
// Everything is seeded from fixed constants — no random_device, no wall
// clock — so a failure reproduces exactly from the (seed, round) pair
// printed in the assertion message.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "lexer.hpp"
#include "schedule.hpp"

namespace {

// xorshift64*: tiny, deterministic, and good enough for byte mutation.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed | 1) {}
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }
};

// Seed corpus: small but chosen to reach every lexer mode (raw strings,
// block comments, continued preprocessor lines, char literals, allow
// markers) and every extractor structure (if/else-if chains, switch,
// loops, try/catch, lambdas, rank taint, p2p, collectives).
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kSeeds = {
      // Lexer edge cases.
      "// collcheck:allow(CC-SCHED-DIV, CC-SCHED-LOOP)\n"
      "/* block\n comment */ R\"x(raw \" string)x\" 'c' '\\''\n"
      "#include \"simmpi/comm.hpp\"\n"
      "#include <vector>\n"
      "#define M(a, b) \\\n  ((a) + (b))\n"
      "auto s = \"esc \\\" quote\"; int n = 0x1fULL; float f = 1.5e-3f;\n",
      // Divergent collectives + taint flow.
      "void f(collrep::simmpi::Comm& comm) {\n"
      "  const int me = comm.rank();\n"
      "  if (me == 0) { comm.barrier(); }\n"
      "  else if (me == 1) { collrep::simmpi::bcast(comm, me, 0); }\n"
      "  else { comm.send_value(0, 7, me); }\n"
      "  for (int i = 0; i < me; ++i) { comm.barrier(); }\n"
      "}\n",
      // Unwind + switch + sanctioned recovery.
      "void g(collrep::simmpi::Comm& comm, int mode) {\n"
      "  try {\n"
      "    switch (mode) {\n"
      "      case 0: comm.barrier(); break;\n"
      "      default: break;\n"
      "    }\n"
      "  } catch (const collrep::simmpi::RankDeadError&) {\n"
      "    comm.barrier();\n"
      "    throw;\n"
      "  }\n"
      "}\n",
      // Locks, waits, thread_local (fiber rules + race rules).
      "struct W {\n"
      "  std::mutex mu_;\n"
      "  std::condition_variable cv_;\n"
      "  int hits_ = 0;\n"
      "  void park() {\n"
      "    std::unique_lock<std::mutex> lk(mu_);\n"
      "    cv_.wait(lk, [this] { return hits_ > 0; });\n"
      "  }\n"
      "};\n"
      "thread_local int slot = 0;\n",
      // p2p protocol + RMA shapes.
      "void ring(collrep::simmpi::Comm& comm) {\n"
      "  const int next = (comm.rank() + 1) % comm.size();\n"
      "  comm.send_value(next, 5, 1);\n"
      "  (void)comm.recv_value<int>((comm.rank() + comm.size() - 1) %\n"
      "                             comm.size(), 5);\n"
      "  auto win = comm.win_create(8);\n"
      "}\n",
      // Pathological nesting / unterminated constructs.
      "void h() { if (x) { while (y) { do { { [ ( < \" \n"
      "/* unterminated block comment...\n",
  };
  return kSeeds;
}

// One mutation step: flip, overwrite, insert, delete, duplicate a span,
// or truncate.  Operates on raw bytes so the lexer sees arbitrary input.
std::string mutate(std::string s, Rng& rng) {
  if (s.empty()) return std::string(1, static_cast<char>(rng.below(256)));
  switch (rng.below(6)) {
    case 0:  // bit flip
      s[rng.below(s.size())] ^= static_cast<char>(1 << rng.below(8));
      break;
    case 1:  // overwrite with interesting byte
      s[rng.below(s.size())] = "\"'/{}()\\\n\0#"[rng.below(11)];
      break;
    case 2:  // insert
      s.insert(rng.below(s.size() + 1), 1,
               static_cast<char>(rng.below(256)));
      break;
    case 3:  // delete
      s.erase(rng.below(s.size()), 1 + rng.below(4));
      break;
    case 4: {  // duplicate a span (grows bracket nesting, repeats tokens)
      const std::size_t b = rng.below(s.size());
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                      16, s.size() - b));
      s.insert(rng.below(s.size() + 1), s.substr(b, len));
      break;
    }
    default:  // truncate (unterminated everything)
      s.resize(rng.below(s.size() + 1));
      break;
  }
  return s;
}

TEST(CollcheckFuzz, LexerSurvivesMutatedBytes) {
  for (std::size_t seed = 0; seed < corpus().size(); ++seed) {
    Rng rng(0x9E3779B97F4A7C15ULL + seed);
    std::string input = corpus()[seed];
    for (int round = 0; round < 400; ++round) {
      input = mutate(input, rng);
      const collcheck::LexedFile lexed = collcheck::lex(input);
      int prev_line = 1;
      for (const collcheck::Token& t : lexed.tokens) {
        ASSERT_GE(t.line, prev_line)
            << "token lines regressed (seed " << seed << ", round "
            << round << ")";
        prev_line = t.line;
      }
      for (const auto& [line, rules] : lexed.allows) {
        ASSERT_GE(line, 1) << "allow on impossible line (seed " << seed
                           << ", round " << round << ")";
        ASSERT_FALSE(rules.empty());
      }
      // Occasionally restart from the seed so mutations don't random-walk
      // into pure noise and miss the structured edge cases.
      if (round % 97 == 96) input = corpus()[seed];
    }
  }
}

TEST(CollcheckFuzz, PipelineSurvivesMutatedSources) {
  for (std::size_t seed = 0; seed < corpus().size(); ++seed) {
    Rng rng(0xD1B54A32D192ED03ULL + seed);
    std::string input = corpus()[seed];
    for (int round = 0; round < 150; ++round) {
      input = mutate(input, rng);
      // src/simmpi path: routes through the strictest rule set (sim
      // component => fiber + determinism rules) and the schedule pass.
      const collcheck::AnalysisResult result = collcheck::analyze_sources(
          {{"src/simmpi/fuzz_demo.cpp", input},
           {"src/core/fuzz_other.cpp", corpus()[(seed + 1) % corpus().size()]}});
      for (const collcheck::Finding& f : result.findings) {
        ASSERT_GE(f.line, 1) << "finding on impossible line (seed " << seed
                             << ", round " << round << ")";
        ASSERT_EQ(f.rule.rfind("CC-", 0), 0u)
            << "unknown rule id '" << f.rule << "' (seed " << seed
            << ", round " << round << ")";
      }
      // The schedule dump must never crash on garbage either; stability
      // matters only for valid input, termination matters for all input.
      (void)collcheck::dump_schedules(result.files);
      if (round % 53 == 52) input = corpus()[seed];
    }
  }
}

TEST(CollcheckFuzz, MutationIsDeterministic) {
  // The harness itself must be reproducible: same seed, same sequence.
  Rng a(42);
  Rng b(42);
  std::string sa = corpus()[0];
  std::string sb = corpus()[0];
  for (int i = 0; i < 100; ++i) {
    sa = mutate(sa, a);
    sb = mutate(sb, b);
  }
  EXPECT_EQ(sa, sb);
}

}  // namespace
