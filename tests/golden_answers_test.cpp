// Golden protocol answers: a fixed script of request lines run through
// QueryService::handle, with every answer pinned byte for byte in
// golden_answers.inc.  Two services answer it: the synthetic database
// of service_fixture.hpp trained with learners cart and forest ("full"),
// and a fallback-mode service over an empty database ("fallback").
//
// The script covers predict for every default-grid label under both
// objectives; recommend across top_k, fs=, learner=, chaos= and explicit
// preemption terms; rank with and without the model section; plugins
// and help; and the error paths of the tokenizer and of every parser
// behind it.  Only the "at <file>:<line> in <fn>" part of an ACIC_CHECK
// answer is masked, since it names source positions.  stats is left
// out: its metrics move with every request.
//
// On drift the failure prints a per-line diff of each answer that moved
// and its current row in .inc syntax.  A deliberate protocol change
// regenerates the file from those rows.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "acic/cloud/ioconfig.hpp"
#include "acic/service/query_service.hpp"
#include "service_fixture.hpp"

namespace acic::service {
namespace {

struct GoldenAnswer {
  const char* service;
  const char* request;
  const char* answer;
};

const std::vector<GoldenAnswer> kGoldenAnswers = {
#include "golden_answers.inc"
};

struct ScriptLine {
  std::string service;
  std::string request;
};

std::vector<ScriptLine> golden_script() {
  const std::string workload =
      " np=64 io_procs=32 interface=MPI-IO iterations=10 data=128MiB "
      "request=4MiB op=write collective=yes shared=yes";
  const std::string small = " np=32 data=4MiB request=1MiB op=read";
  std::vector<ScriptLine> script;
  const auto both = [&script](const std::string& request) {
    script.push_back({"full", request});
    script.push_back({"fallback", request});
  };

  for (const char* objective : {"performance", "cost"}) {
    for (const auto& c : cloud::IoConfig::enumerate_candidates()) {
      script.push_back({"full", "predict config=" + c.label() +
                                    " objective=" + objective + workload});
    }
  }
  both("predict config=pvfs.4.D.eph.4M" + workload);

  for (const char* top_k : {"0", "1", "3", "56", "100"}) {
    both(std::string("recommend objective=performance top_k=") + top_k +
         workload);
  }
  both("recommend objective=cost top_k=5" + small);
  both("recommend" + small);
  for (const char* fs : {"nfs", "pvfs2", "PVFS2", "lustre"}) {
    both(std::string("recommend top_k=4 fs=") + fs + workload);
  }
  both("recommend top_k=3 learner=forest" + workload);
  both("recommend objective=cost top_k=3 learner=forest" + small);
  both("recommend top_k=4 chaos=spot-preempt" + workload);
  both("recommend objective=cost top_k=4 chaos=spot-preempt" + small);
  both("recommend top_k=4 preemptions=2 checkpoint_interval=300 "
       "checkpoint_bytes=2GiB" +
       workload);
  both("recommend objective=cost top_k=4 preemptions=0.5 "
       "checkpoint_bytes=512MiB spot_factor=0.35 restart_cost=0.08" +
       small);
  both("predict config=pvfs.2.P.ebs.64K.cc1 learner=forest" + workload);

  for (const char* objective : {"performance", "cost"}) {
    for (const char* top : {"0", "5", "99"}) {
      both(std::string("rank top=") + top);
      both(std::string("rank top=") + top + " model=yes objective=" +
           objective + workload);
    }
    both(std::string("rank model=yes objective=") + objective + small);
  }
  both("rank model=no top=2");
  both("plugins");
  both("help");
  both("");

  // Error paths.
  both("recommend np");
  both("recommend =64");
  both("recommend foo bar=1 baz");
  both("recommend np=32 np=64 data=4MiB request=1MiB");
  both("recommend top_k=2 top_k=5" + small);
  both("predict config=nfs.D.ebs config=pvfs.4.D.eph.4M" + workload);
  both("rank top=1 top=4");
  both("predict config=nfs.D.ebs np=32 np=256 io_procs=32 data=4MiB "
       "request=1MiB op=read op=write");
  both("recommend zeta=1 alpha=2");
  both("recommend\tobjective=cost\ttop_k=2\tnp=64\tdata=4MiB");
  both("recommend objective=cost\rtop_k=2\rnp=64 data=4MiB\r");
  both("recommend \v top_k=2 \f np=64  data=4MiB ");
  both("frobnicate np=64");
  both("recommend top_k=-1" + small);
  both("recommend top_k=abc" + small);
  both("recommend objective=speed" + small);
  both("recommend np=64 data=1e300TiB request=1MiB");
  both("recommend np=64 data=banana");
  both("recommend np=2147483648");
  both("recommend np=8 io_procs=16 data=1MiB request=4MiB collective=maybe");
  both("recommend warp_factor=9" + small);
  both("predict config=zfs.D.ebs" + small);
  both("predict" + small);
  both("predict config=nfs.D.ebs np=-8");
  both("recommend fs=zfs" + small);
  both("recommend learner=perceptron" + small);
  both("recommend learner=knn" + small);
  both("predict config=nfs.D.ebs learner=knn" + small);
  both("recommend chaos=mayhem" + small);
  both("recommend preemptions=-1" + small);
  both("recommend checkpoint_bytes=0" + small);
  both("rank top=-1");
  both("rank model=maybe");
  both("rank model=yes np=0");
  both("help =x");
  both("plugins trailing");
  both("simulate np=16");
  both("simulate config=zfs.D.ebs np=16");
  both("simulate config=nfs.D.ebs np=16 chaos=mayhem");
  return script;
}

/// C string literal for a .inc row: printable ASCII as is, everything
/// else escaped (octal for bytes outside ASCII).
std::string literal(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20 || c >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\%03o", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string line_diff(const std::string& expected, const std::string& got) {
  const auto want = lines_of(expected);
  const auto have = lines_of(got);
  std::string diff;
  for (std::size_t i = 0; i < std::max(want.size(), have.size()); ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* h = i < have.size() ? &have[i] : nullptr;
    if (w != nullptr && h != nullptr && *w == *h) continue;
    diff += "    line " + std::to_string(i + 1) + "\n";
    if (w != nullptr) diff += "      - " + literal(*w) + "\n";
    if (h != nullptr) diff += "      + " + literal(*h) + "\n";
  }
  return diff;
}

TEST(GoldenAnswers, ScriptAnswersAreByteIdentical) {
  ServiceOptions options;
  options.learners = {"cart", "forest"};
  QueryService full(synthetic_db(), synthetic_ranking(), options);
  QueryService fallback(core::TrainingDatabase{}, synthetic_ranking());
  ASSERT_FALSE(full.degraded());
  ASSERT_TRUE(fallback.degraded());

  const auto script = golden_script();
  EXPECT_EQ(script.size(), kGoldenAnswers.size())
      << "the script and golden_answers.inc differ in length";
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const auto& line = script[i];
    QueryService& service = line.service == "full" ? full : fallback;
    const std::string got = masked_location(service.handle(line.request));
    const GoldenAnswer* golden =
        i < kGoldenAnswers.size() ? &kGoldenAnswers[i] : nullptr;
    if (golden != nullptr && line.service == golden->service &&
        line.request == golden->request && got == golden->answer) {
      continue;
    }
    ++mismatches;
    std::string report = "entry " + std::to_string(i) + " [" +
                         line.service + "] " + literal(line.request) + "\n";
    if (golden == nullptr) {
      report += "  (no golden entry)\n";
    } else if (line.service != golden->service ||
               line.request != golden->request) {
      report += "  golden entry is [" + std::string(golden->service) + "] " +
                literal(golden->request) + "\n";
    } else {
      report += line_diff(golden->answer, got);
    }
    report += "current: {" + literal(line.service) + ", " +
              literal(line.request) + ", " + literal(got) + "},\n";
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace acic::service
